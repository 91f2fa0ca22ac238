"""CLI exit-code contract, output formats, config layering, JSON schemas."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import networkx as nx
import pytest

import spexlab
from helpers import to_nx
from spexlab.cli import _build_parser, main
from spexlab.forbidden import ForbiddenSpec
from spexlab.graph import complete, join, path
from spexlab.graph6 import graph6_decode, graph6_encode
from spexlab.search import SearchConfig, exhaustive_spex, load_checkpoint

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload: dict, schema_name: str):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(payload, schema)


def test_construct_g6(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "wheel:n=6", "--format", "g6")
    assert code == 0
    g = graph6_decode(out.strip())
    assert nx.is_isomorphic(to_nx(g), nx.wheel_graph(6))


def test_construct_json_schema(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "k1hop:t=2,l=5,n=40", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "construct.schema.json")
    assert payload["n"] == 40 and payload["family"] == "k1hop:t=2,l=5,n=40"


def test_rho_json(capsys):
    code, out, _ = run_cli(capsys, "rho", "--family", "wheel:n=10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "rho.schema.json")
    assert abs(payload["rho"] - (1 + math.sqrt(10))) <= 1e-9
    assert payload["residual"] <= 1e-10


def test_rho_from_g6(capsys):
    enc = graph6_encode(join(complete(1), path(4)))
    code, out, _ = run_cli(capsys, "rho", "--g6", enc, "--format", "text")
    assert code == 0 and out.startswith("rho ")


def test_rho_below_rounding_floor_exits_3(capsys):
    code, out, err = run_cli(capsys, "rho", "--family", "wheel:n=10", "--tol", "1e-20")
    assert code == 3 and out == ""
    assert err.startswith("convergence error: residual")


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_rho_refuses_a_tol_that_is_not_finite_and_positive(capsys, tol):
    code, out, err = run_cli(capsys, "rho", "--family", "wheel:n=10", "--tol", tol)
    assert (code, out) == (1, "")
    assert "tol must be finite and positive" in err


def test_check_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--family",
        "k2n2:n=8",
        "--class",
        "planar",
        "--forbidden",
        "C3",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "check.schema.json")
    assert payload["in_class"] is True and payload["free"] is True


def test_transform_formats(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--partition", "4,2,2",
        "--i", "0", "--j", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "transform.schema.json")
    assert payload["result"] == [5, 2, 1]
    code, out, _ = run_cli(
        capsys, "transform", "--partition", "3,1", "--successors", "--format", "text"
    )
    assert code == 0 and "[4]" in out


def test_search_json_schema(capsys):
    code, out, _ = run_cli(capsys, "search", "--nmin", "4", "--nmax", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "search-report.schema.json")
    assert [e["n"] for e in payload["entries"]] == [4, 5]


def test_search_report_with_an_empty_level_fits_schema():
    report = exhaustive_spex(SearchConfig(2, 3, forbidden=ForbiddenSpec.parse("M1")))
    assert [e["candidates"] for e in report.entries] == [0, 0]
    validate(json.loads(report.to_json()), "search-report.schema.json")


def test_search_report_schema_ties_certificates_to_candidates():
    payload = json.loads(exhaustive_spex(SearchConfig(3, 3)).to_json())
    validate(payload, "search-report.schema.json")
    entry = payload["entries"][0]
    assert entry["candidates"] > 0
    empty = {"certificates": [], "best_rho": 0.0, "candidates": 0}
    # a level with candidates needs a certificate; an empty level claims
    # neither a certificate nor a nonzero rho
    for bad in (
        {"certificates": []},
        {**empty, "certificates": entry["certificates"]},
        {**empty, "best_rho": entry["best_rho"]},
    ):
        payload["entries"] = [{**entry, **bad}]
        with pytest.raises(jsonschema.ValidationError):
            validate(payload, "search-report.schema.json")


def test_search_rejects_cap_below_one(capsys):
    code, out, err = run_cli(
        capsys,
        "search", "--mode", "local", "--start-g6", "Cr",
        "--nmin", "4", "--nmax", "4", "--cap", "0", "--format", "json",
    )
    assert (code, out) == (1, "")
    assert err == "error: exhaustive_cap must be >= 1, got 0\n"


def test_local_search_start_outside_the_range_exits_1(capsys):
    code, out, err = run_cli(
        capsys,
        "search", "--mode", "local", "--start-g6", "Cr",
        "--nmin", "7", "--nmax", "9", "--format", "json",
    )
    assert (code, out) == (1, "")
    assert err == "error: start graph has n=4, outside the search range [7, 9]\n"


def test_search_refuses_n_above_16_before_enumerating(capsys, monkeypatch):
    from spexlab import search

    entered = []
    monkeypatch.setattr(search, "_enumerate", lambda *args: entered.append(args))
    code, out, err = run_cli(
        capsys, "search", "--nmin", "16", "--nmax", "17", "--cap", "20"
    )
    assert (code, out, entered) == (1, "", [])
    assert err == "error: canonical_form is limited to n <= 16\n"


def test_search_csv_and_g6(capsys):
    code, out, _ = run_cli(capsys, "search", "--nmin", "5", "--nmax", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,best_rho,certificate_graph6,candidates,seconds"
    code, out, _ = run_cli(capsys, "search", "--nmin", "5", "--nmax", "5", "--format", "g6")
    assert code == 0
    assert graph6_decode(out.strip()).n == 5


def test_search_local_mode(capsys):
    enc = graph6_encode(path(6))
    code, out, _ = run_cli(
        capsys,
        "search",
        "--nmin", "6", "--nmax", "6", "--mode", "local",
        "--start-g6", enc, "--restarts", "2", "--format", "text",
    )
    assert code == 0 and out.startswith("n=6 rho=")


def test_verify_pass_json(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "lemma-lm5", "--param", "cases=6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "traceability.schema.json")
    assert payload["lemma-lm5"]["verdict"] == "PASS"
    assert "lemma-lm5" in err  # summary goes to stderr


def test_verify_failure_exits_2(capsys):
    # the hub1 box is genuinely violated at n=5000 (it needs rho >= 102)
    code, out, err = run_cli(capsys, "verify", "--suite", "claim-3.1", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["claim-3.1"]["verdict"] == "FAIL"
    assert payload["claim-3.1"]["failures"]
    assert "worst" in err or "fail" in err.lower()


# [DERIVED] SHA-256 of the stdout of `verify --suite all --format json`,
# computed before the claim checks moved from spectral.py to experiments.py.
# Its only floats are the worst overflow and rho of claim-3.1's two failures.
VERIFY_ALL_JSON_SHA256 = "8d6b3a06ecddb62f988f4cb02696d71711d528b0fd36111acc71f701e6ea63e5"


def test_verify_all_json_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256


def test_verify_text_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "claim-3.5", "--format", "text",
        "--param", "ts=2,3", "--param", "ls=3,4",
    )
    assert code == 0 and out.startswith("| suite |")
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "claim-3.5", "--format", "csv",
        "--param", "ts=2,3", "--param", "ls=3,4",
    )
    assert code == 0
    assert out.splitlines()[0] == "suite,cases,passes,failures,indeterminates"


def test_usage_errors_exit_1(capsys):
    cases = [
        ("construct",),  # missing --family
        ("rho",),  # neither --g6 nor --family
        ("rho", "--g6", "Cl", "--family", "wheel:n=5"),  # both inputs
        ("rho", "--g6", "C\u00e9"),  # non-ASCII graph6
        ("rho", "--family", "wheel:n=5", "--format", "g6"),
        ("construct", "--family", "bogus:n=5"),
        ("construct", "--family", "wheel:n=2"),  # domain error from library
        ("check", "--family", "wheel:n=5"),  # nothing to check
        ("verify", "--suite", "nope"),
        ("verify", "--suite", "lemma-lm5", "--param", "case=3"),  # misspelt key
        ("verify", "--suite", "all", "--param", "nosuch=1"),  # no suite takes it
        ("verify", "--suite", "lemma-lm5", "--nmax", "3"),  # removed: use --param
        ("search", "--nmin", "3", "--nmax", "4", "--threads", "2"),  # removed
        ("transform", "--partition", "2,x", "--i", "0", "--j", "1"),
        ("search", "--nmin", "4", "--nmax", "20"),  # exhaustive cap
        ("search", "--mode", "local", "--start-g6", "EhCG", "--nmin", "6", "--nmax", "6",
         "--restarts", "-3"),  # used to exit 0 having run no restart
        ("frobnicate",),
        ("rho", "--family", "wheel:n=5", "--no-such-flag",),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.strip(), argv


def test_transform_successors_has_no_g6_form(capsys):
    code, out, err = run_cli(
        capsys, "transform", "--partition", "4,2,2", "--successors", "--format", "g6"
    )
    assert (code, out) == (1, "")
    assert err == "usage error: --format g6 makes no sense for transform\n"


def _record_suite_params(monkeypatch) -> dict:
    """Replace run_suite by a recorder of the params each suite receives."""
    from spexlab import experiments

    seen = {}

    def record(suite, params):
        seen[suite] = params
        return experiments.SuiteResult(suite, 0, 0)

    monkeypatch.setattr(experiments, "run_suite", record)
    return seen


def test_verify_all_routes_each_param_to_the_suites_that_take_it(capsys, monkeypatch):
    from spexlab import experiments

    seen = _record_suite_params(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--format", "csv",
        "--param", "nmax=5", "--param", "total_cap=9", "--param", "ts=2,3",
    )
    assert code == 0 and len(out.splitlines()) == 1 + len(experiments.SUITES)
    assert sorted(seen) == sorted(experiments.SUITES)
    assert seen["lemma-lm2"] == seen["thm-1-structure"] == {"nmax": 5}
    assert seen["claim-3.3"] == {"total_cap": 9}
    for suite in ("claim-3.5", "claim-4.2", "claim-4.3", "bouquet-semantics", "thm-2"):
        assert seen[suite] == {"ts": (2, 3)}, suite
    for suite in ("claim-1.1", "lemma-lm1", "claim-3.1", "claim-3.2", "remark-rk111"):
        assert seen[suite] == {}, suite


def test_verify_params_take_booleans_and_one_value_tuples(capsys, monkeypatch):
    seen = _record_suite_params(monkeypatch)
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "all", "--format", "csv", "--param", "grid=False",
        "--param", "dominance=TRUE", "--param", "ls=4", "--param", "nmax=5",
    )
    assert code == 0
    assert seen["thm-2"] == {"grid": False, "dominance": True, "ls": (4,)}
    assert seen["claim-3.5"] == {"ls": (4,)}
    assert seen["lemma-lm2"] == {"nmax": 5}  # not a tuple parameter: kept as is


def test_verify_false_switches_a_flag_off(capsys):
    for params, row in (
        (["grid=False"], "thm-3,2,2,0,0"),  # the two dominance cases
        (["n_count=1", "dominance=false"], "thm-3,4,4,0,0"),  # one n per t
    ):
        argv = [a for p in params for a in ("--param", p)]
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm-3", "--format", "csv", *argv)
        assert code == 0 and out.splitlines()[1] == row


@pytest.mark.parametrize(
    "suite,params,message",
    [
        ("claim-1.1", ["n_values=2"], "bound needs n > 5"),
        ("lemma-lm5", ["cases=0"], "cases >= 1"),
        ("thm-3", ["grid=False", "dominance=false"], "'thm-3' has no case"),
    ],
    ids=["claim-1.1", "lemma-lm5", "thm-3"],
)
def test_verify_refuses_a_suite_that_runs_no_case(capsys, suite, params, message):
    argv = [a for p in params for a in ("--param", p)]
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--format", "csv", *argv)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize(
    "suite,params,message",
    [
        ("lemma-lm1", ["s2_max=0"], "s2_max >= 1"),  # was a ZeroDivisionError
        ("lemma-lm1", ["margin=-10"], "margin >= 1"),  # never stopped
        ("claim-3.2", ["grid=5"], "suite 'claim-3.2': bad parameter value"),
        ("claim-3.1", ["grid=1"], "suite 'claim-3.1': bad parameter value"),
        ("lemma-lm2", ["nmax=2", "family_ns="], "suite 'lemma-lm2': bad parameter value"),
        # each value is checked against the shape of its default before any
        # case runs: these used to exit 3, or run with s2_max = 2
        ("thm-2", ["n_dom=inf"], "suite 'thm-2': bad parameter value n_dom=inf"),
        ("lemma-lm5", ["cases=inf"], "suite 'lemma-lm5': bad parameter value cases=inf"),
        ("lemma-lm2", ["nmax=inf"], "suite 'lemma-lm2': bad parameter value nmax=inf"),
        ("claim-4.3", ["ts=2.5"], "suite 'claim-4.3': bad parameter value ts=(2.5,)"),
        ("lemma-lm1", ["s2_max=2.5"], "suite 'lemma-lm1': bad parameter value s2_max=2.5"),
        ("lemma-lm1", ["margin=1" + "0" * 400], "bad parameter value margin=1000"),  # no float
    ],
    ids=[
        "lemma-lm1-s2_max", "lemma-lm1-margin", "claim-3.2", "claim-3.1", "lemma-lm2",
        "thm-2-n_dom-inf", "lemma-lm5-cases-inf", "lemma-lm2-nmax-inf", "claim-4.3-ts-float",
        "lemma-lm1-s2_max-float", "lemma-lm1-margin-huge-int",
    ],
)
def test_verify_bad_param_value_exits_1(suite, params, message):
    # in a child with a time limit, since one of these used to loop forever
    argv = [a for p in params for a in ("--param", p)]
    proc = run_cli_process(["verify", "--suite", suite, *argv], timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and message in proc.stderr


def test_verify_one_value_means_a_one_tuple(capsys):
    outs = [
        run_cli(capsys, "verify", "--suite", "claim-3.5", "--format", "csv", "--param", ls)
        for ls in ("ls=4", "ls=4,")
    ]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert outs[0][1].splitlines()[1] == "claim-3.5,8,8,0,0"


def test_malformed_checkpoint_exits_1(tmp_path, capsys):
    header = b"SPEXCKPT1"
    for name, blob in [
        ("magic-only", header),
        ("object", header + b"\x00\x00\x00\x02{}"),
        ("list", header + b"\x00\x00\x00\x05[1,2]"),
    ]:
        ckpt = tmp_path / f"{name}.bin"
        ckpt.write_bytes(blob)
        argv = ("search", "--nmin", "3", "--nmax", "4", "--checkpoint", str(ckpt))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, name
        assert err.startswith("error:"), name
    # a payload whose config matches this search but whose entries are bare
    ckpt = tmp_path / "bare.bin"
    argv = ("search", "--nmin", "3", "--nmax", "4", "--checkpoint", str(ckpt))
    assert run_cli(capsys, *argv)[0] == 0
    config = json.loads(ckpt.read_bytes()[13:])["config"]
    payload = json.dumps({"config": config, "entries": [{"n": 3}]}).encode()
    ckpt.write_bytes(header + len(payload).to_bytes(4, "big") + payload)
    for fmt in ("text", "csv", "g6", "json"):
        code, _, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 1, fmt
        assert err.startswith("error:"), fmt


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code, _, err = run_cli(capsys, "rho", "--family", "star:n=5", "--config", str(missing))
    assert code == 1
    assert err.startswith("usage error:") and "missing.cfg" in err


def test_bad_paths_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing_dir"
    for argv, shown in [
        (("search", "--nmin", "3", "--nmax", "4", "--checkpoint", str(tmp_path)), str(tmp_path)),
        (("search", "--nmin", "3", "--nmax", "4", "--checkpoint", str(missing / "c.bin")), "c.bin"),
        (("rho", "--family", "star:n=5", "--out", str(missing / "x.json")), "x.json"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == "" and shown in err, argv


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "rho", "--help")[0] == 0


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "rho", "--family", "star:n=10", "--out", str(target), "--format", "json"
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rho"] == pytest.approx(3.0, abs=1e-9)


def test_config_file_supplies_and_cli_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = wheel:n=10\nformat = json  # trailing comment\n")
    code, out, _ = run_cli(capsys, "rho", "--config", str(cfg))
    assert code == 0
    assert abs(json.loads(out)["rho"] - (1 + math.sqrt(10))) <= 1e-9
    # explicit flag beats the config value
    code, out, _ = run_cli(
        capsys, "rho", "--config", str(cfg), "--family", "star:n=17"
    )
    assert abs(json.loads(out)["rho"] - 4.0) <= 1e-9
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    assert run_cli(capsys, "rho", "--config", str(bad))[0] == 1


@pytest.mark.parametrize(
    "argv,line",
    [
        (("rho", "--family", "star:n=5"), "handler = x"),
        (("verify", "--suite", "all", "--format", "g6"), "formats = g6"),
        (("rho", "--family", "star:n=5"), "suite = all"),  # an option of another verb
        (("check", "--family", "star:n=5"), "klass = planar"),  # a dest, not an option
    ],
    ids=["handler", "formats", "other-verb", "dest"],
)
def test_config_key_that_is_no_option_of_the_verb_exits_1(tmp_path, capsys, monkeypatch, argv, line):
    seen = _record_suite_params(monkeypatch)
    cfg = tmp_path / "keys.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out, seen) == (1, "", {})
    assert err.startswith("usage error:") and repr(line.split()[0]) in err


def test_config_key_names_the_option_not_its_dest(tmp_path, capsys):
    # --class stores into args.klass
    cfg = tmp_path / "check.cfg"
    cfg.write_text("class = planar\n")
    code, out, _ = run_cli(capsys, "check", "--family", "wheel:n=7", "--config", str(cfg))
    assert (code, out) == (0, "planar=True\n")


# (argv, config lines, exit code, stdout, stderr): each config line is read
# as the flag it names, with that flag's type, choices and action
CONFIG_AS_FLAGS = {
    "int-partition": (("transform",), "partition = 5", 1, "",
                      "error: indices (0, 1) out of range for 1 parts\n"),
    "tuple-partition": (("transform",), "partition = 3,1", 0, "[4]\n", ""),
    "int-g6": (("rho",), "g6 = 12", 1, "",
               "error: byte 49 outside graph6 range 63..126 (byte offset 0)\n"),
    "append-param": (("verify", "--suite", "claim-1.1", "--format", "csv"), "param = n_values=10",
                     0, "suite,cases,passes,failures,indeterminates\nclaim-1.1,3,3,0,0\n",
                     "claim-1.1: 3/3 passed, 0 failed, 0 indeterminate\n"),
    "required-family": (("construct",), "family = wheel:n=6", 0, "wheel:n=6 n=6 edges=10 E|fG\n", ""),
    "switch-true": (("transform", "--partition", "4,2,2"), "successors = TRUE", 0,
                    "[5,2,1]\n[4,3,1]\n", ""),
    "switch-false": (("transform", "--partition", "4,2,2"), "successors = false", 0, "[5,2,1]\n", ""),
    "switch-not-bool": (("transform", "--partition", "4,2,2"), "successors = no", 1, "",
                        "usage error: --config key 'successors' takes true or false, not 'no'\n"),
    "float-cap": (("search",), "cap = 2.5\nnmin = 3\nnmax = 3", 1, "",
                  "usage error: argument --cap: invalid int value: '2.5'\n"),
}


@pytest.mark.parametrize("row", list(CONFIG_AS_FLAGS))
def test_config_lines_are_parsed_as_flags(tmp_path, capsys, row):
    argv, lines, *expected = CONFIG_AS_FLAGS[row]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines + "\n")
    assert list(run_cli(capsys, *argv, "--config", str(cfg))) == expected


def test_config_paths_that_look_like_numbers_name_files(tmp_path, capsys, monkeypatch):
    # "2" used to become fd 2 for --out and --checkpoint
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("out = 2\n")
    argv = ("rho", "--family", "wheel:n=6")
    assert run_cli(capsys, *argv, "--config", "run.cfg") == (0, "", "")
    assert Path("2").read_text() == run_cli(capsys, *argv)[1]
    Path("2").unlink()
    Path("run.cfg").write_text("checkpoint = 2\nnmin = 4\nnmax = 5\n")
    code, out, err = run_cli(capsys, "search", "--config", "run.cfg")
    assert (code, err, len(out.splitlines())) == (0, "", 2)
    entries = load_checkpoint("2", SearchConfig(n_min=4, n_max=5, checkpoint="2"))
    assert [e["n"] for e in entries] == [4, 5]


def test_config_value_keeps_a_hash_that_follows_no_space(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("out = a#b.txt\n")
    argv = ("rho", "--family", "star:n=5")
    assert run_cli(capsys, *argv, "--config", "run.cfg") == (0, "", "")
    assert Path("a#b.txt").read_text() == run_cli(capsys, *argv)[1]
    assert not Path("a").exists()


def test_config_comment_after_a_value_and_a_space(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("# the output\nout = b.txt # not a#name\n")
    argv = ("rho", "--family", "star:n=5")
    assert run_cli(capsys, *argv, "--config", "run.cfg") == (0, "", "")
    assert Path("b.txt").read_text() == run_cli(capsys, *argv)[1]


def test_config_supplies_every_required_flag(tmp_path, capsys, monkeypatch):
    seen = _record_suite_params(monkeypatch)
    cfg = tmp_path / "required.cfg"
    for argv, lines in [
        (("construct",), "family = star:n=5"),
        (("transform",), "partition = 3,1"),
        (("search",), "nmin = 3\nnmax = 3"),
        (("verify",), "suite = lemma-lm1"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage error: the following arguments are required: --"), argv
        cfg.write_text(lines + "\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0 and out, (argv, err)
    assert seen == {"lemma-lm1": {}}


def run_cli_process(argv: list[str], **kw) -> subprocess.CompletedProcess:
    """``python -m spexlab.cli`` in a child that imports the same spexlab
    as these tests, installed or not."""
    src = str(Path(spexlab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "spexlab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        **kw,
    )


def test_console_entry_point_smoke():
    proc = run_cli_process(["rho", "--family", "wheel:n=10", "--format", "json"])
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["rho"] - (1 + math.sqrt(10))) <= 1e-9


# ---------------------------------------------------------------------------
# verb x format matrix

EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
MATRIX_RUNS = {
    "construct": ("construct", "--family", "k2hp:t=2,l=4,n=7"),
    "check": ("check", "--family", "wheel:n=7", "--class", "outerplanar", "--forbidden", "B2x3"),
    "rho": ("rho", "--family", "wheel:n=10"),
    "transform": ("transform", "--partition", "4,2,2", "--i", "0", "--j", "1"),
    "transform-successors": ("transform", "--partition", "4,2,2", "--successors"),
    "search": ("search", "--nmin", "4", "--nmax", "6", "--forbidden", "C4"),
    "search-local": (
        "search", "--nmin", "6", "--nmax", "6", "--mode", "local",
        "--start-g6", graph6_encode(path(6)), "--restarts", "2",
    ),
    "verify": ("verify", "--suite", "bouquet-semantics", "--param", "span=1"),
}
# [DERIVED] exit code and SHA-256 of stdout for each run above in each
# format, computed with the CLI whose commands each branched on --format;
# search wall-clock seconds are masked to 0.
MATRIX = {
    ("construct", "json"): (0, "8b68d66a1b1569012a1b1944462e5c9c24976ff427795c27ffe41272839b55c0"),
    ("construct", "csv"): (0, "01365752a701c81aea546bc2dfd46624c8abcf9c8dd23004b989e541b663aeaa"),
    ("construct", "g6"): (0, "8a54bdd7c181fbad28214c5087ac843f12c696a42fb91e94f4c491abf702c73d"),
    ("construct", "text"): (0, "091e10b1cd6254ba62433bc3a1850e9d47cc03bce000858a5c1d78228fa8ca4e"),
    ("check", "json"): (0, "52bf5d6f0f8d82c4cf5a18f9f6d7bfcbe3ce87f9e177c243185755f68cf96da3"),
    ("check", "csv"): (0, "735c837dc08ba677d64fd748105033d0f376169bef0363debbeab9821e63c97a"),
    ("check", "g6"): (1, EMPTY_SHA256),
    ("check", "text"): (0, "dea0a049d4e2abf9604bec115b805ee9df0a032698496bd4bf1d065bfe4a582e"),
    ("rho", "json"): (0, "bbe14e4cf39eda1658614fa70d3bd5d49274e160f641a893c0a0d92d3dac7beb"),
    ("rho", "csv"): (0, "bf7cebe2a53d4466dddcca8af13e3b5dd2bcf468287d3ebe2640f075ad93c03b"),
    ("rho", "g6"): (1, EMPTY_SHA256),
    ("rho", "text"): (0, "98b36729aebfbc739ca69184ddb461676239d487e329f1e7e2c243c405d68835"),
    ("transform", "json"): (0, "a0a251f791326d07014eb9bb631e3cedeca6b04b57838b8d37874abc61a1a7dc"),
    ("transform", "csv"): (0, "8f99a22b576ed801b06d2c5d7edc541648e6513dd8bbc9a7ce288070117b9432"),
    ("transform", "g6"): (1, EMPTY_SHA256),
    ("transform", "text"): (0, "67c7de254f92f9bc4dffde6ddb14e875c8fd44098e2402f899875cc0e4fc04ce"),
    ("transform-successors", "json"): (0, "ea36cd7c00f22c00a1d0aacec6e7bb39f20f8e8b39add05bae576da00f58c920"),
    ("transform-successors", "csv"): (0, "3b6e5d77d7c46e4403f6f3f318d056eebaaabb390e1ef59ad5cddf7d66cc735f"),
    # the one cell that changed: it printed partition lines and exited 0
    ("transform-successors", "g6"): (1, EMPTY_SHA256),
    ("transform-successors", "text"): (0, "75f9d6c67d06b633609a84e3ff7038606b6aa7631ceaa0b8a5c60c54712d2182"),
    ("search", "json"): (0, "87346e56a59c744e6845d28185927edb59e9daa5150f081c137ce5cfc7025670"),
    ("search", "csv"): (0, "7f376512477116490c97761c229034adc488c1af0cb091e75ab58a05396490d7"),
    ("search", "g6"): (0, "e667c99a869b6d1b8c94d4617a581d4fa131bb4822ef7e9e94c5702af4f2ff59"),
    ("search", "text"): (0, "0f3c5b1034efea28c08250bc34d8ae3a22f5f371f17beebb13d595a33d731257"),
    ("search-local", "json"): (0, "15fbfb8dc31a6aa25c09087d488865c3b3eeef808f8acc6884ae788deedb7566"),
    ("search-local", "csv"): (0, "8ace9f57657b8332853f0f8816e6fb9d20717d83eea5a40915e496ed01cfe286"),
    ("search-local", "g6"): (0, "b31fc988a0bed6739241b6257e40ea734bfddcd6a25c22199d82e14054d8726e"),
    ("search-local", "text"): (0, "1b5cab4282d6665af6b7adc46138549dda18d0052ba2c809c6ef8e6a29f15487"),
    ("verify", "json"): (0, "e0edbbeab8d6495e9bd7727774528fd5e8ffbaa93d1925dd5bf91a5ab6538f86"),
    ("verify", "csv"): (0, "7a29f57a9b6e3ab299b2892268c648da7b50a4190343877f4186d1ea9277d9c1"),
    ("verify", "g6"): (1, EMPTY_SHA256),
    ("verify", "text"): (0, "81ce032df022701dc95f66ee324e068e2fe68d56e907e8f60a572161f53a97d0"),
}


@pytest.mark.parametrize("run, fmt", list(MATRIX), ids=[f"{r}-{f}" for r, f in MATRIX])
def test_verb_format_matrix(capsys, run, fmt):
    code, out, _ = run_cli(capsys, *MATRIX_RUNS[run], "--format", fmt)
    if run.startswith("search"):
        out = re.sub(r'"seconds": [0-9.]+', '"seconds": 0', out)
        if fmt == "csv":
            out = re.sub(r",[0-9.]+$", ",0", out, flags=re.M)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == MATRIX[run, fmt]


def test_unsupported_format_is_refused_before_the_verb_runs(tmp_path, capsys, monkeypatch):
    seen = _record_suite_params(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--format", "g6")
    assert (code, out, seen) == (1, "", {})
    assert "--format g6 makes no sense for verify" in err
    cfg = tmp_path / "g6.cfg"
    cfg.write_text("format = g6\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--config", str(cfg))
    assert (code, out, seen) == (1, "", {})
    assert "--format g6 makes no sense for verify" in err


@pytest.mark.parametrize("run", list(MATRIX_RUNS))
def test_handler_forms_are_the_declared_formats(run):
    args = _build_parser().parse_args(list(MATRIX_RUNS[run]))
    _, forms = args.handler(args)
    assert sorted(forms) == sorted(args.formats)
