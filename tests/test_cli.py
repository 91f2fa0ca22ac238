"""CLI exit-code contract, output formats, config layering, JSON schemas."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import networkx as nx
import pytest

import spexlab
from helpers import to_nx
from spexlab.cli import main
from spexlab.graph import complete, join, path
from spexlab.graph6 import graph6_decode, graph6_encode

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
        ("transform", "--partition", "2,x", "--i", "0", "--j", "1"),
        ("search", "--nmin", "4", "--nmax", "20"),  # exhaustive cap
        ("frobnicate",),
        ("rho", "--family", "wheel:n=5", "--no-such-flag",),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.strip(), argv


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


def test_console_entry_point_smoke():
    # The child imports the same spexlab as these tests, installed or not.
    src = str(Path(spexlab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "spexlab.cli", "rho", "--family", "wheel:n=10", "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["rho"] - (1 + math.sqrt(10))) <= 1e-9
