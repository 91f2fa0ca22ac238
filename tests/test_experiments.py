"""Verification-suite harness: registry, result invariants, traceability."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from spexlab.constructions import FamilySpec, PathPartition, construct, family_partition
from spexlab.experiments import (
    BOX_EPS,
    SUITES,
    _run_cases,
    _shu_case,
    eigenvector_box,
    run_suite,
    traceability,
)
from spexlab.graph import complete, cycle, disjoint_union, join, path
from spexlab.spectral import (
    ConvergenceError,
    SpectralEstimate,
    joined_paths_radius,
    spectral_radius,
)

EXPECTED_SUITES = {
    "claim-1.1",
    "lemma-lm2",
    "lemma-lm1",
    "lemma-lm5",
    "claim-3.1",
    "lemma-lm4",
    "claim-3.2",
    "claim-3.3",
    "claim-3.5",
    "claim-4.2",
    "claim-4.3",
    "thm-1-structure",
    "thm-2",
    "thm-3",
    "thm-4",
    "remark-rk111",
    "bouquet-semantics",
}

# fast configurations used to exercise the harness itself, each with the
# SHA-256 of its sorted-key to_dict() JSON (these suites record no floats
# when every case passes, so the digests do not depend on the solver)
FAST = [
    ("claim-1.1", {"n_values": (10, 25, 50)},
     "0d5ac93f86187ccd91aa6c5640a88f12fbe08d0ab2ff66fb2912d9d4e60c97a9"),
    ("lemma-lm1", {"cases": 10},
     "cb1e01299823ddbadb6cf2385fad10000dbbdc48ceb1afaf61ae97a38f50a21f"),
    ("lemma-lm5", {"cases": 10},
     "3b70677004ed5191d0d4f5c6d2eefcbc03ca1a19922776dec35d6a6895a2810f"),
    ("claim-3.3", {"ls": (5, 6), "total_cap": 12},
     "d33a0281da6037ac0dcc4cb24b7b9f16a2499d5801b4f6ee1ce73e96ec5b3d01"),
    ("claim-3.5", {"ts": (2,), "ls": (3, 4)},
     "e63fc4bd2b0f0f8c38a8616a4502b42f5d952137a71efafe84e93472f33c17d7"),
    ("claim-4.2", {"ts": (2,), "ls": (3, 4)},
     "16b47a5aebf34d8ce50f27a6eeb0e5e9dfb2317d37072facbac2f0aafdf6bdf9"),
    ("remark-rk111", {"n_values": (8, 20), "ls": (5, 6)},
     "50dbb681b6c377aaf2361a349e1848ed495b10c2900d3e26296bed635579f7e2"),
    ("bouquet-semantics", {"ts": (2,), "ls": (3, 4), "span": 2},
     "645fc2b6ddba8b2d896cebe587feb75ee9ae6915904b304d8ad3d9039c534fbc"),
    ("thm-1-structure", {"nmax": 5},
     "59920bffad42535b97936f8e4f76135e3d78a3003b1b79cbacefd8a213691809"),
    ("thm-3", {"grid": False, "n_dom": 60, "siblings": 3, "dom_ts": (2,)},
     "7f518243ba11e8bda47febe8a85821b0e41d899cc77a8dcb9f39bf51524440db"),
]


def test_registry_is_complete():
    assert set(SUITES) == EXPECTED_SUITES
    assert all(s.note and s.keys for s in SUITES.values())


def test_unknown_suite_lists_known_ids():
    with pytest.raises(ValueError, match="bouquet-semantics"):
        run_suite("no-such-suite")


def test_misspelt_parameter_is_rejected_with_the_accepted_keys():
    with pytest.raises(ValueError, match="case.*accepted: cases, margin, s2_max"):
        run_suite("lemma-lm5", {"case": 3})
    with pytest.raises(ValueError, match="ns.*accepted: ls, n_values"):
        run_suite("remark-rk111", {"ns": (8,)})
    # a bound builder argument is not a parameter
    with pytest.raises(ValueError, match="theorem"):
        run_suite("thm-2", {"theorem": "thm-4"})


@pytest.mark.parametrize("suite,params,digest", FAST, ids=[s for s, _, _ in FAST])
def test_fast_suites_pass_and_balance(suite, params, digest):
    r = run_suite(suite, params)
    assert r.suite == suite
    assert r.cases == r.passes + len(r.failures) + len(r.indeterminates)
    assert r.cases > 0
    assert r.ok, r.failures[:2]
    d = r.to_dict()
    assert d["suite"] == suite and d["cases"] == r.cases
    assert isinstance(r.summary(), str) and suite in r.summary()
    assert hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest() == digest


def test_suites_are_deterministic():
    a = run_suite("lemma-lm5", {"cases": 8}).to_dict()
    b = run_suite("lemma-lm5", {"cases": 8}).to_dict()
    assert a == b


def test_one_value_for_a_tuple_parameter_is_a_one_tuple():
    one = run_suite("claim-3.5", {"ls": 4}).to_dict()
    assert one == run_suite("claim-3.5", {"ls": (4,)}).to_dict()
    assert one["cases"] == 8
    with pytest.raises(ValueError, match=r"bad parameter value ts=\(2\.5,\)"):
        run_suite("claim-4.3", {"ts": 2.5})


def test_failure_entries_carry_repro_data():
    # an impossibly tight margin forces no failures; shrink the sample and
    # use the structure-report suite to check the entry schema instead
    r = run_suite("thm-1-structure", {"nmax": 5})
    assert r.cases and not r.failures
    assert r.details["agreement"]


def test_traceability_outputs():
    results = [
        run_suite("claim-3.5", {"ts": (2,), "ls": (3,)}),
        run_suite("lemma-lm5", {"cases": 5}),
    ]
    table, payload = traceability(results)
    assert table.splitlines()[0].startswith("| suite |")
    assert "claim-3.5" in table and "lemma-lm5" in table
    for r in results:
        row = payload[r.suite]
        assert row["check"] == SUITES[r.suite].note
        assert row["verdict"] in ("PASS", "FAIL", "PASS (with indeterminates)")
        assert row["cases"] == r.cases


def test_params_shape_the_run():
    small = run_suite("claim-1.1", {"n_values": (10,)})
    large = run_suite("claim-1.1", {"n_values": (10, 25, 50)})
    assert small.cases < large.cases


def test_unconverged_case_is_indeterminate():
    best = SpectralEstimate(2.0, 1e-12, 5, np.ones(1), np.ones(1))

    def unconverged():
        raise ConvergenceError("quotient residual 1e-12 above tol 1e-13", best)

    r = _run_cases(
        "synthetic",
        [("ok", lambda: ("pass", {})), ("stuck", unconverged)],
    )
    assert (r.cases, r.passes, r.failures) == (2, 1, [])
    assert r.indeterminates == [
        {"case": "stuck", "error": "quotient residual 1e-12 above tol 1e-13"}
    ]
    assert r.ok


def test_other_case_errors_propagate():
    def broken():
        raise ZeroDivisionError("bug")

    with pytest.raises(ZeroDivisionError):
        _run_cases("synthetic", [("broken", broken)])


# the paper's bounds and boxes, checked where the suites run them


def test_lemma_lm2_case_and_its_preconditions():
    verdict, info = _shu_case("fan", {"n": 10}, lambda: join(complete(1), path(9)))[1]()
    assert verdict == "pass" and info["rho"] <= info["bound"] + 1e-12
    for g, message in [
        (join(complete(1), cycle(9)), "must be outerplanar"),  # the wheel
        (disjoint_union([path(3), path(3)]), "must be connected"),
        (path(2), "needs n >= 3"),
    ]:
        with pytest.raises(ValueError, match=message):
            _shu_case("bad", {}, lambda g=g: g)[1]()
    r = run_suite("lemma-lm2", {"nmax": 5, "family_ns": (20,)})
    assert r.cases == r.passes > 0


def test_claim_1_1_witness_matches_built_graph():
    g = construct(FamilySpec("claimw", 20, t=4))
    assert g.n == 20 and g.degree(0) == 19
    assert g.edge_count() == 19 + 3
    for name, fn in SUITES["claim-1.1"].build(n_values=(10, 50, 200)):
        verdict, info = fn()
        assert verdict == "pass", name
        # the quotient rho agrees with power iteration on the built witness
        spec = FamilySpec("claimw", info["n"], t=info["t"])
        quo = joined_paths_radius(1, family_partition(spec))
        est = spectral_radius(construct(spec))
        assert info["rho"] == quo.rho
        assert abs(quo.rho - est.rho) <= quo.residual + est.residual
    with pytest.raises(ValueError, match="bound needs n > 5"):
        run_suite("claim-1.1", {"n_values": (5,)})


def test_eigenvector_box_regimes():
    # hub2 box is valid once rho is moderately large
    worst, _ = eigenvector_box(2, family_partition(FamilySpec("k2hp", 600, t=3, l=5)))
    assert worst <= BOX_EPS
    # hub1 box needs rho >= 102, far beyond n=600: an honest failure
    worst, rho = eigenvector_box(1, family_partition(FamilySpec("k1hop", 600, t=3, l=5)))
    assert worst > BOX_EPS and rho < 102.0


def test_eigenvector_box_validation():
    # a PathPartition is always a union of paths; only the hub count can
    # name no family
    with pytest.raises(ValueError, match="hubs must be 1 or 2"):
        eigenvector_box(3, PathPartition([5]))
