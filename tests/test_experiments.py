"""Verification-suite harness: registry, result invariants, traceability."""

from __future__ import annotations

import numpy as np
import pytest

from spexlab.experiments import (
    SUITE_NOTES,
    SUITES,
    _run_cases,
    run_suite,
    traceability,
)
from spexlab.spectral import ConvergenceError, SpectralEstimate

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

# fast configurations used to exercise the harness itself
FAST = [
    ("claim-1.1", {"n_values": (10, 25, 50)}),
    ("lemma-lm1", {"cases": 10}),
    ("lemma-lm5", {"cases": 10}),
    ("claim-3.3", {"ls": (5, 6), "total_cap": 12}),
    ("claim-3.5", {"ts": (2,), "ls": (3, 4)}),
    ("claim-4.2", {"ts": (2,), "ls": (3, 4)}),
    ("remark-rk111", {"ns": (8, 20), "ls": (5, 6)}),
    ("bouquet-semantics", {"ts": (2,), "ls": (3, 4), "span": 2}),
    ("thm-1-structure", {"nmax": 5}),
    ("thm-3", {"grid": False, "n_dom": 60, "siblings": 3, "dom_ts": (2,)}),
]


def test_registry_is_complete():
    assert set(SUITES) == EXPECTED_SUITES
    assert set(SUITE_NOTES) == EXPECTED_SUITES


def test_unknown_suite_lists_known_ids():
    with pytest.raises(ValueError, match="bouquet-semantics"):
        run_suite("no-such-suite")


@pytest.mark.parametrize("suite,params", FAST, ids=[s for s, _ in FAST])
def test_fast_suites_pass_and_balance(suite, params):
    r = run_suite(suite, params)
    assert r.suite == suite
    assert r.cases == r.passes + len(r.failures) + len(r.indeterminates)
    assert r.cases > 0
    assert r.ok, r.failures[:2]
    d = r.to_dict()
    assert d["suite"] == suite and d["cases"] == r.cases
    assert isinstance(r.summary(), str) and suite in r.summary()


def test_suites_are_deterministic():
    a = run_suite("lemma-lm5", {"cases": 8}).to_dict()
    b = run_suite("lemma-lm5", {"cases": 8}).to_dict()
    assert a == b
    c = run_suite("lemma-lm5", {"cases": 8}, threads=4).to_dict()
    assert a == c


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
        assert row["check"] == SUITE_NOTES[r.suite]
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
