"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; each
criterion asserts exactness and, where stated, a wall-clock budget.
"""

import time

from immaculate import verify


def _run(number, label, check_fn, budget=None, **kwargs):
    start = time.perf_counter()
    report = check_fn(**kwargs)
    elapsed = time.perf_counter() - start
    status = "PASS" if report["pass"] else "FAIL"
    print(f"criterion {number:>2} ({label}): {status} [{elapsed:.2f}s]")
    assert report["pass"], f"criterion {number}: {report['detail']}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
        )


def test_criterion_01_golden_expansions():
    _run(1, "golden expansions", verify.check_golden, budget=1.0)


def test_criterion_02_procedure_replay():
    _run(2, "procedure replay", verify.check_replay)


def test_criterion_03_terminal_cell_bijection():
    _run(3, "terminal-cell bijection", verify.check_bijection, budget=5.0)


def test_criterion_04_oracle_equivalence():
    _run(4, "oracle equivalence", verify.check_oracle, budget=60.0, max_n=7)


def test_criterion_05_skew_oracle_equivalence():
    _run(5, "skew oracle equivalence", verify.check_skew_oracle,
         budget=30.0)


def test_criterion_06_covering_census():
    _run(6, "covering census", verify.check_census)


def test_criterion_07_sign_length_subscript():
    _run(7, "sign/length/subscript invariants", verify.check_signs)


def test_criterion_08_ribbon_class_identities():
    _run(8, "ribbon class identities", verify.check_ribbon, budget=60.0,
         max_n=8)


def test_criterion_09_conversion_roundtrips():
    _run(9, "conversion roundtrips", verify.check_roundtrips, max_n=7)


def test_criterion_10_duality():
    _run(10, "duality transpose", verify.check_duality,
         budget=120.0, max_n=6)


def test_criterion_11_forgetful_bridge():
    _run(11, "forgetful bridge", verify.check_forgetful, max_n=6)


def test_criterion_12_diagram_invariants():
    _run(12, "diagram invariants", verify.check_diagram_invariants)
