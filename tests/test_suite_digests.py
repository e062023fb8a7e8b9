"""The fusion and Jacobi suites and `check all --quick`, pinned byte for byte.

`check_fusion_suite()` runs the solver, the axiom checkers, the skew and
dual-type operators, mode recovery and the log-weight formulas on the
fixture tables; `check_jacobi()` runs the windowed Jacobi identity;
`check_all(0, quick=True)` runs every suite of `check all` at its `--quick`
sizes.  A refactor of any of them that moves one byte of a report, as text
or as JSON, changes its sha256.  The two suites together take about half a
second, `check_all` about three seconds.
"""

import hashlib

import pytest

from logcalc import checks

DIGESTS = {
    "check_fusion_suite": (
        "567179d58b8acc8d32605f7293fff8644c7c7fc88e5c76e563f113be30cc611f",
        "6c30d50fd317d8628733fb6da325fac569b8386ac31efdc40755a15968282f19",
    ),
    "check_jacobi": (
        "345f082b1df99924126cc81ec6698f135e137cda0f610a358bc829c801bf3513",
        "a896f571c526eb7fe56fe384ab6ab5113c15835ae8fd1e137673d082214ed352",
    ),
}


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_suite_report_digests(suite):
    assert _digests(getattr(checks, suite)()) == DIGESTS[suite]


def test_check_all_quick_digests():
    assert _digests(checks.check_all(0, quick=True)) == (
        "3116f9ca6b7ebc6911c8a39071c18e1f3ff1822afce6e1eddc2b9b6a6a56202d",
        "115ac8e2cc23bdc98f1c2431aab4806b5f9536f086c06f92d26e2b1cfcf12db0",
    )


def _digests(rep) -> tuple[str, str]:
    return tuple(hashlib.sha256(s.encode()).hexdigest() for s in (rep.to_text(), rep.to_json()))
