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
        "b61adac72a552c6e1dfcf20d2cfaddcfaa79f193868f8496e46999808236fbdd",
        "782c032573f03bd02a996ac910979d8eccf3e25d61a5e7d2634b68f0464c3288",
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
        "4e68ec99c86c9ea2ce80c141f8bf3f2a3cca84ee2c14961c076d9c408ebdcd85",
        "e559d8e280104efdeb990a7eb62b390c48c9c729046cf8431cd7f4f2895f30d6",
    )


def _digests(rep) -> tuple[str, str]:
    return tuple(hashlib.sha256(s.encode()).hexdigest() for s in (rep.to_text(), rep.to_json()))
