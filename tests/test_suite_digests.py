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
        "b937ab28bff135748ac76aac3c6ea602e0e86ecb419786e26d117211080b0660",
        "c4750d0503842772f190d007cc77fc12af069759a5237426cf9f935aa0e0b0a1",
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
        "0e1dc34d3fe56638adcbca3f422d0eecadd8f878ef268a7f027408eb57f4e6dd",
        "03ab65dcbb0854262b82284b2731b155831f59171f2b3d13bb1d2f12b6fd4f58",
    )


def _digests(rep) -> tuple[str, str]:
    return tuple(hashlib.sha256(s.encode()).hexdigest() for s in (rep.to_text(), rep.to_json()))
