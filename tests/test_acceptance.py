"""Acceptance suite: every criterion at its stated size and runtime bound.

All equality assertions are exact (zero tolerance); the only numeric bounds
are wall-clock limits.  Each criterion prints one pass/fail line.
"""

import hashlib
import subprocess
import sys
import time

import pytest

from logcalc import catalog, checks
from logcalc.intertwiner import (
    IntertwinerTable,
    a_r,
    axiom_check,
    jacobi_check_window,
    omega_r,
    recover_modes,
    shift_s1s2s3,
    solve_fusion_space,
    subst_table_scaled,
    weight_formulas_check,
    x_t,
)
from logcalc.scalars import pi_scalar


def _criterion(name: str, passed: bool, elapsed: float | None = None) -> None:
    status = "PASS" if passed else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"acceptance {name}: {status}{timing}")
    assert passed, name


def test_criterion_01_taylor_theorem():
    t0 = time.time()
    rep = checks.check_taylor(samples=200, order=8, seed=0)
    elapsed = time.time() - t0
    _criterion("01-taylor-shift-200x8", rep.passed and elapsed < 30, elapsed)


def test_criterion_02_scaling_theorem():
    t0 = time.time()
    rep = checks.check_scaling(samples=200, order=8, seed=0)
    elapsed = time.time() - t0
    _criterion("02-scaling-200x8", rep.passed and elapsed < 30, elapsed)


def test_criterion_03_comb_identity():
    t0 = time.time()
    rep = checks.check_comb(kmax=10)
    elapsed = time.time() - t0
    count = len(rep.checks)
    _criterion("03-word-expansion-66-cases", rep.passed and count == 66 and elapsed < 5, elapsed)


def test_criterion_04_lubell_identity():
    t0 = time.time()
    rep = checks.check_lubell(nmax=6, jmax=4)
    elapsed = time.time() - t0
    _criterion("04-bounded-sum-vs-distinct", rep.passed and elapsed < 10, elapsed)


def test_criterion_05_ode_structure():
    rep = checks.check_ode(samples=100, seed=0)
    _criterion("05-euler-ode-100-samples", rep.passed)


@pytest.fixture(scope="module")
def jordan_tables():
    return checks.jordan_fixture_tables()


def test_criterion_06_mode_recovery(jordan_tables):
    depths = sorted({t.max_log_power() + 1 for t in jordan_tables})
    ok = depths == [2, 3]
    # include a depth-1 (log-free) table as well
    w1 = catalog.trivial_module("W1")
    w2 = catalog.trivial_module("W2")
    w3 = catalog.jordan_module("W3", 0, size=1)
    tables = [solve_fusion_space(w1, w2, w3, constraints=("euler",))[0], *jordan_tables]
    for t in tables:
        for i in range(t.w1.dim):
            for j in range(t.w2.dim):
                for n in t.exponents():
                    rec = recover_modes(t, i, j, n)  # raises if x / lg x fail to cancel
                    for r, vec in enumerate(rec):
                        ok = ok and vec == t.mode(i, j, n, r)
    _criterion("06-mode-recovery-K123", ok)


def test_criterion_07_omega_and_dual_involutions(jordan_tables):
    ok = len(jordan_tables) == 3 and all(t.w3.dim <= 4 for t in jordan_tables)
    for t in jordan_tables:
        for r in (-2, -1, 0, 1):
            ok = ok and omega_r(omega_r(t, r), -r - 1) == t
            ok = ok and a_r(a_r(t, r), -r - 1) == t
        for r in (-2, -1, 0, 1):
            for s in (-2, -1, 0, 1):
                ok = ok and omega_r(omega_r(t, r), s) == subst_table_scaled(t, pi_scalar(2 * (r + s + 1)))
                ok = ok and a_r(a_r(t, r), s) == shift_s1s2s3(t, 0, r + s + 1, 0)
    _criterion("07-skew-and-dual-involutions", ok)


def test_criterion_08_weight_formulas(jordan_tables):
    ok = True
    for t in jordan_tables:
        rep = weight_formulas_check(t, "all")
        ok = ok and rep.passed
    _criterion("08-log-weight-formulas", ok)


def test_criterion_09_vandermonde_route(jordan_tables):
    t = max(jordan_tables, key=lambda tt: tt.max_log_power())
    routes = checks.xt_by_vandermonde(t, 4)
    ok = len(routes) == 5 and all(xt == x_t(t, tt) for tt, xt in enumerate(routes))
    _criterion("09-vandermonde-route-S4", ok)


def test_criterion_10_sl2_conjugation():
    rep = checks.check_sl2(count=5, seed=0, order=10)
    _criterion("10-sl2-conjugation-5-modules", rep.passed)


def test_criterion_11_windowed_jacobi():
    rep = checks.check_jacobi()
    _criterion("11-windowed-jacobi", rep.passed)


def test_criterion_12_cli_roundtrips(tmp_path):
    # `check all --seed 0` runs check_roundtrip_fuzz(10000, 0) and check_file_roundtrip(0):
    # their rows are in the stdout that the digest pins
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "logcalc.cli", "check", "all", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.time() - t0
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    ok = proc.returncode == 0 and digest == "8615f7dc209c8800ebb4a6ce7d9fb5f06a76e017d4f3bb2b81f48a2af8b120be"
    _criterion("12-cli-roundtrips-and-check-all", ok, elapsed)
