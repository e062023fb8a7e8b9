"""The log-weight formulas against the nested loops they replaced.

The reference below rebuilds (L(0)-h)^p e_i by repeated matrix products
inside each triple loop, checks the generating-function identity on its own
series, and expands e^(y L(+-1)) term by term.  Its ``t00`` rows visit each
mode key once.  Every report (row ids, verdicts, witnesses), every recovered
mode and every derived table must agree with the library, on solved tables
and on tables with a planted mode.  One difference is allowed: where the
reference's ``gen`` raises "exponential does not terminate", the library
reports a failing row with a witness.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from logcalc import catalog, intertwiner
from logcalc.checks import honest_fixture_table, jordan_fixture_tables
from logcalc.intertwiner import (
    IntertwinerTable,
    RecoveryFailure,
    _p3_rhs,
    _witness,
    a_r,
    axiom_check,
    conj_formulas_check,
    omega_r,
    recover_modes,
    solve_fusion_space,
    weight_formulas_check,
)
from logcalc.matrix import ExactMatrix
from logcalc.mobius import contragredient, e_aL0, exp_nilpotent_terms, pairing_value, x_pm_L0
from logcalc.reports import Report
from logcalc.scalars import ExactScalar, Exponent
from logcalc.series import SCALAR, CoeffVector, LogSeries, Monomial
from logcalc.substitution import subst_scaled_exp, subst_x_inverse, subst_x_plus_y
from series_tables import table_from_series

# ---------------------------------------------------------------------------
# reference: one matrix power per term


def _l0_shift_power(mod, shift, power):
    m = mod.L(0) - ExactMatrix.identity(mod.dim).scale(shift)
    out = ExactMatrix.identity(mod.dim)
    for _ in range(power):
        out = out @ m
    return out


def _series_apply_operator(t, f, shift, power):
    mat = _l0_shift_power(t.w3, shift, power)
    return f.map_coeffs(lambda vec: t.w3.apply_matrix(mat, vec))


def _nilpotency_on(mod, shift, vec):
    return len(exp_nilpotent_terms(mod, _l0_shift_power(mod, shift.as_scalar(), 1), vec))


def _exp_poly(mod, mat, f, y):
    out = LogSeries.zero(mod.coeff_space)
    for mono, vec in f.items():
        for p, term in enumerate(exp_nilpotent_terms(mod, mat, vec)):
            out = out + LogSeries.vector(term, mono * Monomial.var(y, p))
    return out


def _keys(t):
    return dict.fromkeys([*t.modes, *((i, j, n, 0) for (i, j, n, _k) in t.modes)])


def ref_weight_formulas_check(t, which="all", var="x"):
    rep = Report(f"weight-formulas{t.type_signature()}:{which}")
    if not intertwiner.euler_precondition(t):
        rep.add("euler-precondition", False, "table satisfies neither the axiom pair nor the Euler identity")
        return rep
    rep.add("euler-precondition", True)
    kinds = ("ty", "t00", "gen", "rt", "bound", "pairing_poly") if which == "all" else (which,)
    k1 = t.w1.nilpotency_index()
    k2 = t.w2.nilpotency_index()
    k3 = t.w3.nilpotency_index()
    t_bound = k1 + k2 + k3
    for kind in kinds:
        if kind == "ty":
            _ref_ty(rep, t, t_bound, var)
        elif kind == "t00":
            _ref_t00(rep, t, t_bound)
        elif kind == "gen":
            _ref_gen(rep, t)
        elif kind == "rt":
            _ref_rt(rep, t, t_bound)
        elif kind == "bound":
            _ref_bounds(rep, t, k1, k2, k3)
        elif kind == "pairing_poly":
            _ref_pairing_poly(rep, t, var)
        else:
            raise ValueError(f"unknown weight formula {kind!r}")
    return rep


def _ref_ty(rep, t, t_bound, var):
    samples = [Exponent(0), Exponent(Fraction(1, 2)), Exponent(-1)]
    for i in range(t.w1.dim):
        for j in range(t.w2.dim):
            a = t.w1.weights[i]
            b = t.w2.weights[j]
            s = t.series(i, j)
            for c in samples:
                for tt in range(t_bound + 1):
                    lhs = _series_apply_operator(t, s, c.as_scalar(), tt)
                    rhs = LogSeries.zero(t.w3.coeff_space)
                    shift = (-c + a + b).as_scalar()
                    for ii in range(tt + 1):
                        for jj in range(tt + 1 - ii):
                            ll = tt - ii - jj
                            coeff = Fraction(
                                math.factorial(tt),
                                math.factorial(ii) * math.factorial(jj) * math.factorial(ll),
                            )
                            arg1 = t.w1.apply_matrix(_l0_shift_power(t.w1, a.as_scalar(), ii), t.w1.basis_vector(i))
                            arg2 = t.w2.apply_matrix(_l0_shift_power(t.w2, b.as_scalar(), jj), t.w2.basis_vector(j))
                            inner = t.series_args(arg1, arg2)
                            for _ in range(ll):
                                inner = (LogSeries.variable(var) * inner.d_dx(var)) + inner.scale(shift)
                            rhs = rhs + inner.scale(coeff)
                    ok = (lhs - rhs).is_zero()
                    rep.add(f"l0-power-expansion(t={tt},c={c!r};{i},{j})", ok, _witness(lhs - rhs))
                    if not ok:
                        return


def _ref_t00(rep, t, t_bound):
    for (i, j, n, k) in _keys(t):
        a = t.w1.weights[i]
        b = t.w2.weights[j]
        shift = (a + b - n - 1).as_scalar()
        base = t.mode(i, j, n, k)
        for tt in range(t_bound + 1):
            lhs = t.w3.apply_matrix(_l0_shift_power(t.w3, shift, tt), base)
            rhs = CoeffVector.zero(t.w3.coeff_space)
            for ii in range(tt + 1):
                for jj in range(tt + 1 - ii):
                    ll = tt - ii - jj
                    arg1 = t.w1.apply_matrix(_l0_shift_power(t.w1, a.as_scalar(), ii), t.w1.basis_vector(i)).scale(
                        Fraction(1, math.factorial(ii))
                    )
                    arg2 = t.w2.apply_matrix(_l0_shift_power(t.w2, b.as_scalar(), jj), t.w2.basis_vector(j)).scale(
                        Fraction(1, math.factorial(jj))
                    )
                    mode = t.mode_map(arg1, arg2).get((n, k + ll))
                    if mode is not None:
                        rhs = rhs + mode.scale(Fraction(math.factorial(tt) * math.comb(k + ll, ll)))
            ok = lhs == rhs
            rep.add(f"mode-l0-power(t={tt};{i},{j},{n!r},{k})", ok, None if ok else f"{lhs!r} != {rhs!r}")
            if not ok:
                return


def _ref_gen(rep, t, yvar="y"):
    for (i, j, n, k) in t.modes:
        a = t.w1.weights[i]
        b = t.w2.weights[j]
        shift = (a + b - n - 1).as_scalar()
        base = t.mode(i, j, n, k)
        lhs = _exp_poly(t.w3, _l0_shift_power(t.w3, shift, 1), LogSeries.vector(base), yvar)
        rhs = LogSeries.zero(t.w3.coeff_space)
        e1 = _exp_poly(t.w1, _l0_shift_power(t.w1, a.as_scalar(), 1), LogSeries.vector(t.w1.basis_vector(i)), yvar)
        e2 = _exp_poly(t.w2, _l0_shift_power(t.w2, b.as_scalar(), 1), LogSeries.vector(t.w2.basis_vector(j)), yvar)
        for m1, vec1 in e1.items():
            for m2, vec2 in e2.items():
                for ll in range(t.max_log_power() - k + 2):
                    mode = t.mode_map(vec1, vec2).get((n, k + ll))
                    if mode is not None:
                        rhs = rhs + LogSeries.vector(
                            mode.scale(math.comb(k + ll, ll)),
                            m1 * m2 * Monomial.var(yvar, ll),
                        )
        ok = (lhs - rhs).is_zero()
        rep.add(f"mode-exp-generating({i},{j},{n!r},{k})", ok, _witness(lhs - rhs))
        if not ok:
            return


def _ref_rt(rep, t, t_bound):
    for (i, j, n, k) in _keys(t):
        a = t.w1.weights[i]
        b = t.w2.weights[j]
        shift = (a + b - n - 1).as_scalar()
        for tt in range(t_bound + 1):
            lhs = t.mode(i, j, n, k + tt).scale(math.comb(k + tt, tt))
            rhs = CoeffVector.zero(t.w3.coeff_space)
            for ii in range(tt + 1):
                for jj in range(tt + 1 - ii):
                    ll = tt - ii - jj
                    arg1 = t.w1.apply_matrix(_l0_shift_power(t.w1, a.as_scalar(), ii), t.w1.basis_vector(i))
                    arg2 = t.w2.apply_matrix(_l0_shift_power(t.w2, b.as_scalar(), jj), t.w2.basis_vector(j))
                    mode = t.mode_map(arg1, arg2).get((n, k))
                    if mode is None:
                        continue
                    mode = t.w3.apply_matrix(_l0_shift_power(t.w3, shift, ll), mode)
                    coeff = Fraction((-1) ** (ii + jj), math.factorial(ii) * math.factorial(jj) * math.factorial(ll))
                    rhs = rhs + mode.scale(coeff)
            ok = lhs == rhs
            rep.add(f"mode-shift-combination(t={tt};{i},{j},{n!r},{k})", ok, None if ok else f"{lhs!r} != {rhs!r}")
            if not ok:
                return


def _ref_bounds(rep, t, k1, k2, k3):
    global_bound = k1 + k2 + k3 - 3
    bad = [key for key in t.modes if key[3] > max(global_bound, 0)]
    rep.add(
        "global-log-power-bound",
        not bad,
        None if not bad else f"modes above lg-power {global_bound}: {bad[:3]}",
    )
    ok = True
    witness = None
    for i in range(t.w1.dim):
        for j in range(t.w2.dim):
            for n in dict.fromkeys(key[2] for key in t.modes if key[0] == i and key[1] == j):
                shift = t.w1.weights[i] + t.w2.weights[j] - n - 1
                m_max = 0
                for ii in range(k1):
                    for jj in range(k2):
                        arg1 = t.w1.apply_matrix(_l0_shift_power(t.w1, t.w1.weights[i].as_scalar(), ii), t.w1.basis_vector(i))
                        arg2 = t.w2.apply_matrix(_l0_shift_power(t.w2, t.w2.weights[j].as_scalar(), jj), t.w2.basis_vector(j))
                        for k in range(t.max_log_power() + 1):
                            mode = t.mode_map(arg1, arg2).get((n, k))
                            if mode is not None and not mode.is_zero():
                                m_max = max(m_max, _nilpotency_on(t.w3, shift, mode))
                bound = m_max + k1 + k2 - 2
                for k in range(max(bound, 0), t.max_log_power() + 2):
                    if not t.mode(i, j, n, k).is_zero():
                        ok = False
                        witness = f"mode({i},{j},{n!r},{k}) nonzero above lg-power {bound - 1}"
    rep.add("per-pair-vanishing-bound", ok, witness)


def _ref_pairing_poly(rep, t, var):
    dual = contragredient(t.w3)
    k1 = t.w1.nilpotency_index()
    k2 = t.w2.nilpotency_index()
    for i in range(t.w1.dim):
        for j in range(t.w2.dim):
            s = t.series(i, j)
            for m in range(t.w3.dim):
                wprime = dual.basis_vector(m)
                n3 = dual.weights[m]
                k3 = _nilpotency_on(dual, n3, wprime)
                pair = LogSeries.zero(SCALAR)
                for mono, vec in s.items():
                    c = pairing_value(wprime, vec)
                    if not c.is_zero():
                        pair = pair + LogSeries.monomial(mono, c)
                want_exp = n3 - t.w1.weights[i] - t.w2.weights[j]
                bound = k1 + k2 + k3 - 3
                ok = True
                witness = None
                for mono, _vec in pair.items():
                    if mono.exponent(var) != want_exp or mono.log_power(var) > max(bound, 0):
                        ok = False
                        witness = f"<w'_{m}, Y(e_{i},x)e_{j}> has term {mono!r} outside the span"
                rep.add(f"pairing-span({i},{j};{m})", ok, witness)


def ref_recover_modes(t, i, j, n, var="x"):
    n = Exponent.coerce(n)
    ks = [k for (ii, jj, nn, k) in t.modes if ii == i and jj == j and nn == n]
    bigk = (max(ks) + 1) if ks else 1
    a = t.w1.weights[i]
    b = t.w2.weights[j]
    mu = a + b - n - 1
    shift = (a + b - n - 1).as_scalar()

    def pi_t(tt):
        acc = LogSeries.zero(t.w3.coeff_space)
        for ii in range(tt + 1):
            for jj in range(tt + 1 - ii):
                ll = tt - ii - jj
                arg1 = t.w1.apply_matrix(_l0_shift_power(t.w1, a.as_scalar(), ii), t.w1.basis_vector(i))
                arg2 = t.w2.apply_matrix(_l0_shift_power(t.w2, b.as_scalar(), jj), t.w2.basis_vector(j))
                series = t.series_args(arg1, arg2)
                series = _series_apply_operator(t, series, shift, ll)
                series = series.map_coeffs(lambda vec: t.w3.weight_projection(vec, mu))
                coeff = Fraction((-1) ** (ii + jj), math.factorial(ii) * math.factorial(jj) * math.factorial(ll))
                acc = acc + series.scale(coeff)
        return acc

    pis = [pi_t(tt) for tt in range(bigk)]
    out = []
    for r in range(bigk):
        expr = LogSeries.zero(t.w3.coeff_space)
        for tt in range(r, bigk):
            coeff = Fraction((-1) ** (r + tt) * math.comb(tt, r))
            expr = expr + (LogSeries.monomial(Monomial.var(var, n + 1, tt - r), coeff) * pis[tt])
        leftover = [m for m in expr.terms if m != Monomial.UNIT]
        if leftover:
            raise RecoveryFailure(f"recovery expression failed to collapse: residual monomials {leftover[:3]}")
        out.append(expr.coeff(Monomial.UNIT))
    return out


def ref_omega_r(t, r, var="x"):
    zeta = ExactScalar.pi_power(1, 2 * r + 1)

    def fn(j, i):
        return _exp_poly(t.w3, t.w3.L(-1), subst_scaled_exp(t.series(i, j), var, zeta), var)

    return table_from_series(t.w2, t.w1, t.w3, fn)


def ref_a_r(t, r, var="x"):
    grading = axiom_check(t, "grading")
    if not grading.passed:
        raise ValueError("a_r needs a grading-compatible table: " + grading.to_text())
    w2p = contragredient(t.w2)
    w3p = contragredient(t.w3)
    a_scalar = ExactScalar.pi_power(1, 2 * r + 1)

    def dressed_arg(i):
        s = LogSeries.vector(t.w1.basis_vector(i))
        for _ in range(2):
            s = s.apply_op(lambda vec: x_pm_L0(t.w1, vec, -1, var), t.w1.coeff_space)
        s = s.map_coeffs(lambda vec: e_aL0(t.w1, vec, a_scalar))
        return _exp_poly(t.w1, t.w1.L(1), s, var)

    def fn(i, jp):
        arg = dressed_arg(i)
        out = LogSeries.zero(w2p.coeff_space)
        for mono, w1vec in arg.items():
            for m in range(t.w2.dim):
                inner = subst_x_inverse(t.series_args(w1vec, t.w2.basis_vector(m)), var)
                scalar_part = LogSeries.zero(SCALAR)
                for mono2, vec3 in inner.items():
                    c = vec3.components.get(jp)
                    if c is not None:
                        scalar_part = scalar_part + LogSeries.monomial(mono2, c)
                if not scalar_part.is_zero():
                    out = out + scalar_part * LogSeries.vector(CoeffVector.basis(w2p.coeff_space, m), mono)
        return out

    return table_from_series(t.w1, w3p, w2p, fn)


def ref_conj_formulas_check(t, which, order=None):
    """The ``p1`` and ``p3`` rows, the two that expand e^(y L(+-1))."""
    rep = Report(f"conjugation-formulas{t.type_signature()}:{which}")
    var, y = "x", "y"
    w3 = t.w3.coeff_space
    for i in range(t.w1.dim):
        for j in range(t.w2.dim):
            w1v = t.w1.basis_vector(i)
            w2v = t.w2.basis_vector(j)
            if which == "p1":
                inner = _exp_poly(t.w2, -t.w2.L(-1), LogSeries.vector(w2v), y)
                mid = inner.apply_op(lambda vec: t.series_args(w1v, vec), w3)
                lhs = _exp_poly(t.w3, t.w3.L(-1), mid, y)
                arg = _exp_poly(t.w1, t.w1.L(-1), LogSeries.vector(w1v), y)
                mid2 = arg.apply_op(lambda vec: t.series_args(vec, w2v), w3)
                rep.add(f"translate-conjugation({i},{j})", (lhs - mid2).is_zero(), _witness(lhs - mid2))
                if order is not None:
                    rhs = subst_x_plus_y(t.series_args(w1v, w2v), var, y, order)
                    diff = rhs - mid2.with_trunc({y: order})
                    rep.add(f"translate-substitution({i},{j})", diff.is_zero(), _witness(diff))
            else:
                inner = _exp_poly(t.w2, -t.w2.L(1), LogSeries.vector(w2v), y)
                mid = inner.apply_op(lambda vec: t.series_args(w1v, vec), w3)
                lhs = _exp_poly(t.w3, t.w3.L(1), mid, y).with_trunc({y: order})
                diff = lhs - _p3_rhs(t, w1v, w2v, var, y, order)
                rep.add(f"special-conjugation({i},{j})", diff.is_zero(), _witness(diff))
    return rep


# ---------------------------------------------------------------------------
# inputs

KINDS = ("ty", "t00", "gen", "rt", "bound", "pairing_poly")
NONTERMINATING = "exponential does not terminate"

# Jordan triples (w1, w2, w3) as (weight, size, blocks) each: 42 solved tables
TRIPLES = [
    ((0, 1, 1), (0, 2, 1), (0, 3, 1)),
    ((0, 1, 1), (0, 1, 1), (0, 4, 1)),
    ((0, 1, 1), (0, 2, 1), (0, 2, 2)),
    ((0, 2, 1), (0, 1, 1), (0, 2, 2)),
    ((0, 1, 2), (0, 1, 1), (0, 2, 2)),
    ((0, 1, 2), (Fraction(1, 2), 1, 1), (Fraction(1, 2), 2, 2)),
]


def _solved_tables():
    out = []
    for specs in TRIPLES:
        mods = [catalog.jordan_module(f"W{m}", w, size=s, blocks=b) for m, (w, s, b) in enumerate(specs, 1)]
        out += solve_fusion_space(*mods, constraints=("euler",))
    return out


@pytest.fixture(scope="module")
def tables():
    fixtures = jordan_fixture_tables() + [honest_fixture_table()]
    return fixtures, _solved_tables()


def _rows(rep):
    return rep.suite, [(c.check_id, c.passed, c.witness) for c in rep.checks]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, AssertionError) as e:
        return type(e).__name__, str(e)


def _planted(rng, t):
    """t with one mode replaced or added: a random W3 vector of small integer
    components at an existing key, at a new log power, or at a new pair."""
    modes = dict(t.modes)
    keys = list(modes)
    i, j, n, k = rng.choice(keys)
    where = rng.randrange(3)
    if where == 1:
        k = t.max_log_power() + rng.randint(1, 2)
    elif where == 2:
        i, j = rng.randrange(t.w1.dim), rng.randrange(t.w2.dim)
    comps = {b: rng.choice((-2, -1, 1, 1, 2)) for b in rng.sample(range(t.w3.dim), rng.randint(1, min(2, t.w3.dim)))}
    modes[(i, j, n, k)] = CoeffVector(t.w3.coeff_space, comps)
    return IntertwinerTable(t.w1, t.w2, t.w3, modes)


# ---------------------------------------------------------------------------
# comparisons


def test_enough_solved_tables(tables):
    _, solved = tables
    assert len(solved) >= 40


def test_reports_and_recovered_modes_equal_on_solved_tables(tables):
    fixtures, solved = tables
    for t in fixtures + solved:
        assert _rows(weight_formulas_check(t)) == _rows(ref_weight_formulas_check(t))
        for i in range(t.w1.dim):
            for j in range(t.w2.dim):
                for n in t.exponents():
                    assert recover_modes(t, i, j, n) == ref_recover_modes(t, i, j, n)


def test_reports_equal_on_planted_tables(tables, monkeypatch):
    monkeypatch.setattr(intertwiner, "euler_precondition", lambda t: True)
    fixtures, solved = tables
    rng = random.Random(11)
    failing = nonterminating = 0
    for idx in range(60):
        t = _planted(rng, (fixtures + solved)[idx % (len(fixtures) + len(solved))])
        for kind in KINDS:
            got = _outcome(weight_formulas_check, t, kind)
            want = _outcome(ref_weight_formulas_check, t, kind)
            if want[0] == "NonTerminating" and NONTERMINATING in want[1] and kind == "gen" and got[0] == "ok":
                # the one allowed difference: a failing gen row instead
                nonterminating += 1
                gen_rows = [c for c in got[1].checks if c.check_id.startswith("mode-exp-generating")]
                assert gen_rows and not gen_rows[-1].passed and gen_rows[-1].witness
                continue
            if got[0] == "ok" and want[0] == "ok":
                assert _rows(got[1]) == _rows(want[1]), (idx, kind)
                failing += not got[1].passed
            else:
                assert got == want, (idx, kind)
        for i in range(t.w1.dim):
            for j in range(t.w2.dim):
                for n in t.exponents():
                    assert _outcome(recover_modes, t, i, j, n) == _outcome(ref_recover_modes, t, i, j, n)
    assert failing >= 60 and nonterminating


def test_derived_tables_and_conjugation_rows_equal(tables):
    fixtures, solved = tables
    for t in fixtures + solved[::8]:
        for r in (-1, 0):
            assert omega_r(t, r) == ref_omega_r(t, r)
    # a_r on every solved table (W1 a Jordan block: the N-orbit), the honest fixture (the L(1)-orbit)
    # and a W1 of weight 1/3, where e^(2 Pi i L(0)) is not the identity, so a wrong r shows
    thirds = solve_fusion_space(
        catalog.trivial_module("W1", Fraction(1, 3)),
        catalog.jordan_module("W2", Fraction(1, 4), size=2),
        catalog.jordan_module("W3", Fraction(7, 12), size=2, blocks=2),
        ("euler",),
    )
    assert any(t.w1.L(1).nonzero_positions() for t in fixtures)
    assert any(t.w1.nilpotent_part().nonzero_positions() for t in solved)
    for t in fixtures + solved + thirds:
        for r in (-2, -1, 0, 1):
            assert a_r(t, r) == ref_a_r(t, r)
    for t in fixtures:
        for which, order in (("p1", None), ("p1", 3), ("p3", 3)):
            assert _rows(conj_formulas_check(t, which, order)) == _rows(ref_conj_formulas_check(t, which, order))
