"""Named, seeded check suites over the whole library.

Each function returns a :class:`Report`.  :data:`SUITES` names every suite;
`check NAME` runs one through the CLI and :func:`check_all` runs them all in
table order.  All randomness is seeded and the identities are checked with
exact arithmetic: a pass means equality on the nose, never within a tolerance.
"""

from __future__ import annotations

import inspect
import math
import random
from collections.abc import Callable
from fractions import Fraction

from . import catalog
from .combinatorics import (
    _compositions, comb_identity_sides, lubell_refinement, lubell_sides, pascal_pair, vandermonde_pair
)
from .intertwiner import (
    IntertwinerTable,
    RecoveryFailure,
    VertexTable,
    _witness,
    a_r,
    axiom_check,
    decompose,
    delta_relation_check,
    euler_minus_a,
    identity_vertex_table,
    jacobi_check_window,
    logpower_slice_euler_defect,
    ode_structure_check,
    omega_r,
    recover_modes,
    shift_s1s2s3,
    solve_fusion_space,
    subst_table_scaled,
    weight_formulas_check,
    x_t,
)
from .jsonio import SchemaError, dump_object, load_text, read_path
from .matrix import ExactMatrix
from .mobius import conj_identity_check, validate_sl2, x_pm_L0
from .parser import parse_expr, parse_scalar
from .printer import scalar_str, series_str
from .reports import Report
from .scalars import ExactScalar, Exponent, binom_general, pi_scalar, root_of_unity
from .series import CoeffVector, LogSeries, Monomial
from .substitution import (
    series_exp,
    series_log1p,
    subst_scaled_exp,
    subst_x_exp_y,
    subst_x_plus_y,
)


# ---------------------------------------------------------------------------
# formal Taylor / scaling theorems

def _two_routes(name: str, row: str, p: LogSeries, subst: Callable, samples: int, order: int, seed: int) -> Report:
    """e^(y p d/dx) f term by term against ``subst`` at y-order ``order``, exactly, on seeded random series."""
    rep, rng = Report(name), random.Random(seed)
    for s in range(samples):
        f = catalog.random_log_series(rng)
        lhs, rhs = f.exp_diffop("y", p, "x", order), subst(f, "x", "y", order)
        ok = lhs == rhs
        rep.add(f"{row}-sample-{s}", ok, None if ok else _witness(lhs - rhs))
        if not ok:
            break
    return rep


def check_taylor(samples: int = 200, order: int = 8, seed: int = 0) -> Report:
    """Shift substitution against the exponentiated-derivative oracle:
    e^(y d/dx) f computed term by term must equal f(x+y) computed from the
    binomial and log-series expansions, exactly, at every truncation order."""
    return _two_routes("taylor-shift", "taylor", LogSeries.one(), subst_x_plus_y, samples, order, seed)


def check_scaling(samples: int = 200, order: int = 8, seed: int = 0) -> Report:
    """e^(y x d/dx) f = f(x e^y), same two-route comparison."""
    return _two_routes("scaling-substitution", "scaling", LogSeries.variable("x"), subst_x_exp_y, samples, order, seed)


def check_taylor_negative() -> Report:
    """Documented negative: replacing y by yx breaks the shift theorem."""
    rep = Report("taylor-negative")
    f = LogSeries.log_variable("x")
    lhs = f.exp_diffop("y", LogSeries.variable("x"), "x", 4)  # e^(y x d/dx) lg x = lg x + y
    shift = subst_x_plus_y(f, "x", "y", 4)  # has the full alternating tail
    rep.add("yx-substitution-differs", lhs != shift)
    return rep


# ---------------------------------------------------------------------------
# combinatorics

def check_comb(kmax: int = 10) -> Report:
    rep = Report("word-expansion-identity")
    for k in range(kmax + 1):
        for j in range(k + 1):
            left, right = comb_identity_sides(k, j)
            rep.add(f"comb(k={k},j={j})", left == right, f"{left} != {right}")
    return rep


def check_lubell(nmax: int = 6, jmax: int = 4) -> Report:
    rep = Report("bounded-sum-vs-distinct")
    for n in range(1, nmax + 1):
        for j in range(1, jmax + 1):
            left, right = lubell_sides(n, j)
            rep.add(f"lubell(N={n},j={j})", left == right, f"{left} != {right}")
            ref = lubell_refinement(n, j)
            rep.add(
                f"lubell-refinement(N={n},j={j})",
                all(a == b for a, b in ref)
                and sum(a for a, _ in ref) == left
                and sum(b for _, b in ref) == right,
            )
    return rep


def check_matrices() -> Report:
    rep = Report("pascal-vandermonde")
    for k in range(1, 13):
        p, pinv = pascal_pair(k)
        rep.add(f"pascal(K={k})", (p @ pinv) == ExactMatrix.identity(k))
    for s in range(6):
        v, vinv = vandermonde_pair(s)
        rep.add(f"vandermonde(S={s})", (vinv @ v) == ExactMatrix.identity(s + 1))
    return rep


def check_multinomial(seed: int = 0) -> Report:
    """Multinomial expansion of commuting operators on random diagonals: s = 1..3 operators, powers t = 0..5."""
    rep = Report("multinomial-expansion")
    rng = random.Random(seed)
    dim = 3
    for s in range(1, 4):
        mats = [
            ExactMatrix([[Fraction(rng.randint(-3, 3)) if i == j else 0 for j in range(dim)] for i in range(dim)])
            for _ in range(s)
        ]
        total = mats[0]
        for m in mats[1:]:
            total = total + m
        for t in range(6):
            lhs = ExactMatrix.identity(dim)
            for _ in range(t):
                lhs = lhs @ total
            rhs = ExactMatrix.zeros(dim, dim)
            # the splits of t into s parts: those of t + s into positive parts, each less one
            for split in ([c - 1 for c in p] for p in _compositions(t + s, s)):
                coeff = Fraction(math.factorial(t))
                for c in split:
                    coeff /= math.factorial(c)
                term = ExactMatrix.identity(dim).scale(coeff)
                for m, c in zip(mats, split):
                    for _ in range(c):
                        term = term @ m
                rhs = rhs + term
            rep.add(f"multinomial(s={s},t={t})", lhs == rhs)
    return rep


# ---------------------------------------------------------------------------
# ODE structure lemma

def check_ode(samples: int = 100, seed: int = 0) -> Report:
    """Euler-operator annihilation: random x^a (polynomial in lg x) families
    with the minimality witness, plus perturbed and truncated negatives."""
    rep = Report("euler-ode")
    rng = random.Random(seed)
    for s in range(samples):
        a = catalog.random_exponent(rng)
        m = rng.randint(1, 4)
        terms = {}
        for i in range(m):
            c = Fraction(rng.randint(-4, 4))
            if i == m - 1 and c == 0:
                c = Fraction(1)
            if c:
                terms[Monomial.var("x", a, i)] = CoeffVector.scalar(c)
        f = LogSeries(LogSeries.one().space, terms)
        sub = ode_structure_check(f, "x", a, m)
        rep.add(f"ode-sample-{s}", sub.passed, None if sub.passed else sub.to_text())
        if not sub.passed:
            break
        # perturbed negative: an off-exponent term survives the operator
        g = f + LogSeries.monomial(Monomial.var("x", a + 1), 1)
        cur = g
        for _ in range(m):
            cur = euler_minus_a(cur, "x", a)
        rep.add(f"ode-perturbed-{s}", not cur.is_zero())
        if cur.is_zero():
            break
    # truncated-exponential counterexample at several truncation depths
    a, b = Exponent(Fraction(1, 2)), Exponent(Fraction(-1, 3))
    for trunc in (1, 3, 5):
        diff = (a - b).as_scalar()
        terms = {}
        coeff = ExactScalar.coerce(1)
        for k in range(trunc + 1):
            terms[Monomial.var("x", b, k)] = CoeffVector.scalar(coeff)
            coeff = coeff * diff.divided_by_rational(k + 1)
        g = LogSeries(LogSeries.one().space, terms)
        cur = euler_minus_a(g, "x", a)
        top = cur.coeff(Monomial.var("x", b, trunc))
        rep.add(f"truncated-exponential-escapes(N={trunc})", not top.is_zero())
    return rep


# ---------------------------------------------------------------------------
# module-level identities

def check_sl2(count: int = 5, seed: int = 0, order: int = 10) -> Report:
    rep = Report("sl2-conjugation")
    for idx in range(count):
        mod = catalog.seeded_semisimple_module(f"S{seed}_{idx}", seed * 100 + idx)
        sub = validate_sl2(mod)
        rep.add(f"validate({mod.name})", sub.passed, None if sub.passed else sub.to_text())
        for which, kwargs in (
            ("xL0_Lj", {}),
            ("xL0_expLj", {}),
            ("expLm1", {}),
            ("expL0", {"order": order}),
            ("expL1", {}),
        ):
            sub = conj_identity_check(mod, which, **kwargs)
            rep.add(f"{which}({mod.name})", sub.passed, None if sub.passed else sub.to_text())
        for r in (-2, -1, 0, 1):
            sub = conj_identity_check(mod, "inverse_rel", r=r)
            rep.add(f"inverse_rel(r={r},{mod.name})", sub.passed, None if sub.passed else sub.to_text())
        # d/dx x^{+-L(0)} w = +-x^-1 x^{+-L(0)} L(0) w, and the ODE cross-check
        ok = True
        for i in range(mod.dim):
            w = mod.basis_vector(i)
            for sign in (1, -1):
                s = x_pm_L0(mod, w, sign)
                rhs = LogSeries.zero(mod.coeff_space)
                for mono, vec in x_pm_L0(mod, mod.apply_L(0, w), sign).items():
                    rhs = rhs + LogSeries.vector(vec.scale(sign), mono * Monomial.var("x", -1))
                if s.d_dx("x") != rhs:
                    ok = False
        rep.add(f"derivative-of-x-L0({mod.name})", ok)
    # Jordan module: the x^{L(0)} series solves the Euler ODE with the right depth
    jm = catalog.jordan_module("Jode", Fraction(1, 2), size=3)
    w = jm.basis_vector(2)
    f = x_pm_L0(jm, w, 1)
    sub = ode_structure_check(f, "x", Exponent(Fraction(1, 2)), 3)
    rep.add("x-L0-solves-euler-ode", sub.passed, None if sub.passed else sub.to_text())
    return rep


# ---------------------------------------------------------------------------
# intertwiner fixtures

def jordan_fixture_tables() -> list[IntertwinerTable]:
    """Three distinct logarithmic solver families over Jordan modules (dim <= 4)."""
    out: list[IntertwinerTable] = []
    for size in (2, 3):
        w1 = catalog.trivial_module("W1")
        w2 = catalog.trivial_module("W2")
        w3 = catalog.jordan_module("W3", 0, size=size)
        sols = solve_fusion_space(w1, w2, w3, constraints=("euler",))
        out.append(max(sols, key=lambda t: t.max_log_power()))
    w1 = catalog.trivial_module("W1", Fraction(1, 2))
    w2 = catalog.jordan_module("W2", Fraction(1, 3), size=2)
    w3 = catalog.jordan_module("W3", Fraction(5, 6), size=2, blocks=2)
    sols = solve_fusion_space(w1, w2, w3, constraints=("euler",))
    out.append(max(sols, key=lambda t: (t.max_log_power(), len(t.modes))))
    return out


def honest_fixture_table() -> IntertwinerTable:
    """The classical covariant: a full-axiom intertwiner between irreducibles."""
    u = catalog.sl2_irreducible("U", 2)
    w = catalog.sl2_irreducible("W", 2)
    m = catalog.sl2_irreducible("M", 3)
    sols = solve_fusion_space(u, w, m, constraints=("lminus1", "sl2_m1", "sl2_0", "sl2_1"))
    return sols[0]


def epsilon_instance() -> tuple[IntertwinerTable, VertexTable]:
    """Nontrivial Jacobi instance: the regular representation of the 2-dim
    algebra with one nilpotent generator; the table is its multiplication."""
    a = catalog.jordan_module("A", 0, size=1, blocks=2, weight_step=0)
    eps = ExactMatrix([[0, 0], [1, 0]])
    ident = ExactMatrix.identity(2)
    vt = VertexTable(
        a, a, a, [Exponent(0), Exponent(0)],
        {(s, 0, -1): ident for s in (1, 2, 3)} | {(s, 1, -1): eps for s in (1, 2, 3)},
    )
    def mult(i: int, j: int) -> CoeffVector:
        if i == 0:
            return a.basis_vector(j)
        if j == 0:
            return a.basis_vector(i)
        return CoeffVector.zero(a.coeff_space)
    table = IntertwinerTable(
        a, a, a, {(i, j, Exponent(-1), 0): mult(i, j) for i in range(2) for j in range(2)}
    )
    return table, vt


def check_fusion_suite() -> Report:
    """Solver-produced tables: axioms, involutions, composition laws, mode
    recovery, the log-power lowering family by all three routes."""
    rep = Report("fusion-suite")
    tables = jordan_fixture_tables()
    rep.add("log-depths", sorted(t.max_log_power() for t in tables) == [1, 2, 2],
            f"got {[t.max_log_power() for t in tables]}")
    for idx, t in enumerate(tables):
        # euler implies weights (axiom_check); at r = -1 an involution is the (r=-1,s=0) composition
        rep.add(f"euler-axiom-{idx}", axiom_check(t, "euler").passed)
        for r in (-2, 0, 1):
            rep.add(f"omega-involution-{idx}(r={r})", omega_r(omega_r(t, r), -r - 1) == t)
            rep.add(f"dual-involution-{idx}(r={r})", a_r(a_r(t, r), -r - 1) == t)
        for r in (-1, 0):
            for s in (0, 1):
                rep.add(
                    f"omega-composition-{idx}(r={r},s={s})",
                    omega_r(omega_r(t, r), s) == subst_table_scaled(t, pi_scalar(2 * (r + s + 1))),
                )
                rep.add(
                    f"dual-composition-{idx}(r={r},s={s})",
                    a_r(a_r(t, r), s) == shift_s1s2s3(t, 0, r + s + 1, 0),
                )
        ok, witness = True, None
        for i in range(t.w1.dim):
            for j in range(t.w2.dim):
                for n in t.exponents():
                    try:
                        rec = recover_modes(t, i, j, n)
                    except RecoveryFailure as exc:
                        ok, witness, rec = False, witness or f"mode({i},{j},{n!r}): {exc}", []
                    ok = ok and rec == [t.mode(i, j, n, r) for r in range(len(rec))]
        rep.add(f"mode-recovery-{idx}", ok, witness)
        sub = weight_formulas_check(t, "all")
        rep.add(f"weight-formulas-{idx}", sub.passed, None if sub.passed else sub.to_text()[:300])
        # Omega preserves the satisfied axiom
        rep.add(f"omega-preserves-euler-{idx}", axiom_check(omega_r(t, 0), "euler").passed)
        # scaled substitution is formally invariant
        shifted = subst_table_scaled(t, pi_scalar(2))
        rep.add(f"formal-invariance-{idx}", axiom_check(shifted, "euler").passed)
        # congruence of powers
        rep.add(f"power-congruence-{idx}", _congruent_powers(t))
        # by-congruence decomposition reassembles and slices keep the axiom
        classes = decompose(t, "by_congruence")
        total = None
        for c in classes:
            total = c if total is None else total + c
        rep.add(f"congruence-partition-{idx}", total == t and all(axiom_check(c, "euler").passed for c in classes))
        # log-power slices satisfy only the corrected identity
        ok = True
        for k in range(t.max_log_power() + 1):
            for i in range(t.w1.dim):
                for j in range(t.w2.dim):
                    if not logpower_slice_euler_defect(t, k, i, j).is_zero():
                        ok = False
        rep.add(f"logpower-slices-{idx}", ok)
    # X_t routes on the deepest table
    t = max(tables, key=lambda tt: tt.max_log_power())
    rep.add("xt-zero-beyond-depth", x_t(t, t.max_log_power() + 1).is_zero())
    rep.add("xt-identity-at-zero", x_t(t, 0) == t)
    rep.add("xt-vandermonde-route(S=4)", all(xt == x_t(t, tt) for tt, xt in enumerate(xt_by_vandermonde(t, 4))))
    return rep


def xt_by_vandermonde(t: IntertwinerTable, smax: int) -> list[IntertwinerTable]:
    """X_t(Y) for t = 0..smax from the scaled tables Y(., e^(2p Pi) x),
    p = 0..smax, combined with row t of the inverse Vandermonde matrix on the
    nodes 2p*Pi; X_t is :func:`x_t` when smax is at least the log depth."""
    _, vinv = vandermonde_pair(smax)
    shifted = [subst_table_scaled(t, pi_scalar(2 * p)) for p in range(smax + 1)]
    out = []
    for row in vinv.entries:
        acc = shifted[0].scale(row[0])
        for p in range(1, smax + 1):
            acc = acc + shifted[p].scale(row[p])
        out.append(acc)
    return out


def _congruent_powers(t: IntertwinerTable) -> bool:
    def congruent(ws) -> bool:
        return all((w - ws[0]).is_integer() for w in ws)

    if not all(congruent(m.weights) for m in (t.w1, t.w2, t.w3)):
        return True  # hypothesis of the corollary not met
    h1, h2, h3 = t.w1.weights[0], t.w2.weights[0], t.w3.weights[0]
    return all(((h3 - h1 - h2) + n + 1).is_integer() for n in t.exponents())


def check_jacobi() -> Report:
    rep = Report("jacobi-window")
    rep.extend(delta_relation_check())
    # trivial-V instance on a Jordan module
    v = catalog.trivial_module("V")
    w = catalog.jordan_module("W", Fraction(1, 2), size=2)
    table = IntertwinerTable(
        v, w, w, {(0, j, Exponent(-1), 0): w.basis_vector(j) for j in range(w.dim)}
    )
    rep.add("vertex-operator-is-intertwiner", axiom_check(table, "all").passed)
    vt = identity_vertex_table(v, w, w)
    sub = jacobi_check_window(table, vt, 0, v.basis_vector(0), w.basis_vector(1))
    rep.add("trivial-vacuum-instance", sub.passed, None if sub.passed else sub.to_text()[:200])
    # nontrivial instance and solver agreement
    mult, evt = epsilon_instance()
    ok = evt.weight_report().passed
    for vidx in (0, 1):
        for i in range(2):
            for j in range(2):
                sub = jacobi_check_window(mult, evt, vidx, mult.w1.basis_vector(i), mult.w2.basis_vector(j))
                ok = ok and sub.passed
    rep.add("nilpotent-multiplication-instance", ok)
    sols = solve_fusion_space(
        mult.w1, mult.w2, mult.w3, constraints=("lminus1", "jacobi"), vertex=evt, max_log=1
    )
    rep.add("solver-dimension", len(sols) == 2, f"got {len(sols)}")
    in_span = any(not s.is_zero() for s in sols)
    for s in sols:
        for vidx in (0, 1):
            for i in range(2):
                for j in range(2):
                    sub = jacobi_check_window(s, evt, vidx, mult.w1.basis_vector(i), mult.w2.basis_vector(j))
                    in_span = in_span and sub.passed
    rep.add("solver-tables-pass", in_span)
    # single perturbed mode is detected with a coefficient witness
    bad_modes = dict(mult.modes)
    bad_modes[(1, 1, Exponent(-1), 0)] = mult.w3.basis_vector(0)
    bad = IntertwinerTable(mult.w1, mult.w2, mult.w3, bad_modes)
    sub = jacobi_check_window(bad, evt, 1, mult.w1.basis_vector(1), mult.w2.basis_vector(0))
    rep.add(
        "perturbation-detected",
        (not sub.passed) and sub.failures[0].witness is not None,
        None if not sub.passed else "perturbed table passed",
    )
    return rep


def check_scalars(seed: int = 0) -> Report:
    rep = Report("scalar-ring")
    samples = 50
    rng = random.Random(seed)
    dens = (1, 2, 3, 4, 6, 12)

    def random_cyclotomic() -> ExactScalar:
        out = ExactScalar.zero()
        for _ in range(3):
            out = out + root_of_unity(Fraction(rng.randint(0, 23), 12)) * Fraction(rng.randint(-3, 3))
        return out

    ok_field = True
    for _ in range(samples):
        a, b, c = (random_cyclotomic() for _ in range(3))
        if not ((a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c):
            ok_field = False
        if not a.is_zero() and a.is_monomial():
            if not (a * a.inverse()) == ExactScalar.from_rational(1):
                ok_field = False
    rep.add("field-axioms-random", ok_field)
    ok_root = True
    for _ in range(samples):
        q1 = Fraction(rng.randint(-24, 24), rng.choice(dens))
        q2 = Fraction(rng.randint(-24, 24), rng.choice(dens))
        if root_of_unity(q1) * root_of_unity(q2) != root_of_unity((q1 + q2) % 2):
            ok_root = False
    rep.add("root-of-unity-homomorphism", ok_root)
    ok_pascal = True
    for _ in range(samples // 2):
        m = ExactScalar.from_rational(Fraction(rng.randint(-8, 8), rng.choice(dens)))
        for k in range(1, 11):
            lhs = binom_general(m, k)
            rhs = binom_general(m - 1, k) + binom_general(m - 1, k - 1)
            if lhs != rhs:
                ok_pascal = False
    rep.add("binomial-pascal-rule", ok_pascal)
    # Pi-power separation survives serialization round trips
    s = pi_scalar(2) + root_of_unity(Fraction(1, 3)) * pi_scalar(1) ** 2 - ExactScalar.from_rational(Fraction(5, 7))
    rep.add("pi-transcendence-roundtrip", parse_scalar(scalar_str(s)) == s)
    return rep


def check_logseries(seed: int = 0) -> Report:
    rep = Report("log-series-ring")
    rng = random.Random(seed)
    ok_leibniz = True
    for _ in range(200):
        f = catalog.random_log_series(rng, max_terms=3)
        g = catalog.random_log_series(rng, max_terms=3)
        if (f * g).d_dx("x") != f.d_dx("x") * g + f * g.d_dx("x"):
            ok_leibniz = False
    rep.add("leibniz-rule", ok_leibniz)
    ok_lin = True
    for _ in range(20):
        fam = [catalog.random_log_series(rng, max_terms=2) for _ in range(4)]
        total = LogSeries.zero()
        for f in fam:
            total = total + f
        deriv = LogSeries.zero()
        for f in fam:
            deriv = deriv + f.d_dx("x")
        if total.d_dx("x") != deriv:
            ok_lin = False
    rep.add("derivative-linearity", ok_lin)
    # log(e^x) = x at every order up to 12
    ok_logexp = True
    for order in range(1, 13):
        ex = series_exp(LogSeries.variable("x"), "x", order) - LogSeries.one()
        if not series_log1p(ex, "x", order).equal_terms(LogSeries.variable("x").with_trunc({"x": order})):
            ok_logexp = False
    rep.add("log-of-exp", ok_logexp)
    # multiplicativity of the exponentiated derivation
    ok_mult = True
    for _ in range(20):
        f = catalog.random_log_series(rng, max_terms=2, max_log_power=2)
        g = catalog.random_log_series(rng, max_terms=2, max_log_power=2)
        n = 4
        ef = f.exp_diffop("y", LogSeries.one(), "x", n)
        eg = g.exp_diffop("y", LogSeries.one(), "x", n)
        efg = (f * g).exp_diffop("y", LogSeries.one(), "x", n)
        if ef * eg != efg:
            ok_mult = False
    rep.add("exp-derivation-multiplicative", ok_mult)
    # identity substitution: zeta = 2 pi i p on integral log-free series
    ok_id = True
    for _ in range(20):
        terms = {}
        for _ in range(3):
            terms[Monomial.var("x", rng.randint(-4, 4))] = CoeffVector.scalar(Fraction(rng.randint(-3, 3)))
        f = LogSeries(LogSeries.one().space, terms)
        for p in (1, 2):
            if subst_scaled_exp(f, "x", pi_scalar(2 * p)) != f:
                ok_id = False
    rep.add("integral-scale-identity", ok_id)
    return rep


def check_roundtrip_fuzz(samples: int = 10000, seed: int = 0) -> Report:
    """parse . print = identity on canonical output; print . parse
    canonicalizes, fuzzed over generated expressions."""
    rep = Report("parser-roundtrip")
    rng = random.Random(seed)
    ok = True
    witness = None
    for _ in range(samples):
        text = _random_expression(rng)
        try:
            f = parse_expr(text)
        except Exception as exc:  # generated strings are well-formed by construction
            ok = False
            witness = f"{text!r} failed to parse: {exc}"
            break
        printed = series_str(f)
        back = parse_expr(printed)
        if not back.equal_terms(f):
            ok = False
            witness = f"{text!r} -> {printed!r} reparsed differently"
            break
        if series_str(back) != printed:
            ok = False
            witness = f"print not canonical on {printed!r}"
            break
    rep.add(f"fuzz({samples})", ok, witness)
    return rep


def _random_expression(rng: random.Random, depth: int = 0) -> str:
    atoms = [
        lambda: str(rng.randint(0, 9)),
        lambda: f"{rng.randint(1, 9)}/{rng.choice((2, 3, 4, 6, 12))}",
        lambda: rng.choice(("x", "y", "z")),
        lambda: f"{rng.choice(('x', 'y', 'z'))}^({rng.randint(-6, 6)}/{rng.choice((1, 2, 3, 4, 6))})",
        lambda: f"lg({rng.choice(('x', 'y', 'z'))})^{rng.randint(0, 4)}",
        lambda: "Pi",
        lambda: "i",
        lambda: f"e({rng.randint(-12, 12)}/{rng.choice((1, 2, 3, 4, 6, 12))})",
    ]
    if depth > 2:
        return rng.choice(atoms)()
    ops = rng.randint(0, 3)
    parts = [_random_expression(rng, depth + 1) for _ in range(ops + 1)]
    text = parts[0]
    for p in parts[1:]:
        text += rng.choice((" + ", " - ", "*")) + p
    if rng.random() < 0.3:
        text = f"({text})"
        if rng.random() < 0.3:
            text += f"^{rng.randint(0, 3)}"
    return text


def check_file_roundtrip(seed: int = 0) -> Report:
    """Byte-identical load -> save on canonical module/table/vertex files."""
    rep = Report("file-roundtrip")
    objs: list = [
        catalog.seeded_semisimple_module("RT", seed),
        catalog.jordan_module("J", Fraction(1, 2), size=3),
        honest_fixture_table(),
        jordan_fixture_tables()[2],
        epsilon_instance()[1],
    ]
    for obj in objs:
        text = dump_object(obj)
        back = load_text(text)
        again = dump_object(back)
        name = getattr(obj, "name", type(obj).__name__)
        rep.add(f"byte-roundtrip({name})", text == again)
    return rep


def check_intertwiner(file: str, axioms: str = "all") -> Report:
    """The named axioms on the intertwiner table in ``file`` (``-`` for stdin)."""
    table = load_text(read_path(file))
    if not isinstance(table, IntertwinerTable):
        raise SchemaError("file does not hold an intertwiner table", "/kind")
    return axiom_check(table, axioms)


def check_all(seed: int = 0, quick: bool = False) -> Report:
    """Every suite of :data:`SUITES` that `check all` runs, in table order: the
    full-verification entry point.  ``quick`` applies each suite's overrides."""
    rep = Report("all")
    for fn, quick_args in SUITES.values():
        if quick_args is None:
            continue
        kwargs = dict(quick_args) if quick else {}
        if "seed" in inspect.signature(fn).parameters:
            kwargs["seed"] = seed
        rep.extend(fn(**kwargs))
    return rep


# Each suite function's defaults are its `check all` arguments, so `check NAME`
# with no flags runs what `check all` runs.  Beside each function stand its
# `--quick` overrides, or None for a suite that `check all` skips.
SUITES: dict[str, tuple[Callable[..., Report], dict[str, int] | None]] = {
    "scalars": (check_scalars, {}),
    "series": (check_logseries, {}),
    "taylor": (check_taylor, {"samples": 50}),
    "scaling": (check_scaling, {"samples": 50}),
    "taylor-negative": (check_taylor_negative, {}),
    "comb": (check_comb, {}),
    "lubell": (check_lubell, {}),
    "matrices": (check_matrices, {}),
    "multinomial": (check_multinomial, {}),
    "ode": (check_ode, {"samples": 30}),
    "sl2": (check_sl2, {"count": 3}),
    "fusion": (check_fusion_suite, {}),
    "jacobi": (check_jacobi, {}),
    "fuzz": (check_roundtrip_fuzz, {"samples": 1000}),
    "file-roundtrip": (check_file_roundtrip, {}),
    "intertwiner": (check_intertwiner, None),
    "all": (check_all, None),
}
