"""The operator exponentials against the loops they replaced.

The reference below keeps one loop per exponential: the terminating orbit
of a nilpotent matrix on a vector, the weight-formula orbit of L(0) - h cut
at a count, e^(c L(j)) on a W-valued series, x^(+-L(0)) and e^(aL(0)) per
generalized-weight part, and (1-u)^m by its binomial recursion.  The library
reads all of them from the one orbit of ``exp_nilpotent_terms`` and builds
(1-u)^m as e^(m log(1-u)).  Every exponential must agree with the reference
in terms and truncation, or raise the same error type with the same message,
on Jordan modules, honest sl(2) modules and modules with one entry changed.
The reference raises ``NonTerminating`` where its loops raised a plain
``ValueError`` with the same message.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcalc import catalog
from logcalc.intertwiner import _orbit
from logcalc.matrix import ExactMatrix
from logcalc.mobius import (
    MobiusModule,
    NonTerminating,
    e_aL0,
    exp_L,
    exp_nilpotent_terms,
    x_pm_L0,
)
from logcalc.scalars import Exponent, LatticeViolation, pi_scalar, root_of_unity
from logcalc.series import CoeffVector, LogSeries, Monomial
from logcalc.substitution import pi_monomial_coefficient, series_log1p

# ---------------------------------------------------------------------------
# reference: one loop per exponential


def ref_exp_nilpotent_terms(module, m, vec):
    terms = []
    cur = vec
    while not cur.is_zero():
        if len(terms) == module.dim:
            raise NonTerminating("exponential does not terminate: the operator is not nilpotent on the vector")
        terms.append(cur)
        cur = module.apply_matrix(m, cur).scale(Fraction(1, len(terms)))
    return terms


def ref_orbit(mod, v, h, count):
    n = mod.L(0) - ExactMatrix.identity(mod.dim).scale(h.as_scalar())
    terms = []
    while len(terms) < count and not v.is_zero():
        terms.append(v)
        step = Fraction(1, len(terms))
        if isinstance(v, LogSeries):
            v = v.map_coeffs(lambda vec: mod.apply_matrix(n, vec).scale(step))
        else:
            v = mod.apply_matrix(n, v).scale(step)
    return terms


def ref_x_pm_L0(module, vec, sign, var="x"):
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = LogSeries.zero(module.coeff_space)
    n_mat = module.nilpotent_part()
    for w, part in module.weight_components(vec).items():
        exp = w if sign > 0 else -w
        for k, term in enumerate(ref_exp_nilpotent_terms(module, n_mat, part)):
            if sign < 0 and k % 2:
                term = -term
            out = out + LogSeries.vector(term, Monomial.var(var, exp, k))
    return out


def ref_e_aL0(module, vec, a):
    q = pi_monomial_coefficient(a)
    out = CoeffVector.zero(module.coeff_space)
    n_mat = module.nilpotent_part()
    for w, part in module.weight_components(vec).items():
        if not w.is_real():
            raise LatticeViolation("e^(aL(0)) needs real weights for exact root-of-unity values")
        terms = ref_exp_nilpotent_terms(module, n_mat, part)
        acc = terms[0]
        apow = a
        for term in terms[1:]:
            acc = acc + term.scale(apow)
            apow = apow * a
        out = out + acc.scale(root_of_unity(q * w.re))
    return out


def ref_exp_L(module, j, coeff, f, order=None, var="x"):
    m = module.L(j)
    nilpotent = m.is_nilpotent()
    if not nilpotent and order is None:
        raise NonTerminating("exponential of a non-nilpotent operator needs a truncation order")
    # a cut sum needs a coefficient of positive valuation, as series_exp does
    low = [mono for mono in coeff.terms if not nilpotent and mono.exponent(var).re <= 0]
    if low:
        raise ValueError(f"series must have positive valuation in {var!r} (found {low[0]!r})")
    # exact: a cut sum at the order raised by -val(f) (each power of coeff raises the
    # valuation by at least 1; a truncated f with no terms has the valuation of its
    # unknown tail), then cut back at order
    raised = order
    if not nilpotent:
        exponents = [mono.exponent(var).re for mono in f.terms] or [f.trunc.get(var, 0)]
        raised = order + max(0, math.ceil(-min(exponents)))
    out = f.with_trunc({var: raised}) if order is not None else f
    power = LogSeries.one()
    for k in range(1, module.dim if nilpotent else raised + 1):
        f = f.map_coeffs(lambda vec: module.apply_matrix(m, vec).scale(Fraction(1, k)))
        # the orbit of a truncated f's unknown tail goes on after f's ends
        if f.is_zero() and not f.trunc:
            break
        power = power * coeff
        out = out + power * f
    return out.with_trunc({var: order}) if order is not None else out


def ref_one_minus_u_power(module, m, u, f, order, var):
    out = f.with_trunc({var: order})
    power = LogSeries.one()
    for k in range(1, order + 1):
        f = f.map_coeffs(lambda vec: (module.apply_matrix(m, vec) + vec.scale(1 - k)).scale(Fraction(1, k)))
        power = power * -u
        out = out + power * f
    return out


# ---------------------------------------------------------------------------
# inputs

DENOMINATORS = (1, 2, 3, 4, 6, 12)


@st.composite
def jordan(draw):
    size = draw(st.integers(1, 4))
    blocks = draw(st.integers(1, 8 // size))
    weight = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(DENOMINATORS)))
    return catalog.jordan_module("J", weight, size, blocks, weight_step=draw(st.integers(0, 1)))


@st.composite
def modules(draw):
    """A Jordan module (dims 1-8), an honest sl(2) module or a direct sum of
    both, sometimes with one entry of one L(j) changed."""
    kind = draw(st.sampled_from(("jordan", "sl2", "sum")))
    if kind == "jordan":
        mod = draw(jordan())
    elif kind == "sl2":
        mod = catalog.sl2_irreducible("V", draw(st.integers(1, 5)))
    else:
        mod = catalog.direct_sum("S", catalog.sl2_irreducible("V", draw(st.integers(1, 3))),
                                 catalog.jordan_module("J", 0, draw(st.integers(1, 3))))
    if draw(st.booleans()):
        j = draw(st.sampled_from((-1, 0, 1)))
        row, col = draw(st.integers(0, mod.dim - 1)), draw(st.integers(0, mod.dim - 1))
        mats = {k: [list(r) for r in mod.L(k).entries] for k in (-1, 0, 1)}
        mats[j][row][col] = mats[j][row][col] + draw(st.sampled_from((-1, 1, 2)))
        mod = MobiusModule(mod.name, mod.weights, *(ExactMatrix(mats[k]) for k in (-1, 0, 1)))
    return mod


def vectors(mod):
    comps = st.dictionaries(st.integers(0, mod.dim - 1), st.integers(-3, 3), max_size=mod.dim)
    return comps.map(lambda c: CoeffVector(mod.coeff_space, c))


MONOMIALS = st.builds(
    lambda v, n, d, k, extra: Monomial.var(v, Fraction(n, d), k) * extra,
    st.sampled_from(("x", "y")),
    st.integers(-3, 3),
    st.sampled_from((1, 2, 3)),
    st.integers(0, 2),
    st.sampled_from((Monomial.UNIT, Monomial.var("z", 1), Monomial.log("z"), Monomial.var("y", -1))),
)
TRUNCS = st.dictionaries(st.sampled_from(("x", "y")), st.integers(-1, 4), max_size=2)


def series(mod):
    """A W-valued series with terms in x, y and z and a truncation in x or y."""
    return st.builds(
        lambda terms, trunc: LogSeries(mod.coeff_space, terms, trunc),
        st.dictionaries(MONOMIALS, vectors(mod), max_size=4),
        TRUNCS,
    )


SCALAR_SERIES_ITEMS = (
    LogSeries.variable("y"),
    -LogSeries.variable("x"),
    LogSeries.variable("y") * LogSeries.variable("x", -1),
    LogSeries.variable("y") - LogSeries.variable("y", 2) * LogSeries.variable("x"),
    LogSeries.log_variable("x").scale(Fraction(-1, 2)),
    LogSeries.one().scale(3) + LogSeries.variable("x", Fraction(1, 2)).with_trunc({"x": 2}),
)
SCALAR_SERIES = st.sampled_from(SCALAR_SERIES_ITEMS)
ORDERS = st.one_of(st.none(), st.integers(-1, 4))
LATTICE_PI = st.sampled_from((Fraction(1), Fraction(-3), Fraction(1, 2), Fraction(2, 3), Fraction(1, 12)))
J1 = catalog.jordan_module("J", 1, 1)


@st.composite
def exp_L_cases(draw):
    """Arguments (module, j, coeff, f, order, var) of exp_L."""
    mod = draw(modules())
    j = draw(st.sampled_from((-1, 0, 1)))
    return mod, j, draw(SCALAR_SERIES), draw(series(mod)), draw(ORDERS), draw(st.sampled_from(("x", "y")))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _same(got, want):
    """Equal terms and truncation (or the same error), term by term."""
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    if isinstance(want, LogSeries) and isinstance(got, LogSeries):
        return (got.space, got.terms, got.trunc) == (want.space, want.terms, want.trunc)
    return type(got) is type(want) and got == want


# ---------------------------------------------------------------------------
# tests


class TestAgainstReference:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_terminating_orbit(self, data):
        mod = data.draw(modules())
        m = data.draw(st.sampled_from((mod.nilpotent_part(), mod.L(-1), mod.L(0), mod.L(1))))
        vec = data.draw(vectors(mod))
        want = _outcome(ref_exp_nilpotent_terms, mod, m, vec)
        assert _same(_outcome(exp_nilpotent_terms, mod, m, vec), want)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_weight_formula_orbit(self, data):
        mod = data.draw(modules())
        h = mod.weights[data.draw(st.integers(0, mod.dim - 1))] + data.draw(st.sampled_from((0, 0, 1, Fraction(1, 2))))
        v = data.draw(st.one_of(vectors(mod), series(mod)))
        count = data.draw(st.integers(0, 10))
        assert _same(_outcome(_orbit, mod, v, h, count), _outcome(ref_orbit, mod, v, h, count))

    @given(exp_L_cases())
    # f of negative y-valuation: the exact sum also has y/2, from the second power of coeff
    @example((J1, 0, SCALAR_SERIES_ITEMS[3], LogSeries.vector(J1.basis_vector(0), Monomial.var("y", -1)), 1, "y"))
    @settings(max_examples=150, deadline=None)
    def test_exp_L(self, case):
        assert _same(_outcome(exp_L, *case), _outcome(ref_exp_L, *case))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_x_pm_L0(self, data):
        mod = data.draw(modules())
        vec = data.draw(vectors(mod))
        sign = data.draw(st.sampled_from((1, -1)))
        var = data.draw(st.sampled_from(("x", "y")))
        assert _same(_outcome(x_pm_L0, mod, vec, sign, var), _outcome(ref_x_pm_L0, mod, vec, sign, var))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_e_aL0(self, data):
        mod = data.draw(modules())
        vec = data.draw(vectors(mod))
        a = pi_scalar(data.draw(LATTICE_PI))
        assert _same(_outcome(e_aL0, mod, vec, a), _outcome(ref_e_aL0, mod, vec, a))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_minus_u_power_is_exp_of_log(self, data):
        # (1-u)^(cL(0)) f = e^(c log(1-u) L(0)) f for u of positive and f of
        # nonnegative y-valuation, as in p3: both sides are then the same
        # power series in y, truncated at y-order
        mod = data.draw(modules())
        c = data.draw(st.sampled_from((-2, 1, Fraction(1, 2))))
        u = data.draw(st.sampled_from((
            LogSeries.variable("y") * LogSeries.variable("x"),
            LogSeries.variable("y", 2).scale(3),
            LogSeries.variable("y") * LogSeries.variable("x", -1) + LogSeries.variable("y", 2),
        )))
        f = data.draw(series(mod))
        f = LogSeries(f.space, {m: v for m, v in f.items() if m.exponent("y").re >= 0}, f.trunc)
        order = data.draw(st.integers(0, 4))
        coeff = series_log1p(-u, "y", order).scale(c)
        want = ref_one_minus_u_power(mod, mod.L(0).scale(c), u, f, order, "y")
        got = exp_L(mod, 0, coeff, f, order, "y")
        # equal wherever both claim to know: the binomial loop charges every power
        # of u to an x-truncated f's bound, the exponential only the powers that the
        # orbit of L(0) can reach, which ends at dim W when L(0) is nilpotent
        assert _same(got.with_trunc(want.trunc), want.with_trunc(got.trunc))
        if not mod.L(0).is_nilpotent():
            assert all(got.trunc[v] <= n for v, n in want.trunc.items())
        # and got claims only what every completion of f agrees on: a tail just
        # above f's x bound changes no coefficient below got's
        if "x" in f.trunc:
            tail = CoeffVector(mod.coeff_space, {i: 1 for i in range(mod.dim)})
            full = LogSeries(f.space, {**f.terms, Monomial.var("x", f.trunc["x"] + 1): tail},
                             {v: n for v, n in f.trunc.items() if v != "x"})
            assert _same(got, exp_L(mod, 0, coeff, full, order, "y").with_trunc(got.trunc))

    def test_errors_match(self):
        # a non-nilpotent L(0) - L(0)_s, a missing order, a non-real weight
        zero = ExactMatrix.zeros(2, 2)
        swap = MobiusModule("J", [0, 0], zero, ExactMatrix([[0, 1], [1, 0]]), zero)
        v = swap.basis_vector(0)
        assert _outcome(x_pm_L0, swap, v, -1)[0] is NonTerminating
        assert _same(_outcome(x_pm_L0, swap, v, -1), _outcome(ref_x_pm_L0, swap, v, -1))
        sl2 = catalog.sl2_irreducible("V", 3)
        f = LogSeries.vector(sl2.basis_vector(1))
        assert _outcome(exp_L, sl2, 0, LogSeries.variable("x"), f)[0] is NonTerminating
        assert _same(_outcome(exp_L, sl2, 0, LogSeries.variable("x"), f),
                     _outcome(ref_exp_L, sl2, 0, LogSeries.variable("x"), f))
        weights = [Exponent(Fraction(1, 2), 1)] * 2
        diagonal = MobiusModule("T", weights, zero, zero, zero).weight_diagonal()
        tilted = MobiusModule("T", weights, zero, diagonal + ExactMatrix([[0, 1], [0, 0]]), zero)
        w = tilted.basis_vector(1)
        assert _outcome(e_aL0, tilted, w, pi_scalar(1))[0] is LatticeViolation
        assert _same(_outcome(e_aL0, tilted, w, pi_scalar(1)), _outcome(ref_e_aL0, tilted, w, pi_scalar(1)))
