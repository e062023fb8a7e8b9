"""The series product kernel against the loops it replaced.

The reference below keeps the monomial product that rebuilt a dict and
sorted it, the series product that tested every pair of terms against the
truncation (a factor known below v^(N+1) times one whose least v-exponent has
real part val leaves v^(N + min(0, floor(val))) known), the derivative that split off and rebuilt each monomial's entry
for the variable, v^r d/dv as the product of v^r with that derivative, and
e^(yT) for T = c v^r d/dv summed as a running series sum of full products
y^k T^k f / k!, with T f the product of c v^r with the derivative; a second
reference for e^(yT) takes one library ``d_dx`` pass per order.  The
library merges two sorted entry tuples in one pass, lists the right terms
that fit once per truncation level of a left term, replaces the one entry
for the variable with its v^r d/dv image in one pass, and builds e^(yT) from
one Gaussian-integer table per (exponent, log power), writing each term
m y^k once.  Every result must agree with the reference in terms and in
truncation (or raise the same error with the same message), and every
monomial it builds must be canonical; and
products, derivatives and the exponential of built series must not call the
sorting ``Monomial`` constructor inside their loops.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcalc import catalog
from logcalc.scalars import LATTICE, ExactScalar, Exponent, pi_scalar, root_of_unity
from logcalc.series import (
    SCALAR,
    CoeffSpace,
    CoeffVector,
    LogSeries,
    Monomial,
    UndefinedProduct,
    VariableCollision,
    _merge_trunc,
)

# ---------------------------------------------------------------------------
# reference: the dict-and-sort product, the per-pair truncation test, the
# rebuilt derivative entry and the running exponential sum


def ref_monomial_mul(a, b):
    if not b.entries:
        return a
    if not a.entries:
        return b
    d = {v: (e, k) for v, e, k in a.entries}
    for v, e, k in b.entries:
        if v in d:
            e0, k0 = d[v]
            d[v] = (e0 + e, k0 + k)
        else:
            d[v] = (e, k)
    return Monomial._trusted(tuple((v, e, k) for v, (e, k) in sorted(d.items()) if k or not e.is_zero()))


def _sound_bounds(trunc, other):
    """Each bound of ``trunc`` lowered by the floor of the other factor's
    valuation when that is negative (with no terms, the valuation of its
    unknown tail, which starts at its bound)."""
    out = {}
    for v, n in trunc.items():
        val = min((m.exponent(v).re for m in other.terms), default=Fraction(other.trunc.get(v, 0)))
        out[v] = n + min(0, math.floor(val))
    return out


def _levels(monomials, trunc):
    return [tuple(m.exponent(v).a for v in trunc) for m in monomials]


def ref_mul(f, g):
    if f.space != SCALAR and g.space != SCALAR:
        raise UndefinedProduct("product of two vector-valued series over a space with no declared algebra structure")
    scal, vec = (f, g) if f.space == SCALAR else (g, f)
    trunc = _merge_trunc(_sound_bounds(f.trunc, g), _sound_bounds(g.trunc, f))
    caps = [n * LATTICE for n in trunc.values()]
    right = [(m2, c2.components, lv2) for (m2, c2), lv2 in zip(vec.terms.items(), _levels(vec.terms, trunc))]
    acc = {}
    for (m1, c1), lv1 in zip(scal.terms.items(), _levels(scal.terms, trunc)):
        s1 = c1.scalar_value()
        for m2, comps2, lv2 in right:
            if any(a + b > cap for a, b, cap in zip(lv1, lv2, caps)):
                continue
            m = ref_monomial_mul(m1, m2)
            comps = acc.get(m)
            if comps is None:
                acc[m] = {i: v * s1 for i, v in comps2.items()}
                continue
            for i, v in comps2.items():
                p = v * s1
                cur = comps.get(i)
                if cur is None:
                    comps[i] = p
                else:
                    p = cur + p
                    if p.is_zero():
                        del comps[i]
                    else:
                        comps[i] = p
            if not comps:
                del acc[m]
    out = {m: CoeffVector._trusted(vec.space, comps) for m, comps in acc.items()}
    return LogSeries._trusted(vec.space, out, trunc)


def ref_d_dx(f, v):
    out = {}

    def put(m, vec):
        cur = out.get(m)
        s = vec if cur is None else cur + vec
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s

    for m, vec in f.terms.items():
        n, k, rest = m.exponent(v), m.log_power(v), m.without(v)
        if not n.is_zero():
            put(ref_monomial_mul(rest, Monomial.var(v, n - 1, k)), vec.scale(n.as_scalar()))
        if k:
            put(ref_monomial_mul(rest, Monomial.var(v, n - 1, k - 1)), vec.scale(k))
    trunc = dict(f.trunc)
    if v in trunc:
        trunc[v] -= 1
    return LogSeries._trusted(f.space, out, trunc)


def ref_exp_diffop(f, y, p, v, order):
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if f.uses_variable(y) or p.uses_variable(y):
        raise VariableCollision(f"expansion variable {y!r} already occurs")
    one_term = p.space == SCALAR and not p.trunc and len(p.terms) == 1
    if not one_term or any(m.without(v) != Monomial.UNIT or m.log_power(v) for m in p.terms):
        raise UndefinedProduct("the operator coefficient must be one untruncated scalar term c v^r")
    acc = LogSeries.zero(f.space, {y: order})
    tk = f
    for k in range(order + 1):
        acc = acc + ref_mul(tk.scale(Fraction(1, math.factorial(k))), LogSeries.variable(y, k))
        if k < order:
            tk = ref_mul(p, ref_d_dx(tk, v))
    return acc


def iterated_exp_diffop(f, y, p, v, order):
    """e^(yT) for T = c v^r d/dv as one library ``d_dx(v, r)`` pass per order,
    each level scaled by c^k/k! and written once, cut at the final bounds."""
    ((mono, coeff),) = p.terms.items()
    c, r = coeff.scalar_value(), mono.exponent(v)
    out, trunc, tk = {}, {y: order}, f
    for k in range(order + 1):
        trunc = _merge_trunc(trunc, tk.trunc)
        s = c**k * Fraction(1, math.factorial(k))
        out.update((m * Monomial.var(y, k), vec.scale(s)) for m, vec in tk.terms.items())
        if k < order:
            tk = tk.d_dx(v, r)
    return LogSeries(f.space, out, trunc)


# ---------------------------------------------------------------------------
# inputs

VARS = ("x", "y", "z")
EXPONENTS = st.builds(
    lambda a, b, d: Exponent(Fraction(a, d), Fraction(b, d)),
    st.integers(-4, 4),
    st.sampled_from((0, 0, 0, 1, -1)),
    st.sampled_from((1, 2, 3, 4, 6, 12)),
)
MONOMIALS = st.dictionaries(st.sampled_from(VARS), st.tuples(EXPONENTS, st.integers(0, 2)), max_size=3).map(Monomial)
# few monomials in x and y, so that products of sums meet and cancel
DENSE_MONOMIALS = st.sampled_from(
    (Monomial.UNIT, Monomial.var("x"), Monomial.var("x", -1), Monomial.var("x", 2), Monomial.log("x"),
     Monomial.var("y"), Monomial.var("x") * Monomial.var("y", -1))
)
SCALARS = st.sampled_from(
    (ExactScalar.from_rational(1), ExactScalar.from_rational(-1), ExactScalar.from_rational(Fraction(-3, 2)),
     root_of_unity(Fraction(1, 3)), Exponent(Fraction(1, 2), Fraction(1, 4)).as_scalar())
)
TRUNCS = st.dictionaries(st.sampled_from(VARS), st.integers(-1, 4), max_size=2)
SPACES = st.sampled_from((CoeffSpace("W", 2), CoeffSpace("W", 3)))


def _inverse(m):
    return Monomial({v: (-e, 0) for v, e, _ in m.entries})


@st.composite
def monomial_pairs(draw):
    """Two monomials; half the time the second inverts the first's exponents, so the
    product cancels every entry without a log power (to 1 when there is none)."""
    m1 = draw(MONOMIALS)
    if draw(st.booleans()):
        if draw(st.booleans()):
            m1 = Monomial({v: (e, 0) for v, e, _ in m1.entries})
        return m1, _inverse(m1)
    return m1, draw(MONOMIALS)


def vectors(space):
    comps = st.dictionaries(st.integers(0, space.dim - 1), st.integers(-2, 2), max_size=space.dim)
    return comps.map(lambda c: CoeffVector(space, c))


@st.composite
def scalar_series(draw, monomials=MONOMIALS):
    terms = draw(st.dictionaries(monomials, SCALARS.map(CoeffVector.scalar), max_size=4))
    return LogSeries(SCALAR, terms, draw(TRUNCS))


@st.composite
def vector_series(draw, monomials=MONOMIALS):
    space = draw(SPACES)
    return LogSeries(space, draw(st.dictionaries(monomials, vectors(space), max_size=4)), draw(TRUNCS))


def any_series(monomials=MONOMIALS):
    return st.one_of(scalar_series(monomials), vector_series(monomials))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _canonical(m):
    names = [v for v, _, _ in m.entries]
    return names == sorted(set(names)) and all(k >= 0 and (k or not e.is_zero()) for _, e, k in m.entries)


def _same(got, want):
    """Equal terms and truncation, canonical monomials (or the same error)."""
    if isinstance(want, LogSeries) and isinstance(got, LogSeries):
        return (
            (got.space, got.terms, got.trunc) == (want.space, want.terms, want.trunc)
            and all(_canonical(m) for m in got.terms)
        )
    return type(got) is type(want) and got == want


ONE = LogSeries.one()
X, Y, Z = (LogSeries.variable(v) for v in VARS)
W2 = CoeffSpace("W", 2)
E0, E1 = (LogSeries.vector(CoeffVector.basis(W2, i)) for i in range(2))
R_EXPONENTS = (Exponent(0), Exponent(1), Exponent(-1), Exponent(Fraction(1, 2)), Exponent(0, 1),
               Exponent(Fraction(-3, 4), Fraction(1, 3)))

# ---------------------------------------------------------------------------
# tests


class TestAgainstReference:
    @given(monomial_pairs())
    @example((Monomial.var("x", Fraction(1, 2)) * Monomial.var("y", -1),
              Monomial.var("x", Fraction(-1, 2)) * Monomial.var("y")))
    @example((Monomial.var("x", 1, 2) * Monomial.var("z", Exponent(0, Fraction(1, 3))), Monomial.var("x", -1)))
    @settings(max_examples=400, deadline=None)
    def test_monomial_product(self, pair):
        m1, m2 = pair
        for a, b in ((m1, m2), (m2, m1)):
            got = a * b
            assert got.entries == ref_monomial_mul(a, b).entries and _canonical(got)
        assert (m1 * _inverse(m1)).entries == tuple((v, Exponent(0), k) for v, _, k in m1.entries if k)

    @given(st.one_of(scalar_series(), vector_series()), scalar_series())
    # x^(1/12) lies one lattice step above the cut
    @example(LogSeries.variable("x", -1).with_trunc({"x": 0}), LogSeries.variable("x", Fraction(13, 12)))
    @settings(max_examples=200, deadline=None)
    def test_series_product(self, f, g):
        assert _same(_outcome(lambda: f * g), _outcome(ref_mul, f, g))
        assert _same(_outcome(lambda: g * f), _outcome(ref_mul, g, f))

    @given(any_series(DENSE_MONOMIALS), any_series(DENSE_MONOMIALS))
    @example(X + ONE, ONE - X)
    @example(E0 + E0 * X, ONE - X)
    @example(E0 + E1 + (E0 - E1) * X, X + ONE)
    @example((E0 + E1 * X).with_trunc({"x": 1}), X.with_trunc({"y": 0}) + ONE)
    @settings(max_examples=200, deadline=None)
    def test_products_that_meet_and_cancel(self, f, g):
        """Sums of few monomials, so that pairs meet and terms or components
        cancel; two vector series raise the same error."""
        assert _same(_outcome(lambda: f * g), _outcome(ref_mul, f, g))
        assert _same(_outcome(lambda: g * f), _outcome(ref_mul, g, f))

    @given(any_series(), st.sampled_from(VARS), st.sampled_from(R_EXPONENTS))
    @example((LogSeries.monomial(Monomial.var("x", 1, 1)) - X) * Y, "x", Exponent(0))
    # x^4 lg(x) at trunc[x] = 4: its image x^4 under x d/dx lies above the lowered bound 3
    @example(LogSeries.monomial(Monomial.var("x", 4, 1), 2).with_trunc({"x": 4}) + X, "x", Exponent(1))
    @settings(max_examples=200, deadline=None)
    def test_d_dx(self, f, v, r):
        """v^r d/dv in one pass against the product of v^r with the derivative."""
        assert _same(f.d_dx(v, r), ref_mul(LogSeries.variable(v, r), ref_d_dx(f, v)))

    @given(
        any_series(st.sampled_from((Monomial.UNIT, Monomial.var("x"), Monomial.var("x", -1), Monomial.log("x", 2),
                                    Monomial.var("z", Fraction(1, 2)) * Monomial.var("x", 3),
                                    Monomial.var("x", Exponent(Fraction(1, 2), 1), 1), Monomial.var("y")))),
        st.sampled_from((ONE, X, X.scale(Fraction(-3, 2)), LogSeries.variable("x", -1).scale(Fraction(-3, 2)),
                         LogSeries.variable("x", Fraction(1, 2)), LogSeries.variable("x", Exponent(0, 1)).scale(2),
                         X * X + X.scale(2), LogSeries.log_variable("x"), Z, E0, X.with_trunc({"x": 3}),
                         LogSeries.zero(), LogSeries.variable("y"), X.scale(root_of_unity(Fraction(1, 3))),
                         LogSeries.variable("x", -1).scale(pi_scalar(1)))),
        st.integers(-1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_exp_diffop(self, f, p, order):
        """f in x, z and sometimes y; p one term c x^r (c rational, cyclotomic or a
        multiple of Pi), or not one (several terms, a log factor, another variable, a
        vector, a truncation, zero)."""
        assert _same(_outcome(f.exp_diffop, "y", p, "x", order), _outcome(ref_exp_diffop, f, "y", p, "x", order))


def test_exp_diffop_against_the_iterated_derivative():
    """The table kernel against one d_dx pass per order, on the 200 series that
    check_taylor draws at seed 0, at order 8 for T = d/dx, x d/dx and d/dy, exact
    and truncated at x:2.  For d/dx the truncated series lose low-order terms above
    the final bound x:-6 and keep the later ones."""
    rng = random.Random(0)
    final_bound_drops = 0
    for _ in range(200):
        f = catalog.random_log_series(rng)
        for g in (f, f.with_trunc({"x": 2})):
            for p, v in ((ONE, "x"), (X, "x"), (ONE, "y")):  # d/dy with y the expansion variable too
                got = g.exp_diffop("y", p, v, 8)
                assert _same(got, iterated_exp_diffop(g, "y", p, v, 8))
                final_bound_drops += p is ONE and "x" in g.trunc and any(m not in got.terms for m in g.terms)
    assert final_bound_drops


def test_loops_do_not_call_the_sorting_constructor(monkeypatch):
    """Products and derivatives of built series make no Monomial.__init__ call, and
    e^(yT) makes one per power of y (Monomial.var(y, k))."""
    f = X.scale(2) + LogSeries.monomial(Monomial.var("x", Fraction(1, 2), 2) * Monomial.var("z"), 3)
    f = f.with_trunc({"z": 2})
    g = (E0 * X + E1 * LogSeries.log_variable("x") + E0 * Z).with_trunc({"x": 3})
    p = X
    calls = []
    original = Monomial.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    Monomial()
    assert len(calls) == 1  # the counter sees constructions
    calls.clear()
    products = [f * g, g * f, f * f, f.d_dx("x"), g.d_dx("x"), g.d_dx("z"), g.d_dx("x", 1)]
    assert calls == []
    order = 3  # each power of x d/dx lowers trunc[x] = 3 by one: order 3 keeps the x^0 terms of g
    e = g.exp_diffop("y", p, "x", order)
    monkeypatch.undo()
    assert 0 < len(calls) <= order + 1
    assert all(not s.is_zero() for s in products) and not e.is_zero()
