"""The substitution kernel against the per-convention loops it replaced.

The reference below keeps one monomial loop per convention: each term's
image is built as a product of full series (binomial or exponential series,
the log power sum, the remaining monomial) and added to a rebuilt
accumulator.  Every convention must agree with it in terms and truncation
(the input's, which every convention keeps, and its own), and must raise the
same error types with the same messages.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcalc.scalars import (
    ExactScalar,
    Exponent,
    LatticeViolation,
    UnsupportedDivision,
    binom_general,
    pi_scalar,
    root_of_unity,
)
from logcalc.series import SCALAR, CoeffSpace, CoeffVector, LogSeries, Monomial, VariableCollision
from logcalc.substitution import (
    _require_fresh,
    pi_monomial_coefficient,
    series_exp,
    series_log1p,
    subst_mobius_arg,
    subst_scaled_exp,
    subst_x_exp_y,
    subst_x_plus_y,
    subst_xy,
)

# ---------------------------------------------------------------------------
# reference: one loop per convention


def binomial_power_series(n, x, y, order):
    """(x+y)^n = sum_k C(n,k) x^(n-k) y^k, truncated at y-order ``order``."""
    terms = {}
    for k in range(order + 1):
        terms[Monomial.var(x, n - k) * Monomial.var(y, k)] = CoeffVector.scalar(binom_general(n.as_scalar(), k))
    return LogSeries(SCALAR, terms, {y: order})


def log_shift_series(x, y, order):
    """log(1 + y/x) = sum_{i>=1} (-1)^(i-1)/i (y/x)^i, truncated at y-order ``order``."""
    terms = {Monomial.var(x, -i) * Monomial.var(y, i): CoeffVector.scalar(Fraction((-1) ** (i - 1), i))
             for i in range(1, order + 1)}
    return LogSeries(SCALAR, terms, {y: order})


def mobius_arg_powers(n, y, x, order):
    """Expansions of (x(1-yx)^(-1))^n and log(x(1-yx)^(-1)) to y-order ``order``.

    The first is sum_k C(-n,k) x^n (-yx)^k; the second is
    lg(x) + sum_{k>=1} (yx)^k / k.
    """
    return _mobius_arg_power(n, y, x, order), _mobius_arg_log(y, x, order)


def _mobius_arg_power(n, y, x, order):
    pow_terms = {}
    for k in range(order + 1):
        c = binom_general((-n).as_scalar(), k) * Fraction((-1) ** k)
        pow_terms[Monomial.var(x, n + k) * Monomial.var(y, k)] = CoeffVector.scalar(c)
    return LogSeries(SCALAR, pow_terms, {y: order})


def _mobius_arg_log(y, x, order):
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    log_terms = {Monomial.log(x): CoeffVector.scalar(1)}
    for k in range(1, order + 1):
        log_terms[Monomial.var(x, k) * Monomial.var(y, k)] = CoeffVector.scalar(Fraction(1, k))
    return LogSeries(SCALAR, log_terms, {y: order})


def _check_positive_valuation(h, v):
    for m in h.terms:
        if m.exponent(v).a <= 0:
            raise ValueError(f"series must have positive valuation in {v!r} (found {m!r})")


def ref_series_exp(h, v, order):
    """e^h after ``order`` powers of h: exact for valuation at least 1."""
    if h.space.dim != 1:
        raise ValueError("series_exp acts on scalar series")
    _check_positive_valuation(h, v)
    h = h.with_trunc({v: order})
    out = LogSeries.one().with_trunc({v: order})
    power = LogSeries.one().with_trunc({v: order})
    for i in range(1, order + 1):
        power = power * h
        out = out + power.scale(Fraction(1, math.factorial(i)))
    return out


def ref_series_log1p(h, v, order):
    """log(1+h) after ``order`` powers of h: exact for valuation at least 1."""
    _check_positive_valuation(h, v)
    h = h.with_trunc({v: order})
    out = LogSeries.zero(h.space, {v: order})
    power = LogSeries.one().with_trunc({v: order})
    for i in range(1, order + 1):
        power = power * h
        out = out + power.scale(Fraction((-1) ** (i - 1), i))
    return out


def _log_power_sum(base_log, shift, m, order_var, order):
    """(lg(base) + shift)^m for natural m, truncated in order_var."""
    out = LogSeries.zero(trunc={order_var: order})
    shift_pow = LogSeries.one().with_trunc({order_var: order})
    for j in range(m + 1):
        c = Fraction(math.comb(m, j))
        out = out + (LogSeries.monomial(Monomial.log(base_log, m - j), c) * shift_pow)
        if j < m:
            shift_pow = shift_pow * shift
    return out


def ref_x_plus_y(f, x, y, order):
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    _require_fresh(f, y)
    shift = log_shift_series(x, y, order)
    out = LogSeries.zero(f.space, {y: order})
    for mono, vec in f.items():
        n = mono.exponent(x)
        m = mono.log_power(x)
        rest = mono.without(x)
        part = binomial_power_series(n, x, y, order) * _log_power_sum(x, shift, m, y, order)
        out = out + part * LogSeries.vector(vec, rest)
    return out


def ref_x_exp_y(f, x, y, order):
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    _require_fresh(f, y)
    out = LogSeries.zero(f.space, {y: order})
    for mono, vec in f.items():
        n = mono.exponent(x)
        m = mono.log_power(x)
        rest = mono.without(x)
        ny = n.as_scalar()
        exp_terms = {}
        for k in range(order + 1):
            c = ny**k
            if not c.is_zero():
                exp_terms[Monomial.var(y, k)] = CoeffVector.scalar(c.divided_by_rational(math.factorial(k)))
        exp_ny = LogSeries(SCALAR, exp_terms, {y: order})
        part = exp_ny * _log_power_sum(x, LogSeries.variable(y), m, y, order)
        part = part * LogSeries.monomial(Monomial.var(x, n) * rest)
        out = out + part * LogSeries.vector(vec)
    return out


def ref_xy(f, x, y):
    _require_fresh(f, y)
    out = LogSeries.zero(f.space)
    for mono, vec in f.items():
        n = mono.exponent(x)
        m = mono.log_power(x)
        rest = mono.without(x)
        acc = LogSeries.zero(SCALAR)
        for j in range(m + 1):
            acc = acc + LogSeries.monomial(
                Monomial.var(x, n, m - j) * Monomial.var(y, n, j), Fraction(math.comb(m, j))
            )
        out = out + acc * LogSeries.vector(vec, rest)
    return out


def ref_scaled_exp(f, x, zeta):
    q = pi_monomial_coefficient(zeta)
    out = LogSeries.zero(f.space, f.trunc)
    for mono, vec in f.items():
        n = mono.exponent(x)
        if not n.is_real():
            raise LatticeViolation(
                f"substituting e^zeta x needs real exponents; {x}^({n.re}+{n.im}i) would leave the ring"
            )
        m = mono.log_power(x)
        rest = mono.without(x)
        factor = root_of_unity(q * n.re)
        acc = LogSeries.zero(SCALAR)
        for j in range(m + 1):
            c = (zeta ** (m - j)) * Fraction(math.comb(m, j))
            if not c.is_zero():
                acc = acc + LogSeries.monomial(Monomial.var(x, n, j) * rest, c * factor)
        out = out + acc * LogSeries.vector(vec)
    return out


def ref_mobius_arg(f, x, y, order):
    out = LogSeries.zero(f.space, {y: order})
    logpart_cache = {}
    for mono, vec in f.items():
        n = mono.exponent(x)
        k = mono.log_power(x)
        rest = mono.without(x)
        power, logpart = mobius_arg_powers(n, y, x, order)
        lp = logpart_cache.get(k)
        if lp is None:
            lp = LogSeries.one().with_trunc({y: order})
            for _ in range(k):
                lp = lp * logpart
            logpart_cache[k] = lp
        out = out + power * lp * LogSeries.vector(vec, rest)
    return out


# ---------------------------------------------------------------------------
# random inputs

LATTICE = [Fraction(p, q) for q in (1, 2, 3, 4, 6, 12) for p in range(-2 * q, 2 * q + 1)]
W = CoeffSpace("W", 3)


@st.composite
def scalars(draw):
    q = Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return ExactScalar.from_rational(q)
    if kind == 1:
        return root_of_unity(draw(st.sampled_from(LATTICE))) * q
    if kind == 2:
        return pi_scalar(q)
    return pi_scalar(q) + ExactScalar.from_rational(1)


@st.composite
def monomials(draw):
    entries = {}
    re = draw(st.sampled_from(LATTICE))
    im = draw(st.sampled_from(LATTICE)) if draw(st.integers(0, 7)) == 0 else 0
    entries["x"] = (Exponent(re, im), draw(st.integers(0, 3)))
    for v in draw(st.sets(st.sampled_from(("w", "z")), max_size=2)):
        entries[v] = (Exponent(draw(st.sampled_from(LATTICE))), draw(st.integers(0, 2)))
    return Monomial(entries)


@st.composite
def series(draw):
    """A nonzero series without truncation, over the scalars or over W."""
    space = draw(st.sampled_from((SCALAR, W)))
    terms = {}
    for mono in draw(st.lists(monomials(), min_size=1, max_size=5, unique=True)):
        if space == SCALAR:
            terms[mono] = CoeffVector.scalar(draw(scalars()))
        else:
            idx = draw(st.sets(st.integers(0, W.dim - 1), min_size=1))
            terms[mono] = CoeffVector(W, {i: draw(scalars()) for i in idx})
    return LogSeries(space, terms)


@st.composite
def scalar_arguments(draw):
    """A scalar series in x (and z) whose x-exponents are at least 1, where a
    cut after ``order`` powers is exact, or sometimes one of valuation <= 0;
    sometimes truncated in x."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.sampled_from((Fraction(1), Fraction(13, 12), Fraction(3, 2), Fraction(2), Fraction(7, 3))))
        if draw(st.integers(0, 9)) == 0:
            a = draw(st.sampled_from((Fraction(0), Fraction(-1, 2))))
        mono = Monomial.var("x", a, draw(st.integers(0, 2))) * Monomial.var("z", draw(st.sampled_from((0, 0, 1, -1))))
        terms[mono] = CoeffVector.scalar(draw(scalars()))
    out = LogSeries(SCALAR, terms)
    return out.with_trunc({"x": draw(st.integers(1, 5))}) if draw(st.booleans()) else out


# a fresh second variable, or one of the extra variables of `series`
SECOND = st.sampled_from(("y", "y", "y", "z"))
ZETAS = st.one_of(
    st.sampled_from(LATTICE).map(pi_scalar),
    st.sampled_from((ExactScalar.from_rational(1), pi_scalar(1) + ExactScalar.from_rational(1))),
)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return out.space, out.terms, out.trunc


# inputs that reach each error: a collision with z, a non-real and an
# off-lattice scaled exponent, a scale that is not a multiple of Pi
COLLIDING = LogSeries(SCALAR, {Monomial({"x": (Exponent(1), 1), "z": (Exponent(2), 0)}): CoeffVector.scalar(3)})
NON_REAL = LogSeries(W, {Monomial.var("x", Exponent(Fraction(1, 2), 1)): CoeffVector.basis(W, 1)})
TWELFTH = LogSeries.variable("x", Fraction(1, 12)) + LogSeries.log_variable("x")
NOT_PI = pi_scalar(1) + ExactScalar.from_rational(1)

# order-8 inputs as `check all` and the benchmark draw them, past the strategies'
# log powers: lg(x)^4, a complex exponent, a vector series, a truncation in z
LOG4 = LogSeries(SCALAR, {
    Monomial.var("x", Fraction(1, 2), 4): CoeffVector.scalar(3),
    Monomial.var("x", -2, 1): CoeffVector.scalar(pi_scalar(1)),
    Monomial.log("x", 3): CoeffVector.scalar(Fraction(-5, 2)),
})
COMPLEX = LogSeries(SCALAR, {
    Monomial.var("x", Exponent(Fraction(1, 3), Fraction(-1, 2)), 4): CoeffVector.scalar(root_of_unity(Fraction(1, 4))),
    Monomial.var("x", Exponent(-1, 1), 2): CoeffVector.scalar(2),
})
VECTOR = LogSeries(W, {
    Monomial.var("x", Fraction(3, 4), 4): CoeffVector(W, {0: 1, 2: pi_scalar(Fraction(1, 2)) + 1}),
    Monomial.var("x", -1, 1) * Monomial.var("z", 1): CoeffVector.basis(W, 1),
})
Z_TRUNCATED = LogSeries(SCALAR, {
    Monomial({"x": (Exponent(Fraction(1, 6)), 4), "z": (Exponent(1), 0)}): CoeffVector.scalar(Fraction(2, 3)),
    Monomial({"x": (Exponent(2), 3), "z": (Exponent(2), 1)}): CoeffVector.scalar(-1),
}).with_trunc({"z": 2})


def _keeping_trunc(ref):
    """The reference loop with the input's truncation kept, as every convention
    keeps it; the loops are written for untruncated inputs and drop it."""
    return lambda f, *args: ref(f, *args).with_trunc(f.trunc)


class TestAgainstReference:
    @given(series(), SECOND, st.integers(-1, 4))
    @example(COLLIDING, "z", 2)
    @example(COLLIDING, "y", -1)
    @example(LOG4, "y", 8)
    @example(COMPLEX, "y", 8)
    @example(VECTOR, "y", 8)
    @example(Z_TRUNCATED, "y", 8)
    @settings(max_examples=150, deadline=None)
    def test_x_plus_y(self, f, y, order):
        assert _outcome(subst_x_plus_y, f, "x", y, order) == _outcome(_keeping_trunc(ref_x_plus_y), f, "x", y, order)

    @given(series(), SECOND, st.integers(-1, 4))
    @example(COLLIDING, "z", 2)
    @example(COLLIDING, "y", -1)
    @example(LOG4, "y", 8)
    @example(COMPLEX, "y", 8)
    @example(VECTOR, "y", 8)
    @example(Z_TRUNCATED, "y", 8)
    @settings(max_examples=150, deadline=None)
    def test_x_exp_y(self, f, y, order):
        assert _outcome(subst_x_exp_y, f, "x", y, order) == _outcome(_keeping_trunc(ref_x_exp_y), f, "x", y, order)

    @given(series(), SECOND)
    @example(COLLIDING, "z")
    @settings(max_examples=150, deadline=None)
    def test_xy(self, f, y):
        assert _outcome(subst_xy, f, "x", y) == _outcome(ref_xy, f, "x", y)

    @given(series(), ZETAS)
    @example(NON_REAL, pi_scalar(1))
    @example(TWELFTH, pi_scalar(Fraction(1, 12)))
    @example(TWELFTH, NOT_PI)
    @example(LOG4, pi_scalar(Fraction(1, 2)))
    @settings(max_examples=150, deadline=None)
    def test_scaled_exp(self, f, zeta):
        assert _outcome(subst_scaled_exp, f, "x", zeta) == _outcome(ref_scaled_exp, f, "x", zeta)

    @given(series(), st.integers(-1, 4))
    @example(COLLIDING, -1)
    @example(LOG4, 8)
    @example(COMPLEX, 8)
    @example(VECTOR, 8)
    @example(Z_TRUNCATED, 8)
    @settings(max_examples=150, deadline=None)
    def test_mobius_arg(self, f, order):
        assert _outcome(subst_mobius_arg, f, "x", "y", order) == _outcome(
            _keeping_trunc(ref_mobius_arg), f, "x", "y", order
        )

    def test_error_examples_raise(self):
        """The examples above reach each error kind, not only agree."""
        assert _outcome(subst_x_plus_y, COLLIDING, "x", "z", 2)[0] is VariableCollision
        assert _outcome(subst_x_exp_y, COLLIDING, "x", "y", -1)[0] is ValueError
        assert _outcome(subst_mobius_arg, COLLIDING, "x", "y", -1)[0] is ValueError
        assert _outcome(subst_scaled_exp, NON_REAL, "x", pi_scalar(1))[0] is LatticeViolation
        assert _outcome(subst_scaled_exp, TWELFTH, "x", pi_scalar(Fraction(1, 12)))[0] is LatticeViolation
        assert _outcome(subst_scaled_exp, TWELFTH, "x", NOT_PI)[0] is UnsupportedDivision

    @given(scalar_arguments(), st.integers(-1, 5))
    @settings(max_examples=100, deadline=None)
    def test_series_exp_and_log1p(self, h, order):
        # valuation at least 1: the powers cut_powers keeps are the first order + 1
        assert _outcome(series_exp, h, "x", order) == _outcome(ref_series_exp, h, "x", order)
        assert _outcome(series_log1p, h, "x", order) == _outcome(ref_series_log1p, h, "x", order)

    def test_mobius_arg_needs_a_fresh_variable(self):
        # the reference loop has no such check
        assert _outcome(subst_mobius_arg, COLLIDING, "x", "z", 2) == (
            VariableCollision,
            "substitution variable 'z' already occurs in the series",
        )
