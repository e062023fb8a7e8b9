"""Substitution conventions for logarithmic formal series.

Each convention treats lg(x) as an independent variable and expands by the
binomial expansion convention (nonnegative integral powers of the second
summand):

* ``subst_x_plus_y``:  x^n -> (x+y)^n,  lg(x) -> lg(x) + log(1 + y/x),
* ``subst_x_exp_y``:   x^n -> x^n e^(ny),  lg(x) -> lg(x) + y,
* ``subst_xy``:        x^n -> x^n y^n,  lg(x) -> lg(x) + lg(y),
* ``subst_scaled_exp``: x^n -> e^(zeta n) x^n,  lg(x) -> zeta + lg(x)
  for zeta a rational multiple of Pi (so e^(zeta n) is an exact root of
  unity); the output depends on zeta itself, not only on e^zeta,
* ``subst_x_inverse``: x^n lg(x)^m -> x^(-n) (-lg(x))^m.

The first is implemented directly from the binomial/log-series expansion and
never via e^(y d/dx); the formal Taylor theorem is then a genuine cross-check
between two independent code paths (see the tests).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import (
    ExactScalar,
    Exponent,
    LatticeViolation,
    UnsupportedDivision,
    binom_general,
    root_of_unity,
)
from .series import CoeffVector, LogSeries, Monomial, VarId, VariableCollision


def _require_fresh(f: LogSeries, y: VarId) -> None:
    if f.uses_variable(y):
        raise VariableCollision(f"substitution variable {y!r} already occurs in the series")


def binomial_power_series(n: Exponent, x: VarId, y: VarId, order: int) -> LogSeries:
    """(x+y)^n = sum_k C(n,k) x^(n-k) y^k, truncated at y-order ``order``."""
    terms = {}
    for k in range(order + 1):
        c = binom_general(n.as_scalar(), k)
        if not c.is_zero():
            terms[Monomial.var(x, n - k) * Monomial.var(y, k)] = CoeffVector.scalar(c)
    return LogSeries(LogSeries.one().space, terms, {y: order})


def log_shift_series(x: VarId, y: VarId, order: int) -> LogSeries:
    """log(1 + y/x) = sum_{i>=1} (-1)^(i-1)/i (y/x)^i, truncated at y-order ``order``."""
    terms = {}
    for i in range(1, order + 1):
        terms[Monomial.var(x, -i) * Monomial.var(y, i)] = CoeffVector.scalar(
            Fraction((-1) ** (i - 1), i)
        )
    return LogSeries(LogSeries.one().space, terms, {y: order})


def _log_power_sum(base_log: VarId, shift: LogSeries, m: int, order_var: VarId, order: int) -> LogSeries:
    """(lg(base) + shift)^m for natural m, truncated in order_var."""
    lg = LogSeries.log_variable(base_log)
    out = LogSeries.zero(trunc={order_var: order})
    shift_pow = LogSeries.one().with_trunc({order_var: order})
    for j in range(m + 1):
        c = Fraction(math.comb(m, j))
        out = out + (LogSeries.monomial(Monomial.log(base_log, m - j), c) * shift_pow)
        if j < m:
            shift_pow = shift_pow * shift
    return out


def subst_x_plus_y(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x+y) by the binomial expansion convention, truncated at y-order ``order``."""
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
        out = out + (part * LogSeries.monomial(rest)).scale_vector(vec)
    return out


def subst_x_exp_y(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x e^y): x^n -> x^n e^(ny), lg(x) -> lg(x) + y; truncated at y-order."""
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
        exp_ny = LogSeries(LogSeries.one().space, exp_terms, {y: order})
        part = exp_ny * _log_power_sum(x, LogSeries.variable(y), m, y, order)
        part = part * LogSeries.monomial(Monomial.var(x, n) * rest)
        out = out + part.scale_vector(vec)
    return out


def subst_xy(f: LogSeries, x: VarId, y: VarId) -> LogSeries:
    """f(xy): x^n -> x^n y^n, lg(x) -> lg(x) + lg(y); exact, no truncation."""
    _require_fresh(f, y)
    out = LogSeries.zero(f.space)
    for mono, vec in f.items():
        n = mono.exponent(x)
        m = mono.log_power(x)
        rest = mono.without(x)
        acc = LogSeries.zero(LogSeries.one().space)
        for j in range(m + 1):
            acc = acc + LogSeries.monomial(
                Monomial.var(x, n, m - j) * Monomial.var(y, n, j), Fraction(math.comb(m, j))
            )
        out = out + (acc * LogSeries.monomial(rest)).scale_vector(vec)
    return out


def pi_monomial_coefficient(zeta: ExactScalar) -> Fraction:
    """The rational q with zeta = q*Pi; rejects anything else."""
    q = zeta * ExactScalar.pi_power(-1)
    if not q.is_rational():
        raise UnsupportedDivision(f"substitution scale must be a rational multiple of Pi, got {zeta}")
    return q.rational_value()


def subst_scaled_exp(f: LogSeries, x: VarId, zeta: ExactScalar) -> LogSeries:
    """f(e^zeta x) for zeta = q*Pi: x^n -> e(qn) x^n, lg(x)^k -> (zeta + lg(x))^k.

    Distinct zeta with the same e^zeta give distinct outputs through the log
    shift.  Requires real exponents with q*n on the lattice.
    """
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
        acc = LogSeries.zero(LogSeries.one().space)
        for j in range(m + 1):
            c = (zeta ** (m - j)) * Fraction(math.comb(m, j))
            if not c.is_zero():
                acc = acc + LogSeries.monomial(Monomial.var(x, n, j) * rest, c * factor)
        out = out + acc.scale_vector(vec)
    return out


def subst_x_inverse(f: LogSeries, x: VarId) -> LogSeries:
    """x^n lg(x)^m -> x^(-n) (-lg(x))^m, termwise (an involution)."""
    out: dict[Monomial, CoeffVector] = {}
    for mono, vec in f.items():
        n = mono.exponent(x)
        m = mono.log_power(x)
        target = mono.without(x) * Monomial.var(x, -n, m)
        w = vec.scale(Fraction((-1) ** m))
        cur = out.get(target)
        s = w if cur is None else cur + w
        if not s.is_zero():
            out[target] = s
        else:
            out.pop(target, None)
    return LogSeries(f.space, out, f.trunc)


def mobius_arg_powers(n: Exponent, y: VarId, x: VarId, order: int) -> tuple[LogSeries, LogSeries]:
    """Expansions of (x(1-yx)^(-1))^n and log(x(1-yx)^(-1)) to y-order ``order``.

    The first is sum_k C(-n,k) x^n (-yx)^k; the second is
    lg(x) + sum_{k>=1} (yx)^k / k.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    pow_terms = {}
    for k in range(order + 1):
        c = binom_general((-n).as_scalar(), k) * Fraction((-1) ** k)
        if not c.is_zero():
            pow_terms[Monomial.var(x, n + k) * Monomial.var(y, k)] = CoeffVector.scalar(c)
    power = LogSeries(LogSeries.one().space, pow_terms, {y: order})
    log_terms = {Monomial.log(x): CoeffVector.scalar(1)}
    for k in range(1, order + 1):
        log_terms[Monomial.var(x, k) * Monomial.var(y, k)] = CoeffVector.scalar(Fraction(1, k))
    logpart = LogSeries(LogSeries.one().space, log_terms, {y: order})
    return power, logpart


def series_exp(h: LogSeries, v: VarId, order: int) -> LogSeries:
    """e^h = sum h^i/i! for h with positive v-valuation, truncated at v-order."""
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


def series_log1p(h: LogSeries, v: VarId, order: int) -> LogSeries:
    """log(1+h) = sum (-1)^(i-1) h^i / i for h with positive v-valuation."""
    _check_positive_valuation(h, v)
    h = h.with_trunc({v: order})
    out = LogSeries.zero(h.space, {v: order})
    power = LogSeries.one().with_trunc({v: order})
    for i in range(1, order + 1):
        power = power * h
        out = out + power.scale(Fraction((-1) ** (i - 1), i))
    return out


def _check_positive_valuation(h: LogSeries, v: VarId) -> None:
    for m in h.terms:
        if m.exponent(v).re <= 0:
            raise ValueError(f"series must have positive valuation in {v!r} (found {m!r})")
