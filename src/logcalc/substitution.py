"""Substitution conventions for logarithmic formal series.

A convention is fixed by the images of x^n and of lg(x), an independent
variable; the rest of a series follows as a ring homomorphism that fixes
every other variable, with powers of a sum expanded by the binomial expansion
convention.  The result keeps the input's truncation and adds its own:

==================== ================ ==================== ==================
convention           x^n              lg(x)                truncation
==================== ================ ==================== ==================
``subst_x_plus_y``   (x+y)^n          lg(x) + log(1 + y/x) y-order; none in x
``subst_x_exp_y``    x^n e^(ny)       lg(x) + y            y-order
``subst_xy``         x^n y^n          lg(x) + lg(y)        --
``subst_scaled_exp`` e^(zeta n) x^n   lg(x) + zeta         --
``subst_mobius_arg`` x^n (1-yx)^(-n)  lg(x) - log(1-yx)    y-order
``subst_x_inverse``  x^(-n)           -lg(x)               none in x
==================== ================ ==================== ==================

"None in x": these two move the unknown terms beyond a bound in x below it,
so the input may not carry one.  The inverse is a termwise relabelling; the
others share one kernel.  ``subst_x_plus_y`` never goes through e^(y d/dx),
so the formal Taylor theorem cross-checks two independent code paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .scalars import (
    ExactScalar,
    Exponent,
    LatticeViolation,
    UnsupportedDivision,
    binom_general,
    root_of_unity,
)
from .series import SCALAR, CoeffVector, LogSeries, Monomial, TruncMap, VarId, VariableCollision, _merge_trunc


def _require_fresh(f: LogSeries, y: VarId) -> None:
    if f.uses_variable(y):
        raise VariableCollision(f"substitution variable {y!r} already occurs in the series")


def _substitute(
    f: LogSeries, x: VarId, power: Callable[[Exponent], LogSeries], log: LogSeries, trunc: TruncMap
) -> LogSeries:
    """The image of f under x^n -> power(n), lg(x) -> log: each term
    c x^n lg(x)^m rest goes to c power(n) log^m rest, truncated at f.trunc
    merged with ``trunc``.  The terms are gathered by m first, so that log^m
    multiplies the sum of their c power(n) rest in one product."""
    trunc = _merge_trunc(f.trunc, trunc)
    powers: dict[Exponent, LogSeries] = {}
    parts: dict[int, dict[Monomial, CoeffVector]] = {}
    for mono, vec in f.items():
        n = mono.exponent(x)
        if n not in powers:
            powers[n] = power(n)
        rest = mono.without(x)
        part = parts.setdefault(mono.log_power(x), {})
        for pm, pc in powers[n].items():
            target, w = pm * rest, vec.scale(pc.scalar_value())
            part[target] = part[target] + w if target in part else w
    out = LogSeries(f.space, parts.pop(0, {}), trunc)
    logs = [log]  # logs[i] = log^(i+1)
    for m, part in parts.items():
        while len(logs) < m:
            logs.append(logs[-1] * log)
        out = out + logs[m - 1] * LogSeries(f.space, part, trunc)
    return out


def binomial_power_series(n: Exponent, x: VarId, y: VarId, order: int) -> LogSeries:
    """(x+y)^n = sum_k C(n,k) x^(n-k) y^k, truncated at y-order ``order``."""
    terms = {}
    for k in range(order + 1):
        terms[Monomial.var(x, n - k) * Monomial.var(y, k)] = CoeffVector.scalar(binom_general(n.as_scalar(), k))
    return LogSeries(SCALAR, terms, {y: order})


def log_shift_series(x: VarId, y: VarId, order: int) -> LogSeries:
    """log(1 + y/x) = sum_{i>=1} (-1)^(i-1)/i (y/x)^i, truncated at y-order ``order``."""
    terms = {Monomial.var(x, -i) * Monomial.var(y, i): CoeffVector.scalar(Fraction((-1) ** (i - 1), i))
             for i in range(1, order + 1)}
    return LogSeries(SCALAR, terms, {y: order})


def subst_x_plus_y(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x+y) by the binomial expansion convention, truncated at y-order ``order``."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    _require_fresh(f, y)
    if x in f.trunc:
        raise ValueError(f"substituting {x}+{y} needs a series not truncated in {x!r}")
    log = LogSeries.log_variable(x) + log_shift_series(x, y, order)
    return _substitute(f, x, lambda n: binomial_power_series(n, x, y, order), log, {y: order})


def subst_x_exp_y(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x e^y): x^n -> x^n e^(ny), lg(x) -> lg(x) + y; truncated at y-order."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    _require_fresh(f, y)

    def power(n: Exponent) -> LogSeries:
        ny = n.as_scalar()
        terms = {}
        for k in range(order + 1):
            c = (ny**k).divided_by_rational(math.factorial(k))
            terms[Monomial.var(x, n) * Monomial.var(y, k)] = CoeffVector.scalar(c)
        return LogSeries(SCALAR, terms, {y: order})

    return _substitute(f, x, power, LogSeries.log_variable(x) + LogSeries.variable(y), {y: order})


def subst_xy(f: LogSeries, x: VarId, y: VarId) -> LogSeries:
    """f(xy): x^n -> x^n y^n, lg(x) -> lg(x) + lg(y); exact, no truncation."""
    _require_fresh(f, y)
    log = LogSeries.log_variable(x) + LogSeries.log_variable(y)
    return _substitute(f, x, lambda n: LogSeries.monomial(Monomial.var(x, n) * Monomial.var(y, n)), log, {})


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

    def power(n: Exponent) -> LogSeries:
        if not n.is_real():
            raise LatticeViolation(
                f"substituting e^zeta x needs real exponents; {x}^({n.re}+{n.im}i) would leave the ring"
            )
        return LogSeries.monomial(Monomial.var(x, n), root_of_unity(q * n.re))

    return _substitute(f, x, power, LogSeries.log_variable(x) + LogSeries.constant(zeta), {})


def subst_mobius_arg(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x(1-yx)^(-1)), truncated at y-order ``order``."""
    log = _mobius_arg_log(y, x, order)
    _require_fresh(f, y)
    return _substitute(f, x, lambda n: _mobius_arg_power(n, y, x, order), log, {y: order})


def subst_x_inverse(f: LogSeries, x: VarId) -> LogSeries:
    """x^n lg(x)^m -> x^(-n) (-lg(x))^m, termwise (an involution)."""
    if x in f.trunc:
        raise ValueError(f"substituting 1/{x} needs a series not truncated in {x!r}")
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
    return _mobius_arg_power(n, y, x, order), _mobius_arg_log(y, x, order)


def _mobius_arg_power(n: Exponent, y: VarId, x: VarId, order: int) -> LogSeries:
    pow_terms = {}
    for k in range(order + 1):
        c = binom_general((-n).as_scalar(), k) * Fraction((-1) ** k)
        pow_terms[Monomial.var(x, n + k) * Monomial.var(y, k)] = CoeffVector.scalar(c)
    return LogSeries(SCALAR, pow_terms, {y: order})


def _mobius_arg_log(y: VarId, x: VarId, order: int) -> LogSeries:
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    log_terms = {Monomial.log(x): CoeffVector.scalar(1)}
    for k in range(1, order + 1):
        log_terms[Monomial.var(x, k) * Monomial.var(y, k)] = CoeffVector.scalar(Fraction(1, k))
    return LogSeries(SCALAR, log_terms, {y: order})


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
        if m.exponent(v).a <= 0:
            raise ValueError(f"series must have positive valuation in {v!r} (found {m!r})")
