"""Substitution conventions for logarithmic formal series.

A convention is fixed by the images of x^n and of lg(x), an independent
variable; the rest of a series follows as a ring homomorphism that fixes
every other variable, with powers of a sum expanded by the binomial expansion
convention.  The result keeps the input's truncation and adds its own:

==================== ================ ==================== ==============================
convention           x^n              lg(x)                truncation
==================== ================ ==================== ==============================
``subst_x_plus_y``   (x+y)^n          lg(x) + log(1 + y/x) y-order in u = y/x; none in x
``subst_x_exp_y``    x^n e^(ny)       lg(x) + y            y-order in u = y
``subst_xy``         x^n y^n          lg(x) + lg(y)        --
``subst_scaled_exp`` e^(zeta n) x^n   lg(x) + zeta         --
``subst_mobius_arg`` x^n (1-yx)^(-n)  lg(x) - log(1-yx)    y-order in u = -yx
``subst_x_inverse``  x^(-n)           -lg(x)               none in x
==================== ================ ==================== ==============================

A truncated image sums a power series in u over :func:`~logcalc.series.cut_powers`,
as do ``series_exp`` and ``series_log1p``: exact modulo the cut for any positive valuation.

"None in x": these two move the unknown terms beyond a bound in x below it,
so the input may not carry one.  The inverse is a termwise relabelling; the
others share one kernel.  ``subst_x_plus_y`` never goes through e^(y d/dx),
so the formal Taylor theorem cross-checks two independent code paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count
from typing import Callable, Iterator

from .scalars import (
    ExactScalar,
    Exponent,
    LatticeViolation,
    ScalarLike,
    UnsupportedDivision,
    root_of_unity,
)
from .series import SCALAR, CoeffVector, LogSeries, Monomial, TruncMap, VarId, VariableCollision, _merge_trunc, cut_powers


_ONE = ExactScalar.from_rational(1)


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


def _power_series(powers: list[LogSeries], coeffs: Iterator[ScalarLike]) -> LogSeries:
    """sum_k c_k u^k over the powers [1, u, u^2, ...] of :func:`cut_powers`, the
    c_k read from the endless running recurrence ``coeffs``."""
    terms: dict[Monomial, CoeffVector] = {}
    for power, c in zip(powers, coeffs):
        for m, vec in power.items():
            w = vec.scale(c)
            terms[m] = terms[m] + w if m in terms else w
    return LogSeries(SCALAR, terms, powers[0].trunc)


def _exp_coeffs(a: ScalarLike) -> Iterator[ExactScalar]:
    """a^k/k!, the coefficients of e^(au)."""
    return accumulate(count(1), lambda c, k: (c * a).divided_by_rational(k), initial=_ONE)


def _binomial_coeffs(m: ExactScalar) -> Iterator[ExactScalar]:
    """C(m, k), the coefficients of (1+u)^m: C(m, k+1) = C(m, k)(m-k)/(k+1)."""
    return accumulate(count(), lambda c, k: (c * (m - k)).divided_by_rational(k + 1), initial=_ONE)


def _log1p_coeffs() -> Iterator[Fraction]:
    """(-1)^(k-1)/k, the coefficients of log(1+u)."""
    return (Fraction((-1) ** (k - 1), k) if k else Fraction(0) for k in count())


def subst_x_plus_y(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x+y) by the binomial expansion convention, truncated at y-order ``order``."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    _require_fresh(f, y)
    if x in f.trunc:
        raise ValueError(f"substituting {x}+{y} needs a series not truncated in {x!r}")
    powers = cut_powers(LogSeries.monomial(Monomial.var(x, -1) * Monomial.var(y)), y, order)
    log = LogSeries.log_variable(x) + _power_series(powers, _log1p_coeffs())

    def power(n: Exponent) -> LogSeries:
        return LogSeries.variable(x, n) * _power_series(powers, _binomial_coeffs(n.as_scalar()))

    return _substitute(f, x, power, log, {y: order})


def subst_x_exp_y(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x e^y): x^n -> x^n e^(ny), lg(x) -> lg(x) + y; truncated at y-order."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    _require_fresh(f, y)
    powers = cut_powers(LogSeries.variable(y), y, order)

    def power(n: Exponent) -> LogSeries:
        return LogSeries.variable(x, n) * _power_series(powers, _exp_coeffs(n.as_scalar()))

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
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    _require_fresh(f, y)
    powers = cut_powers(LogSeries.monomial(Monomial.var(x) * Monomial.var(y), -1), y, order)
    log = LogSeries.log_variable(x) - _power_series(powers, _log1p_coeffs())

    def power(n: Exponent) -> LogSeries:
        return LogSeries.variable(x, n) * _power_series(powers, _binomial_coeffs((-n).as_scalar()))

    return _substitute(f, x, power, log, {y: order})


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


def series_exp(h: LogSeries, v: VarId, order: int) -> LogSeries:
    """e^h = sum h^k/k! for a scalar h of positive v-valuation, truncated at v-order."""
    return _power_series(cut_powers(h, v, order), _exp_coeffs(1))


def series_log1p(h: LogSeries, v: VarId, order: int) -> LogSeries:
    """log(1+h) = sum (-1)^(k-1) h^k/k for a scalar h of positive v-valuation."""
    return _power_series(cut_powers(h, v, order), _log1p_coeffs())
