"""Substitution conventions for logarithmic formal series.

A convention is fixed by the images of x^n and of lg(x), an independent
variable; the rest of a series follows as a ring homomorphism that fixes
every other variable, with powers of a sum expanded by the binomial expansion
convention.  The result keeps the input's truncation and adds its own:

==================== ================ ==================== ==============================
convention           x^n              lg(x)                truncation
==================== ================ ==================== ==============================
``subst_x_plus_y``   (x+y)^n          lg(x) + log(1 + y/x) y-order; none in x
``subst_x_exp_y``    x^n e^(ny)       lg(x) + y            y-order
``subst_xy``         x^n y^n          lg(x) + lg(y)        --
``subst_scaled_exp`` e^(zeta n) x^n   lg(x) + zeta         --
``subst_mobius_arg`` x^n (1-yx)^(-n)  lg(x) - log(1-yx)    y-order
``subst_x_inverse``  x^(-n)           -lg(x)               none in x
==================== ================ ==================== ==============================

The three truncated conventions are one flow, e^(y x^(1+e) d/dx) for
e = -1, 0, 1: with w = y x^e and the log shift S(w) = -log(1 - e w)/e (S = w at
e = 0), x goes to x e^(S(w)) and lg(x) to lg(x) + S(w), so that x^n lg(x)^m goes to

    sum_j C(m, j) lg(x)^(m-j) x^n P_n(w) S(w)^j,    P_n(w) = e^(n S(w)) = (1 - e w)^(-n/e),

that is, P_n is (1+w)^n, e^(nw) or (1-w)^(-n), and S is log(1+w), w or -log(1-w).
The coefficients of P_n S^j come from multiplying the defining series, never
from a derivative, so the formal Taylor and scaling theorems compare two
independent code paths.  Each series is held as its table of k! L^k [w^k]
(L = ``LATTICE``), whose entries are Gaussian integers: p_k = prod_(t<k)
(a + b i + e t L) for n = (a + b i)/L, and s_i = e^(i-1) (i-1)! L^i with
0^0 = 1.  The binomial convolution sum_i C(k, i) a_i b_(k-i) multiplies two
tables, and one exact division by k! L^k gives each coefficient.  y has
valuation 1 in w, so the y-order cut keeps exactly k <= order.

"None in x": ``subst_x_plus_y`` and ``subst_x_inverse`` move the unknown terms
beyond a bound in x below it, so the input may not carry one.  All of them
share one kernel, which sends each term c x^n lg(x)^m rest to c rest times the
image of x^n lg(x)^m, a list of monomials with coefficients built once per
(n, m).  ``subst_xy`` and ``subst_scaled_exp`` have one-term images per log
power, x^n y^n lg(y)^j and e(qn) zeta^j; the inverse's image is the one term
(-1)^m x^(-n) lg(x)^m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator

from .scalars import (
    LATTICE,
    ExactScalar,
    Exponent,
    LatticeViolation,
    ScalarLike,
    UnsupportedDivision,
    gaussian_rational,
    root_of_unity,
)
from .series import SCALAR, CoeffVector, LogSeries, Monomial, TruncMap, VarId, VariableCollision, _merge_trunc, cut_powers

_Image = list[tuple[Monomial, ExactScalar]]


def _require_fresh(f: LogSeries, y: VarId) -> None:
    if f.uses_variable(y):
        raise VariableCollision(f"substitution variable {y!r} already occurs in the series")


def _substitute(f: LogSeries, x: VarId, image: Callable[[Exponent, int], _Image], trunc: TruncMap) -> LogSeries:
    """f with each term c x^n lg(x)^m rest replaced by the sum of c s h rest over
    the pairs (h, s) of ``image(n, m)``, built once per (n, m) in term order.
    The result is truncated at f.trunc merged with ``trunc``, and every h rest
    must lie inside it."""
    images: dict[tuple[Exponent, int], _Image] = {}
    acc: dict[Monomial, dict[int, ExactScalar]] = {}
    for mono, vec in f.items():
        key = (mono.exponent(x), mono.log_power(x))
        pairs = images.get(key)
        if pairs is None:
            pairs = images[key] = image(*key)
        rest, comps1 = mono.without(x), vec.components
        for head, c in pairs:
            target = rest * head
            comps = acc.get(target)
            if comps is None:
                acc[target] = {i: v * c for i, v in comps1.items()}
                continue
            for i, v in comps1.items():
                p = v * c
                cur = comps.get(i)
                if cur is None:
                    comps[i] = p
                else:
                    p = cur + p
                    if p.is_zero():
                        del comps[i]
                    else:
                        comps[i] = p
    out = {m: CoeffVector._trusted(f.space, comps) for m, comps in acc.items() if comps}
    return LogSeries._trusted(f.space, out, _merge_trunc(f.trunc, trunc))


def _egf_product(a: list[int], b: list[int]) -> list[int]:
    """The k! L^k [w^k] table of AB from those of A and B."""
    return [sum(math.comb(k, i) * a[i] * b[k - i] for i in range(k + 1) if b[k - i]) for k in range(len(a))]


def _flow(f: LogSeries, x: VarId, y: VarId, order: int, e: int) -> LogSeries:
    """f under x -> x e^(S(w)), lg(x) -> lg(x) + S(w) for w = y x^e (see the
    module docstring), truncated at y-order ``order``."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    _require_fresh(f, y)
    if e < 0 and x in f.trunc:
        raise ValueError(f"substituting {x}+{y} needs a series not truncated in {x!r}")
    ks = range(order + 1)
    dens = [math.factorial(k) * LATTICE**k for k in ks]
    shift = [0] + [e ** (i - 1) * math.factorial(i - 1) * LATTICE**i for i in ks[1:]]
    shift_powers = [[1] + [0] * order]  # the tables of S^j
    ys = [Monomial.var(y, k) for k in ks]
    xcap = f.trunc[x] * LATTICE if x in f.trunc else math.inf  # only e > 0 raises x-exponents to it

    def image(n: Exponent, m: int) -> _Image:
        re, im = [1], [0]  # the table of P_n: p_(k+1) = p_k (a + b i + e k L)
        for k in ks[:-1]:
            r, i, c = re[-1], im[-1], n.a + e * k * LATTICE
            re.append(r * c - i * n.b)
            im.append(r * n.b + i * c)
        while len(shift_powers) <= m:
            shift_powers.append(_egf_product(shift_powers[-1], shift))
        pairs = []
        for j in range(m + 1):
            b = math.comb(m, j)
            pre = _egf_product(re, shift_powers[j])
            pim = _egf_product(im, shift_powers[j]) if n.b else [0] * len(ks)
            for k in ks:
                a = n.a + e * k * LATTICE  # the x-exponent of x^n w^k, times L
                if (pre[k] or pim[k]) and a <= xcap:
                    head = ys[k]._with(x, Exponent._lattice(a, n.b), m - j)
                    pairs.append((head, gaussian_rational(b * pre[k], b * pim[k], dens[k])))
        return pairs

    return _substitute(f, x, image, {y: order})


def subst_x_plus_y(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x+y) by the binomial expansion convention, truncated at y-order ``order``."""
    return _flow(f, x, y, order, -1)


def subst_x_exp_y(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x e^y): x^n -> x^n e^(ny), lg(x) -> lg(x) + y; truncated at y-order."""
    return _flow(f, x, y, order, 0)


def subst_xy(f: LogSeries, x: VarId, y: VarId) -> LogSeries:
    """f(xy): x^n -> x^n y^n, lg(x) -> lg(x) + lg(y); exact, no truncation."""
    _require_fresh(f, y)

    def image(n: Exponent, m: int) -> _Image:
        return [(Monomial.var(y, n, j)._with(x, n, m - j), ExactScalar.from_rational(math.comb(m, j)))
                for j in range(m + 1)]

    return _substitute(f, x, image, {})


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
    return _substitute(f, x, lambda n, m: [(Monomial.UNIT._with(x, n, k), s)
                                           for k, s in _scaled_image(x, zeta, q, n, m)], {})


def _scaled_image(x: VarId, zeta: ExactScalar, q: Fraction, n: Exponent, m: int) -> list[tuple[int, ExactScalar]]:
    """The nonzero terms (k, s) of the image sum s x^n lg(x)^k of x^n lg(x)^m under x -> e^zeta x, zeta = q*Pi:
    s = e(qn) C(m, j) zeta^j for k = m - j.  Both scaled routes build from it, the series and the table one."""
    if not n.is_real():
        raise LatticeViolation(f"substituting e^zeta x needs real exponents; {x}^({n.re}+{n.im}i) would leave the ring")
    c = root_of_unity(q * n.re)
    terms = [(m - j, c * zeta**j * math.comb(m, j)) for j in range(m + 1)]
    return [(k, s) for k, s in terms if not s.is_zero()]


def subst_mobius_arg(f: LogSeries, x: VarId, y: VarId, order: int) -> LogSeries:
    """f(x(1-yx)^(-1)), truncated at y-order ``order``."""
    return _flow(f, x, y, order, 1)


def subst_x_inverse(f: LogSeries, x: VarId) -> LogSeries:
    """x^n lg(x)^m -> x^(-n) (-lg(x))^m, termwise (an involution)."""
    if x in f.trunc:
        raise ValueError(f"substituting 1/{x} needs a series not truncated in {x!r}")
    return _substitute(f, x, lambda n, m: [(Monomial.var(x, -n, m), ExactScalar.from_rational((-1) ** m))], {})


def _power_series(powers: list[LogSeries], coeffs: Iterator[ScalarLike]) -> LogSeries:
    """sum_k c_k u^k over the powers [1, u, u^2, ...] of :func:`cut_powers`."""
    terms: dict[Monomial, CoeffVector] = {}
    for power, c in zip(powers, coeffs):
        for m, vec in power.items():
            w = vec.scale(c)
            terms[m] = terms[m] + w if m in terms else w
    return LogSeries(SCALAR, terms, powers[0].trunc)


def series_exp(h: LogSeries, v: VarId, order: int) -> LogSeries:
    """e^h = sum h^k/k! for a scalar h of positive v-valuation, truncated at v-order."""
    return _power_series(cut_powers(h, v, order), (Fraction(1, math.factorial(k)) for k in count()))


def series_log1p(h: LogSeries, v: VarId, order: int) -> LogSeries:
    """log(1+h) = sum (-1)^(k-1) h^k/k for a scalar h of positive v-valuation."""
    return _power_series(cut_powers(h, v, order), (Fraction((-1) ** (k - 1), k) if k else 0 for k in count()))
