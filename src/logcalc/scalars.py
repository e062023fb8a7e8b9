"""Exact scalar arithmetic for the whole library.

Every scalar is an :class:`ExactScalar`: a Laurent polynomial in a
transcendental symbol Pi (standing for the constant pi*i) with coefficients
in the cyclotomic field Q(zeta_24).  The lattice bound L = 12 is fixed
(``LATTICE``), and zeta = zeta_2L = e(1/12) with its powers covers halves,
thirds and quarters.  A scalar is stored as integer numerators over one
denominator: a dict ``num`` from ``(Pi power, zeta index)`` to a nonzero
``int``, and one positive ``int`` ``den``, canonical when gcd(den, every
numerator) = 1.  Zeta indices lie below phi(24) = 8, the canonical reduced
basis of the field.  Phi_24 is monic with integer coefficients, so the table
that reduces zeta powers to that basis is integral and sums and products
run on ints, with one gcd to restore the canonical form.  A rational n/d is
the single entry ``(0, 0): n`` over ``d``, so a product with a rational only
scales the numerators of the other factor and cancels crosswise.

Exponents of formal variables live on the Gaussian lattice (1/L)Z[i] and are
modelled by :class:`Exponent` as the integers L*re and L*im, checked for the
lattice only where a rational enters (:class:`Exponent`, :func:`root_of_unity`).

Division of an :class:`ExactScalar` is only defined by invertible monomials
c*Pi^k; everything else raises :class:`UnsupportedDivision`.  This is what
keeps equality decidable: Pi never cancels against anything.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

LATTICE = 12  # the lattice bound L: exponents live in (1/L)Z[i]
_ORDER = 2 * LATTICE  # the order of zeta


class LatticeViolation(ValueError):
    """A rational fell off the (1/L)Z lattice, or roots of unity left Q(zeta_24)."""


class UnsupportedDivision(ZeroDivisionError):
    """Division by a scalar that is not an invertible Pi-monomial."""


def _lattice_int(q: Fraction | int, what: str = "exponent") -> int:
    """L*q as an int: the lattice check, made where a rational enters (1/L)Z."""
    if isinstance(q, int):
        return q * LATTICE
    q = q if q.__class__ is Fraction else Fraction(q)
    if LATTICE % q.denominator:
        raise LatticeViolation(f"{what} {q} has denominator {q.denominator}, which does not divide L={LATTICE}")
    return q.numerator * (LATTICE // q.denominator)


# ---------------------------------------------------------------------------
# the cyclotomic field: reduction of zeta powers to the canonical basis

_PHI = 8  # phi(24): Phi_24 = x^8 - x^4 + 1


def _zeta_powers() -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta^k for k < 48 in the canonical basis, as sparse ``(basis index,
    nonzero int)`` pairs: each power is the one before times zeta, reduced
    by zeta^8 = zeta^4 - 1."""
    reps, cur = [], [1] + [0] * (_PHI - 1)
    for _ in range(2 * _ORDER):
        reps.append(tuple((j, c) for j, c in enumerate(cur) if c))
        top, cur = cur[-1], [0] + cur[:-1]
        cur[4] += top
        cur[0] -= top
    return tuple(reps)


_REPS = _zeta_powers()


def _accumulate(out: dict, key: tuple[int, int], c: int) -> None:
    prev = out.get(key)
    out[key] = c if prev is None else prev + c


def _nonzero(out: dict) -> dict:
    return {key: c for key, c in out.items() if c}


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two numerator maps, reduced through the zeta^k table."""
    phi, reps = _PHI, _REPS
    out: dict = {}
    for (p1, k1), c1 in a.items():
        for (p2, k2), c2 in b.items():
            c = c1 * c2
            p, k = p1 + p2, k1 + k2
            if k < phi:
                _accumulate(out, (p, k), c)
            else:
                for j, r in reps[k]:
                    _accumulate(out, (p, j), c * r)
    return _nonzero(out)


def _conjugate_terms(a: dict, j: int) -> dict:
    """The Galois conjugate zeta -> zeta^j of a numerator map."""
    out: dict = {}
    for (p, k), c in a.items():
        for i, r in _REPS[j * k % _ORDER]:
            _accumulate(out, (p, i), c * r)
    return _nonzero(out)


def _ratio(q: Fraction | int) -> tuple[int, int]:
    """The numerator and the positive denominator of a rational, in lowest terms."""
    q = q if q.__class__ is int or q.__class__ is Fraction else Fraction(q)
    return q.numerator, q.denominator


def _reduced(num: dict[tuple[int, int], int], den: int) -> ExactScalar:
    """The scalar num/den for den > 0 and nonzero numerators, made canonical."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num, den = {key: c // g for key, c in num.items()}, den // g
    return ExactScalar(num, den)


ScalarLike = Union["ExactScalar", Fraction, int]

_RATIONAL = (0, 0)  # the key of n in the rational scalar n/d: Pi^0 * zeta^0
_MODULUS = sys.hash_info.modulus  # Python hashes a rational n/d as n * d^-1 mod this prime


class ExactScalar:
    """Laurent polynomial in Pi (= pi*i) over Q(zeta_24), in canonical form.

    The value is the sum of ``num[(p, k)] * zeta^k * Pi^p`` over ``num``,
    divided by ``den``: nonzero int numerators, 0 <= k < phi(24), a positive
    int ``den`` and gcd(den, every numerator) = 1; zero is ``{}`` over 1.
    The constructor trusts its arguments to be canonical in this sense and
    keeps the dict it is given; treat instances as immutable.  Pi is
    transcendental by construction: no operation ever merges distinct Pi-powers.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: dict[tuple[int, int], int] | None = None, den: int = 1):
        self.num = num if num is not None else {}
        self.den = den
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> ExactScalar:
        return ExactScalar()

    @staticmethod
    def from_rational(q: Fraction | int) -> ExactScalar:
        n, d = _ratio(q)
        return ExactScalar({_RATIONAL: n}, d) if n else ExactScalar()

    @staticmethod
    def pi_power(k: int, coeff: Fraction | int = 1) -> ExactScalar:
        n, d = _ratio(coeff)
        return ExactScalar({(k, 0): n}, d) if n else ExactScalar()

    @staticmethod
    def coerce(v: ScalarLike) -> ExactScalar:
        if isinstance(v, ExactScalar):
            return v
        if isinstance(v, (int, Fraction)):
            return ExactScalar.from_rational(v)
        raise TypeError(f"cannot coerce {v!r} to ExactScalar")

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        t = self.num
        return not t or (len(t) == 1 and _RATIONAL in t)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num.get(_RATIONAL, 0), self.den)

    def is_monomial(self) -> bool:
        """Exactly one Pi-power with an (automatically invertible) nonzero coefficient."""
        return len({p for p, _ in self.num}) == 1

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: ScalarLike) -> ExactScalar:
        if other.__class__ is not ExactScalar:
            other = ExactScalar.coerce(other)
        a, b = self.num, other.num
        if not a:
            return other
        if not b:
            return self
        da, db = self.den, other.den
        if da == db:
            g, sb, out = da, 1, dict(a)
        else:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            out = {key: c * sa for key, c in a.items()}
        for key, c in b.items():
            c *= sb
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        # coprime denominators: nothing cancels, and a zero sum has da = db = 1 (Knuth 4.5.1)
        return ExactScalar(out, da * db) if g == 1 else _reduced(out, da * (db // g))

    __radd__ = __add__

    def __neg__(self) -> ExactScalar:
        return ExactScalar({key: -c for key, c in self.num.items()}, self.den)

    def __sub__(self, other: ScalarLike) -> ExactScalar:
        return self + (-ExactScalar.coerce(other))

    def _scaled(self, n: int, d: int) -> ExactScalar:
        """self * n/d for n/d in lowest terms with d > 0: n cancels against den
        and d against the numerators, as for Fractions."""
        num, den = self.num, self.den
        if den != 1:
            g = math.gcd(n, den)
            if g != 1:
                n, den = n // g, den // g
        if d != 1:
            g = math.gcd(d, next(iter(num.values()))) if len(num) == 1 else math.gcd(d, *num.values())
            if g != 1:
                num, d = {key: c // g for key, c in num.items()}, d // g
        return ExactScalar({key: c * n for key, c in num.items()} if n != 1 else num, den * d)

    def __mul__(self, other: ScalarLike) -> ExactScalar:
        if other.__class__ is not ExactScalar:
            other = ExactScalar.coerce(other)
        a, b = self.num, other.num
        # rational fast path: scale the numerators of the other factor
        if len(a) == 1 and _RATIONAL in a:
            return other._scaled(a[_RATIONAL], self.den)
        if len(b) == 1 and _RATIONAL in b:
            return self._scaled(b[_RATIONAL], other.den)
        return _reduced(_mul_terms(a, b), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> ExactScalar:
        if n < 0:
            return self.inverse() ** (-n)
        out = ExactScalar({_RATIONAL: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self) -> ExactScalar:
        """1/self for an invertible Pi-monomial c*Pi^k (c a nonzero cyclotomic)."""
        t, den = self.num, self.den
        if not t:
            raise UnsupportedDivision("division by zero")
        powers = {p for p, _ in t}
        if len(powers) != 1:
            raise UnsupportedDivision(f"{self} is not a Pi-monomial")
        [k] = powers
        if len(t) == 1 and (k, 0) in t:
            n = t[(k, 0)]
            return ExactScalar({(-k, 0): den if n > 0 else -den}, abs(n))
        # c times the product of its other Galois conjugates is the integer norm N(c),
        # so 1/(c/den) = den * rest / N(c)
        c = {(0, i): v for (_, i), v in t.items()}
        rest = {_RATIONAL: 1}
        for j in range(2, _ORDER):
            if math.gcd(j, _ORDER) == 1:
                rest = _mul_terms(rest, _conjugate_terms(c, j))
        norm = _mul_terms(c, rest)[_RATIONAL]
        den = den if norm > 0 else -den
        return _reduced({(-k, i): v * den for (_, i), v in rest.items()}, abs(norm))

    def divided_by_rational(self, q: Fraction | int) -> ExactScalar:
        if q == 0:
            raise UnsupportedDivision("division by zero")
        n, d = _ratio(q)
        return self._scaled(d, n) if n > 0 else self._scaled(-d, -n)

    # -- comparisons / misc -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ExactScalar:
            if other.__class__ is int:
                # the canonical n/1 is {(0, 0): n} over 1, and 0 is {} over 1
                num = self.num
                return self.den == 1 and (num.get(_RATIONAL) == other and len(num) == 1 if other else not num)
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ExactScalar.from_rational(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        # a rational (or zero) equals its Fraction, so it hashes like one
        if self._hash is None:
            if not self.is_rational():
                self._hash = hash((self.den, tuple(sorted(self.num.items()))))
            elif self.den % _MODULUS:
                self._hash = hash(self.num.get(_RATIONAL, 0) * pow(self.den, -1, _MODULUS))
            else:  # a denominator divisible by the hash prime: Python's infinity hash
                self._hash = hash(self.rational_value())
        return self._hash

    def __repr__(self) -> str:
        from .printer import scalar_str  # local import: printer depends on scalars

        return f"ExactScalar({scalar_str(self)})"


def zeta_power(k: int) -> ExactScalar:
    """zeta^k = e(k/L), the k-th power of zeta = zeta_2L."""
    return ExactScalar({(0, j): c for j, c in _REPS[k % _ORDER]})


def pi_scalar(coeff: Fraction | int = 1) -> ExactScalar:
    """coeff * Pi, i.e. coeff * (pi i)."""
    return ExactScalar.pi_power(1, coeff)


def root_of_unity(q: Fraction | int) -> ExactScalar:
    """Exact e^(pi i q) = zeta_2L^(qL); q must lie on the (1/L)Z lattice."""
    return zeta_power(_lattice_int(q, "root-of-unity argument"))


def imaginary_unit() -> ExactScalar:
    return root_of_unity(Fraction(1, 2))


def binom_general(m: ScalarLike, k: int) -> ExactScalar:
    """Generalized binomial coefficient m(m-1)...(m-k+1)/k! for scalar m."""
    if k < 0:
        raise ValueError("binomial lower index must be nonnegative")
    m = ExactScalar.coerce(m)
    out = ExactScalar.from_rational(1)
    for t in range(k):
        out = out * (m - ExactScalar.from_rational(t))
    return out.divided_by_rational(math.factorial(k))


def gaussian_rational(re: int, im: int, den: int) -> ExactScalar:
    """(re + im i)/den for ints and den > 0: re at zeta^0 and im times the entries
    of i = zeta^(L/2)."""
    num = {(0, j): im * r for j, r in _REPS[LATTICE // 2]} if im else {}
    if re:
        num[_RATIONAL] = re
    return _reduced(num, den)


class Exponent:
    """The exponent (a + b i)/L on the lattice (1/L)Z[i] of a formal variable, stored as
    the two ints ``a = L*re`` and ``b = L*im``: sums, comparisons and hashes build no Fraction."""

    __slots__ = ("a", "b", "_hash")
    # hash(a * _INV_L) == hash(Fraction(a, L)): Python hashes a rational n/d as n * d^-1 mod this prime
    _INV_L = pow(LATTICE, -1, _MODULUS)

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        self.a, self.b, self._hash = _lattice_int(re), _lattice_int(im), None

    @staticmethod
    def _lattice(a: int, b: int) -> Exponent:
        """The exponent (a + b i)/L, trusted to lie on the lattice."""
        e = object.__new__(Exponent)
        e.a, e.b, e._hash = a, b, None
        return e

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, LATTICE)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, LATTICE)

    @staticmethod
    def coerce(v: "Exponent | Fraction | int") -> Exponent:
        return v if isinstance(v, Exponent) else Exponent(v)

    def __add__(self, other: "Exponent | Fraction | int") -> Exponent:
        other = other if other.__class__ is Exponent else Exponent(other)
        return Exponent._lattice(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: "Exponent | Fraction | int") -> Exponent:
        other = other if other.__class__ is Exponent else Exponent(other)
        return Exponent._lattice(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: "Exponent | Fraction | int") -> Exponent:
        return Exponent.coerce(other) - self

    def __neg__(self) -> Exponent:
        return Exponent._lattice(-self.a, -self.b)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

    def is_integer(self) -> bool:
        return not self.b and not self.a % LATTICE

    def as_scalar(self) -> ExactScalar:
        """(a + b i)/L."""
        return gaussian_rational(self.a, self.b, LATTICE)

    def sort_key(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Exponent:
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a * other.denominator == other.numerator * LATTICE
        return NotImplemented

    def __hash__(self) -> int:
        # a real exponent equals its Fraction, so it hashes like one
        if self._hash is None:
            a = hash(self.a * self._INV_L)
            self._hash = hash((a, hash(self.b * self._INV_L))) if self.b else a
        return self._hash

    def __repr__(self) -> str:
        from .printer import exponent_str

        return f"Exponent({exponent_str(self)})"
