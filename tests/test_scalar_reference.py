"""Integer-numerator scalars against the dict-of-Fractions scalar they replaced.

The reference below stores a scalar as one dict from ``(Pi power, zeta
index)`` to a nonzero Fraction and prints it from those Fractions.  The
library stores int numerators over one positive denominator.  Both must
agree on every operation and on the printed form; after each operation the
library's result must be canonical (den > 0, no zero numerator,
gcd(den, numerators) = 1); and sums and products of built scalars must
build no Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc.printer import scalar_str
from logcalc.scalars import (
    _ORDER,
    _PHI,
    _REPS,
    LATTICE,
    ExactScalar,
    Exponent,
    UnsupportedDivision,
    imaginary_unit,
    pi_scalar,
    root_of_unity,
    zeta_power,
)

# ---------------------------------------------------------------------------
# reference: one dict of Fractions (the zeta^k table is checked against sympy
# in test_sympy_oracle.py)


def _ref_accumulate(out, key, c):
    prev = out.get(key)
    out[key] = c if prev is None else prev + c


def _ref_nonzero(out):
    return {key: c for key, c in out.items() if c}


def _ref_mul_terms(a, b):
    out = {}
    for (p1, k1), c1 in a.items():
        for (p2, k2), c2 in b.items():
            c = c1 * c2
            p, k = p1 + p2, k1 + k2
            if k < _PHI:
                _ref_accumulate(out, (p, k), c)
            else:
                for j, r in _REPS[k]:
                    _ref_accumulate(out, (p, j), c * r)
    return _ref_nonzero(out)


def _ref_conjugate_terms(a, j):
    out = {}
    for (p, k), c in a.items():
        for i, r in _REPS[j * k % _ORDER]:
            _ref_accumulate(out, (p, i), c * r)
    return _ref_nonzero(out)


class RefScalar:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def from_rational(q):
        q = Fraction(q)
        return RefScalar({(0, 0): q} if q else {})

    @staticmethod
    def pi_power(k, coeff=1):
        coeff = Fraction(coeff)
        return RefScalar({(k, 0): coeff} if coeff else {})

    @staticmethod
    def zeta_power(k):
        return RefScalar({(0, j): Fraction(c) for j, c in _REPS[k % _ORDER]})

    @staticmethod
    def coerce(v):
        return v if isinstance(v, RefScalar) else RefScalar.from_rational(v)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = RefScalar.coerce(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return RefScalar(out)

    def __neg__(self):
        return RefScalar({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-RefScalar.coerce(other))

    def __mul__(self, other):
        return RefScalar(_ref_mul_terms(self.terms, RefScalar.coerce(other).terms))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = RefScalar.from_rational(1)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self):
        t = self.terms
        if not t:
            raise UnsupportedDivision("division by zero")
        powers = {p for p, _ in t}
        if len(powers) != 1:
            raise UnsupportedDivision(f"{self} is not a Pi-monomial")
        [k] = powers
        c = {(0, i): v for (_, i), v in t.items()}
        rest = {(0, 0): Fraction(1)}
        for j in range(2, _ORDER):
            if math.gcd(j, _ORDER) == 1:
                rest = _ref_mul_terms(rest, _ref_conjugate_terms(c, j))
        norm = _ref_mul_terms(c, rest)[(0, 0)]
        return RefScalar({(-k, i): v / norm for (_, i), v in rest.items()})

    def divided_by_rational(self, q):
        if q == 0:
            raise UnsupportedDivision("division by zero")
        return RefScalar({key: c / q for key, c in self.terms.items()})

    def __eq__(self, other):
        return self.terms == RefScalar.coerce(other).terms

    def __repr__(self):
        return f"ExactScalar({ref_scalar_str(self)})"


def _ref_rational_str(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _ref_zeta_summand(k, coeff):
    if k == 0:
        return _ref_rational_str(coeff)
    root = f"e({_ref_rational_str(Fraction(k, LATTICE))})"
    if coeff == 1:
        return root
    if coeff == -1:
        return f"-{root}"
    return f"{_ref_rational_str(coeff)}*{root}"


def ref_scalar_str(s):
    if s.is_zero():
        return "0"
    groups = {}
    for (k, j), coeff in sorted(s.terms.items()):
        groups.setdefault(k, []).append(_ref_zeta_summand(j, coeff))
    parts = []
    for k, factors in groups.items():
        if k == 0:
            body = f"({' + '.join(factors)})" if len(factors) > 1 else factors[0]
        else:
            pi = "Pi" if k == 1 else f"Pi^{k}"
            if factors == ["1"]:
                body = pi
            elif factors == ["-1"]:
                body = f"-{pi}"
            elif len(factors) == 1:
                body = f"{factors[0]}*{pi}"
            else:
                body = f"({' + '.join(factors)})*{pi}"
        parts.append(body)
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


# ---------------------------------------------------------------------------
# pairs (reference, library) built from one recipe

RATIONALS = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)]),
    st.fractions(min_value=-30, max_value=30, max_denominator=36).filter(bool),
)
# q * zeta^k * Pi^p
SUMMANDS = st.tuples(RATIONALS, st.integers(0, 2 * _ORDER - 1), st.integers(-2, 2))
RECIPES = st.one_of(
    st.lists(SUMMANDS, max_size=4),
    st.lists(st.tuples(RATIONALS, st.integers(0, 2 * _ORDER - 1), st.just(0)), max_size=4),
    RATIONALS.map(lambda q: [(q, 0, 0)]),
)


def _pair(recipe):
    ref, new = RefScalar(), ExactScalar.zero()
    for q, k, p in recipe:
        ref = ref + RefScalar.pi_power(p, q) * RefScalar.zeta_power(k)
        new = new + ExactScalar.pi_power(p, q) * zeta_power(k)
    return ref, new


def _monomial_pair(recipe):
    """The summands of the recipe moved onto one Pi-power."""
    return _pair([(q, k, 1) for q, k, _ in recipe])


def _canonical(s: ExactScalar) -> None:
    assert isinstance(s.den, int) and s.den > 0
    assert all(isinstance(n, int) and n for n in s.num.values())
    assert all(0 <= k < _PHI for _, k in s.num)
    assert math.gcd(s.den, *s.num.values()) == 1
    assert s.num or s.den == 1


def _agree(ref: RefScalar, new: ExactScalar) -> None:
    _canonical(new)
    assert {key: Fraction(n, new.den) for key, n in new.num.items()} == ref.terms
    assert scalar_str(new) == ref_scalar_str(ref)


class TestAgainstReference:
    @given(RECIPES, RECIPES)
    @settings(max_examples=150, deadline=None)
    def test_sums_differences_and_negation(self, ra, rb):
        (a0, a), (b0, b) = _pair(ra), _pair(rb)
        _agree(a0, a)
        _agree(a0 + b0, a + b)
        _agree(a0 - b0, a - b)
        _agree(-a0, -a)
        _agree(a0 - a0, a - a)

    @given(RECIPES, RECIPES, st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_products_and_powers(self, ra, rb, n):
        (a0, a), (b0, b) = _pair(ra), _pair(rb)
        _agree(a0 * b0, a * b)
        _agree(a0 ** n, a ** n)

    @given(RECIPES, RATIONALS, st.integers(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_rational_operands(self, ra, q, m):
        a0, a = _pair(ra)
        for r in (q, m):
            _agree(a0 * r, a * r)
            _agree(a0 + r, a + r)
            _agree(a0 - r, a - r)
            if r:
                _agree(a0.divided_by_rational(r), a.divided_by_rational(r))

    @given(RECIPES, st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_inverse_and_negative_powers(self, ra, n):
        m0, m = _monomial_pair(ra)
        if m0.is_zero():
            return
        _agree(m0.inverse(), m.inverse())
        _agree(m0 ** n, m ** n)

    @given(RECIPES)
    @settings(max_examples=80, deadline=None)
    def test_failed_divisions_say_the_same(self, ra):
        a0, a = _pair(ra)
        ops = [(a0.inverse, a.inverse), (lambda: a0.divided_by_rational(0), lambda: a.divided_by_rational(0))]
        for ref_op, op in ops:
            try:
                want = ref_op()
            except UnsupportedDivision as exc:
                with pytest.raises(UnsupportedDivision) as got:
                    op()
                assert str(got.value) == str(exc)
            else:
                _agree(want, op())

    @given(RECIPES, RECIPES, RATIONALS)
    @settings(max_examples=100, deadline=None)
    def test_equality(self, ra, rb, q):
        (a0, a), (b0, b) = _pair(ra), _pair(rb)
        assert (a == b) == (a0 == b0)
        assert (a == q) == (a0 == q)
        assert (a == 1) == (a0 == 1)
        assert a == _pair(list(reversed(ra)))[1]

    @given(st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=80, deadline=None)
    def test_exponent_as_scalar(self, a, b):
        e = Exponent(Fraction(a, LATTICE), Fraction(b, LATTICE))
        ref = RefScalar.from_rational(e.re) + RefScalar.zeta_power(LATTICE // 2) * RefScalar.from_rational(e.im)
        _agree(ref, e.as_scalar())
        assert e.as_scalar() == ExactScalar.from_rational(e.re) + imaginary_unit() * e.im


def test_sums_and_products_build_no_fraction(monkeypatch):
    """+, -, negation, * and == on built scalars, rational scaling by an int and
    the scalar of a built exponent are int operations."""
    half, third = ExactScalar.from_rational(Fraction(1, 2)), ExactScalar.from_rational(Fraction(-2, 3))
    cyc = root_of_unity(Fraction(1, 3)) * Fraction(3, 4) + root_of_unity(Fraction(1, 4))
    pi = pi_scalar(Fraction(5, 6)) + zeta_power(7)
    e = Exponent(Fraction(1, 2), Fraction(-1, 3))
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert len(built) == 1  # the counter sees constructions
    built.clear()
    values = [half, third, cyc, pi]
    out = [x + y for x in values for y in values] + [x * y for x in values for y in values]
    out += [x - y for x in values for y in values] + [-x for x in values]
    out += [x * 3 for x in values] + [x + 2 for x in values] + [x.divided_by_rational(6) for x in values]
    out += [e.as_scalar(), (-e).as_scalar()]
    flags = [half == third, cyc == cyc, half == 1, pi.is_monomial()]
    monkeypatch.undo()
    assert built == []
    assert len(out) == 66 and flags == [False, True, False, False]
