"""Lattice-int exponents against the two-Fraction exponent they replaced.

The reference below stores an exponent as two Fractions and re-checks the
(1/L)Z lattice on every sum.  The library stores the ints L*re and L*im and
checks the lattice only where a rational enters.  Both must agree on
arithmetic, comparisons, predicates, hashes, printing and scalar values;
every entry point must reject an off-lattice rational with the reference's
message; and exponent arithmetic on built operands must build no Fraction.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc import catalog
from logcalc.jsonio import SchemaError, module_from_json, module_to_json
from logcalc.parser import parse_expr, parse_exponent
from logcalc.printer import exponent_str
from logcalc.scalars import LATTICE, ExactScalar, Exponent, LatticeViolation, imaginary_unit, root_of_unity
from logcalc.series import Monomial

# ---------------------------------------------------------------------------
# reference: two Fractions, the lattice checked on every construction


def _ref_check_lattice(q: Fraction, what: str = "exponent") -> Fraction:
    if LATTICE % q.denominator != 0:
        raise LatticeViolation(
            f"{what} {q} has denominator {q.denominator}, which does not divide L={LATTICE}"
        )
    return q


class RefExponent:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _ref_check_lattice(Fraction(re))
        self.im = _ref_check_lattice(Fraction(im))

    @staticmethod
    def coerce(v):
        return v if isinstance(v, RefExponent) else RefExponent(v)

    def __add__(self, other):
        other = RefExponent.coerce(other)
        return RefExponent(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = RefExponent.coerce(other)
        return RefExponent(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return RefExponent.coerce(other) - self

    def __neg__(self):
        return RefExponent(-self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1

    def as_scalar(self):
        out = ExactScalar.from_rational(self.re)
        if self.im:
            out = out + imaginary_unit() * ExactScalar.from_rational(self.im)
        return out

    def sort_key(self):
        return (self.re, self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, RefExponent):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)


def rational_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def ref_exponent_str(e: RefExponent) -> str:
    if e.im == 0:
        return rational_str(e.re)
    im = rational_str(e.im) + "*i"
    if e.re == 0:
        return im
    if e.im > 0:
        return f"{rational_str(e.re)}+{im}"
    return f"{rational_str(e.re)}-{rational_str(-e.im)}*i"


# ---------------------------------------------------------------------------
# strategies

LATTICE_INTS = st.integers(-10**4, 10**4) | st.sampled_from((0, 1, -1, LATTICE, -LATTICE, 6, -6))
POINTS = st.tuples(LATTICE_INTS, LATTICE_INTS | st.just(0))
OTHERS = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-200, 200), st.integers(1, 30)),
)


def both(point: tuple[int, int]) -> tuple[Exponent, RefExponent]:
    re, im = (Fraction(c, LATTICE) for c in point)
    return Exponent(re, im), RefExponent(re, im)


def agree(e: Exponent, r: RefExponent) -> bool:
    return (e.re, e.im) == (r.re, r.im) and exponent_str(e) == ref_exponent_str(r)


# ---------------------------------------------------------------------------
# tests


class TestAgainstReference:
    @given(POINTS, POINTS, st.integers(-5, 5))
    @settings(max_examples=300, deadline=None)
    def test_arithmetic(self, p, q, n):
        (e, r), (f, s) = both(p), both(q)
        assert agree(e, r) and agree(f, s)
        assert agree(e + f, r + s) and agree(e - f, r - s) and agree(-e, -r)
        assert agree(e + n, r + n) and agree(n + e, n + r) and agree(e - n, r - n) and agree(n - e, n - r)
        half = Fraction(n, 2)
        assert agree(e + half, r + half) and agree(half - e, half - r)

    @given(POINTS, POINTS, OTHERS)
    @settings(max_examples=300, deadline=None)
    def test_comparisons(self, p, q, other):
        (e, r), (f, s) = both(p), both(q)
        assert (e == f) == (r == s) and (e != f) == (r != s)
        assert (e.sort_key() < f.sort_key()) == (r.sort_key() < s.sort_key())
        assert (e == other) == (r == other) and (other == e) == (other == r)
        assert (e != other) == (r != other) and (other != e) == (other != r)
        assert (e == e.re) == e.is_real() and e == Exponent(e.re, e.im)

    @given(st.lists(POINTS, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_sort_order(self, points):
        pairs = [both(p) for p in points]
        by_new = sorted(range(len(pairs)), key=lambda i: pairs[i][0].sort_key())
        by_ref = sorted(range(len(pairs)), key=lambda i: pairs[i][1].sort_key())
        assert by_new == by_ref

    @given(POINTS)
    @settings(max_examples=300, deadline=None)
    def test_predicates_and_values(self, p):
        e, r = both(p)
        assert (e.is_zero(), e.is_real(), e.is_integer()) == (r.is_zero(), r.is_real(), r.is_integer())
        assert e.as_scalar() == r.as_scalar()
        assert parse_exponent(exponent_str(e)) == e

    @given(POINTS)
    @settings(max_examples=300, deadline=None)
    def test_hashes(self, p):
        e, r = both(p)
        # equal hashes keep the iteration order of every set and dict of exponents
        assert hash(e) == hash(r) == hash(Exponent(e.re, e.im))
        assert hash(e + 0) == hash(e)
        if e.is_real():
            q = Fraction(p[0], LATTICE)
            assert hash(e) == hash(q) and {q: 1}[e] == 1 and e in {q}
            if q.denominator == 1:
                assert hash(e) == hash(int(q))


class TestLatticeEntryPoints:
    OFF = Fraction(1, 5)

    def _ref_message(self, what: str = "exponent") -> str:
        with pytest.raises(LatticeViolation) as err:
            _ref_check_lattice(self.OFF, what)
        return str(err.value)

    def test_exponent_constructor(self):
        for args in ((self.OFF,), (0, self.OFF), (self.OFF, 1)):
            with pytest.raises(LatticeViolation) as err:
                Exponent(*args)
            assert str(err.value) == self._ref_message()

    def test_parser(self):
        for text in ("x^(1/5)", "x^(1 + 1/5*i)", "y*x^(2/5)"):
            with pytest.raises(LatticeViolation):
                parse_expr(text)

    def test_jsonio_weight(self):
        data = module_to_json(catalog.trivial_module("T"))
        data["weights"] = ["1/5"]
        with pytest.raises(SchemaError) as err:
            module_from_json(data)
        assert isinstance(err.value.__cause__, LatticeViolation)
        assert err.value.pointer == "/weights/0"

    def test_root_of_unity(self):
        with pytest.raises(LatticeViolation) as err:
            root_of_unity(self.OFF)
        assert str(err.value) == self._ref_message("root-of-unity argument")
        assert root_of_unity(Fraction(1, 12)) == root_of_unity(Fraction(25, 12))


def test_exponent_arithmetic_builds_no_fraction(monkeypatch):
    """Sums, differences, negation, comparisons, hashes and sort keys of built
    exponents, and products of built monomials, are int operations."""
    e, f = Exponent(Fraction(1, 2), Fraction(-1, 3)), Exponent(Fraction(-5, 4))
    m1 = Monomial.var("x", e, 1) * Monomial.var("y", 2)
    m2 = Monomial.var("x", f) * Monomial.var("y", Fraction(-2, 3), 2) * Monomial.log("z")
    q = Fraction(-5, 4)
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert len(built) == 1  # the counter sees constructions
    built.clear()
    products = [m1 * m2, m2 * m1, m1 * m1, (m1 * m2) * m2]
    exps = [e + f, e - f, -e, f + 1, 1 - f, e + e - e]
    keys = [hash(x) for x in exps] + [hash(m) for m in products]
    keys += [x.sort_key() for x in exps] + [m.sort_key() for m in products]
    flags = [e == f, e == 1, f == q, e.is_zero(), e.is_real(), f.is_integer()]
    monkeypatch.undo()
    assert built == []
    assert keys and flags == [False, False, True, False, False, False]
