import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcalc.parser import parse_expr
from logcalc.printer import scalar_str
from logcalc.scalars import (
    LATTICE,
    ExactScalar,
    Exponent,
    LatticeViolation,
    UnsupportedDivision,
    binom_general,
    imaginary_unit,
    pi_scalar,
    root_of_unity,
    zeta_power,
)
from logcalc.series import LogSeries

ONE = ExactScalar.from_rational(1)


class TestBinomGeneral:
    def test_half_choose_two(self):
        assert binom_general(Fraction(1, 2), 2) == ExactScalar.from_rational(Fraction(-1, 8))

    def test_choose_zero_is_one(self):
        for m in (Fraction(7, 3), -4, pi_scalar(2)):
            assert binom_general(m, 0) == ONE

    def test_integer_binomial(self):
        assert binom_general(3, 2) == ExactScalar.from_rational(3)

    def test_negative_lower_index_rejected(self):
        with pytest.raises(ValueError):
            binom_general(1, -1)

    @given(
        num=st.integers(-8, 8),
        den=st.sampled_from([1, 2, 3, 4, 6, 12]),
        k=st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_pascal_rule(self, num, den, k):
        m = Fraction(num, den)
        lhs = binom_general(m, k)
        rhs = binom_general(m - 1, k) + binom_general(m - 1, k - 1)
        assert lhs == rhs


class TestRootsOfUnity:
    def test_minus_one(self):
        assert root_of_unity(1) == ExactScalar.from_rational(-1)

    def test_i(self):
        assert root_of_unity(Fraction(1, 2)) == imaginary_unit()
        assert imaginary_unit() * imaginary_unit() == ExactScalar.from_rational(-1)

    def test_full_turn(self):
        assert root_of_unity(2) == ONE

    def test_lattice_rejection(self):
        with pytest.raises(LatticeViolation):
            root_of_unity(Fraction(1, 7))

    @given(
        n1=st.integers(-24, 24),
        d1=st.sampled_from([1, 2, 3, 4, 6, 12]),
        n2=st.integers(-24, 24),
        d2=st.sampled_from([1, 2, 3, 4, 6, 12]),
    )
    @settings(max_examples=80, deadline=None)
    def test_homomorphism(self, n1, d1, n2, d2):
        q1, q2 = Fraction(n1, d1), Fraction(n2, d2)
        assert root_of_unity(q1) * root_of_unity(q2) == root_of_unity((q1 + q2) % 2)

    def test_numeric_backend(self):
        import cmath

        from float_eval import scalar_value

        z = scalar_value(root_of_unity(Fraction(2, 3)))
        assert abs(z - cmath.exp(2j * cmath.pi / 3)) < 1e-9


def _sample_cyclotomics():
    vals = []
    for k in (0, 1, 5, 7, 12):
        vals.append(zeta_power(k))
    vals.append(zeta_power(1) + zeta_power(3))
    return vals


class TestCyclotomicField:
    def test_zeta_order(self):
        L = LATTICE
        zeta = zeta_power(1)
        power = ExactScalar.from_rational(1)
        for _ in range(2 * L):
            power = power * zeta
        assert power == ExactScalar.from_rational(1)

    def test_field_axioms_on_samples(self):
        vals = _sample_cyclotomics()
        for a in vals:
            for b in vals:
                assert a * b == b * a
                for c in vals:
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    def test_inverses(self):
        for a in _sample_cyclotomics():
            if not a.is_zero():
                assert a * a.inverse() == ExactScalar.from_rational(1)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ExactScalar.from_rational(0).inverse()


class TestExactScalarRing:
    def test_difference_of_squares(self):
        p = pi_scalar()
        assert (p + 1) * (p - 1) == p * p - ONE

    def test_monomial_division(self):
        assert ExactScalar.pi_power(1, 2) * pi_scalar().inverse() == ExactScalar.from_rational(2)

    def test_division_by_sum_rejected(self):
        with pytest.raises(UnsupportedDivision):
            ONE * (pi_scalar() + ONE).inverse()

    def test_division_by_zero_rejected(self):
        with pytest.raises(UnsupportedDivision):
            ONE * ExactScalar.zero().inverse()

    def test_pi_powers_never_merge(self):
        s = pi_scalar() + pi_scalar() * pi_scalar()
        assert len(s.num) == 2

    def test_negative_power_of_monomial(self):
        s = ExactScalar.pi_power(2, 3)
        assert s ** (-1) * s == ONE

    def test_canonical_serialize_roundtrip(self):
        from logcalc.parser import parse_scalar
        from logcalc.printer import scalar_str

        s = (
            pi_scalar(Fraction(3, 2))
            + root_of_unity(Fraction(5, 6)) * pi_scalar() ** 3
            - ExactScalar.from_rational(Fraction(2, 9))
        )
        assert parse_scalar(scalar_str(s)) == s


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# q * e(k/12) * Pi^p: a rational, a root of unity and a Pi-power in one summand
SUMMANDS = st.builds(
    lambda q, k, p: ExactScalar.pi_power(p, q) * root_of_unity(Fraction(k, 12)),
    RATIONALS,
    st.integers(0, 23),
    st.integers(-2, 2),
)
MIXED = st.one_of(
    RATIONALS.map(ExactScalar.from_rational),
    st.lists(SUMMANDS, max_size=3).map(lambda xs: sum(xs, ExactScalar.zero())),
)


def _same_value(a, b):
    assert a == b
    assert hash(a) == hash(b)
    assert scalar_str(a) == scalar_str(b)


class TestScalarProperties:
    @given(MIXED, MIXED, MIXED)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        _same_value(a + b, b + a)
        _same_value(a * b, b * a)
        _same_value((a + b) + c, a + (b + c))
        _same_value((a * b) * c, a * (b * c))
        _same_value(a * (b + c), a * b + a * c)
        _same_value(a + ExactScalar.zero(), a)
        _same_value(a * ONE, a)
        assert (a - a).is_zero() and (a * ExactScalar.zero()).is_zero()

    @given(SUMMANDS.filter(lambda s: not s.is_zero()), MIXED)
    @settings(max_examples=100, deadline=None)
    def test_monomial_division_inverts_multiplication(self, m, a):
        _same_value(m * m.inverse(), ONE)
        _same_value((a * m) * m.inverse(), a)

    @given(st.integers(-12, 12), RATIONALS)
    @settings(max_examples=60, deadline=None)
    def test_rational_by_cyclotomic_route_is_canonical(self, k, q):
        direct = ExactScalar.from_rational(q)
        routed = root_of_unity(Fraction(k, 12)) * root_of_unity(Fraction(-k, 12)) * q
        _same_value(routed, direct)
        assert routed.is_rational() and routed.rational_value() == q
        _same_value(root_of_unity(Fraction(1, 2)) * root_of_unity(Fraction(1, 2)), ExactScalar.from_rational(-1))

    @given(MIXED)
    @settings(max_examples=150, deadline=None)
    def test_print_parse_roundtrip(self, s):
        assert parse_expr(scalar_str(s)) == LogSeries.one().scale(s)

    @given(st.one_of(RATIONALS, st.integers(-10**6, 10**6)))
    @example(-1)  # hash(-1) == -2
    @example(Fraction(-3, 4))
    @example(Fraction(-5, sys.hash_info.modulus))  # no inverse mod the hash prime
    @settings(max_examples=100, deadline=None)
    def test_rationals_hash_like_their_fraction(self, q):
        s = ExactScalar.from_rational(q)
        assert s == q and hash(s) == hash(q) == hash(Fraction(q))
        assert q in {s} and s in {q} and {q: 1}[s] == 1
        assert ExactScalar.zero() in {0} and hash(ExactScalar.zero()) == hash(0)

    @given(MIXED, st.one_of(st.integers(-3, 3), RATIONALS, st.booleans()))
    @example(ExactScalar.from_rational(2), 2)
    @example(ExactScalar.from_rational(Fraction(1, 2)), 1)  # numerator 1 over 2 is not 1
    @example(ExactScalar.pi_power(1, 1), 1)  # numerator 1 at Pi^1
    @example(ExactScalar.zero(), 0)
    @example(ExactScalar.zero(), False)
    @example(ExactScalar.from_rational(1), True)
    @settings(max_examples=300, deadline=None)
    def test_equality_with_numbers_is_that_of_the_scalar(self, a, q):
        want = a == ExactScalar.from_rational(q)  # scalar against scalar: den and num compared
        assert (a == q) == (q == a) == want != (a != q)
        if a.is_rational():
            r = a.rational_value()
            assert a == r and (r.denominator != 1 or a == int(r))

    @given(RATIONALS, MIXED)
    @settings(max_examples=100, deadline=None)
    def test_equal_implies_equal_hash_across_types(self, q, a):
        s = ExactScalar.from_rational(q)
        # a rational reached through arithmetic hashes like the plain number
        _same_value((s + a) - a, s)
        assert hash((s + a) - a) == hash(q)


class TestExponent:
    def test_lattice_guard(self):
        with pytest.raises(LatticeViolation):
            Exponent(Fraction(1, 5))

    def test_lattice_violation_text(self):
        # the golden digests of the roundtrip benchmark contain this text
        with pytest.raises(LatticeViolation) as info:
            Exponent(Fraction(1, 5))
        assert str(info.value) == "exponent 1/5 has denominator 5, which does not divide L=12"

    def test_comparison_with_an_off_lattice_rational(self):
        assert not Exponent(1) == Fraction(1, 5)
        assert not Fraction(1, 5) == Exponent(1)
        assert Exponent(1) != Fraction(1, 5) and Fraction(1, 5) != Exponent(1)
        assert Exponent(Fraction(1, 4)) == Fraction(1, 4) == Exponent(Fraction(1, 4))
        assert Exponent(Fraction(1, 4), 1) != Fraction(1, 4)

    def test_arithmetic_closed(self):
        a = Exponent(Fraction(1, 2), Fraction(1, 3))
        b = Exponent(Fraction(1, 3))
        assert (a + b) - b == a
        assert (a + 1) - 1 == a

    def test_as_scalar_gaussian(self):
        e = Exponent(Fraction(1, 2), Fraction(1, 4))
        s = e.as_scalar()
        expected = ExactScalar.from_rational(Fraction(1, 2)) + imaginary_unit() * Fraction(1, 4)
        assert s == expected

    @given(RATIONALS.filter(lambda q: 12 % q.denominator == 0), st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_real_exponents_hash_like_their_fraction(self, q, im):
        e = Exponent(q)
        assert e == q and hash(e) == hash(q)
        assert q in {e} and e in {q} and {q: 1}[e] == 1
        g = Exponent(q, im)
        assert (g == Exponent(q, im)) and hash(g) == hash(Exponent(q, im))
        assert (g == q) == (im == 0)

    def test_ordering_total_on_samples(self):
        vals = [Exponent(0), Exponent(1), Exponent(Fraction(1, 2)), Exponent(0, 1)]
        assert sorted(vals, key=lambda e: e.sort_key())
