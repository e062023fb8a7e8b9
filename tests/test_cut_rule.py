"""The one cut rule: every truncated expansion takes its powers from
``series.cut_powers``, which stops at the first power the cut leaves empty.

A cut after ``order`` powers is exact only for arguments of valuation at
least 1.  These tests pin arguments of fractional valuation, where such a cut
drops terms inside the truncation, and check that cutting commutes: a result
at order N equals the result at order N+2 cut back to N.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc import catalog
from logcalc.mobius import exp_L
from logcalc.series import SCALAR, CoeffSpace, CoeffVector, LogSeries, Monomial, cut_powers
from logcalc.substitution import series_exp, series_log1p, subst_mobius_arg, subst_x_exp_y, subst_x_plus_y

HALF = LogSeries.variable("x", Fraction(1, 2))


def _x(a, k=0, c=1):
    return LogSeries.monomial(Monomial.var("x", a, k), c)


class TestCutPowers:
    def test_valuation_one_takes_order_plus_one_powers(self):
        u = LogSeries.monomial(Monomial.var("x", -1) * Monomial.var("y"))
        powers = cut_powers(u, "y", 3)
        assert powers == [LogSeries.monomial(Monomial.var("x", -k) * Monomial.var("y", k), 1, {"y": 3})
                          for k in range(4)]

    def test_fractional_valuation_takes_every_power_inside_the_cut(self):
        powers = cut_powers(_x(Fraction(1, 12)), "x", 1)
        assert powers == [_x(Fraction(k, 12)).with_trunc({"x": 1}) for k in range(13)]

    def test_the_list_stops_at_the_first_empty_power(self):
        assert cut_powers(_x(2), "x", 3) == [LogSeries.one().with_trunc({"x": 3}), _x(2).with_trunc({"x": 3})]
        assert cut_powers(_x(1), "x", -1) == [LogSeries.zero(SCALAR, {"x": -1})]

    def test_powers_keep_the_argument_truncation(self):
        # u is known below z^3 and has z-valuation -1, so each product by u
        # lowers the bound in z by one
        u = (_x(1) * LogSeries.variable("z", -1)).with_trunc({"z": 2})
        assert [p.trunc for p in cut_powers(u, "x", 2)] == [{"z": 2 - k, "x": 2} for k in range(3)]

    def test_valuation_guard(self):
        with pytest.raises(ValueError, match=r"positive valuation in 'x' \(found Monomial\(1\)\)"):
            cut_powers(LogSeries.one() + _x(1), "x", 3)


class TestFractionalValuation:
    def test_series_exp_of_a_square_root(self):
        want = LogSeries.one() + HALF + _x(1, 0, Fraction(1, 2)) + _x(Fraction(3, 2), 0, Fraction(1, 6)) \
            + _x(2, 0, Fraction(1, 24))
        assert series_exp(HALF, "x", 2) == want.with_trunc({"x": 2})

    def test_series_log1p_of_a_square_root(self):
        want = HALF - _x(1, 0, Fraction(1, 2)) + _x(Fraction(3, 2), 0, Fraction(1, 3)) - _x(2, 0, Fraction(1, 4))
        assert series_log1p(HALF, "x", 2) == want.with_trunc({"x": 2})

    def test_exp_L_of_a_square_root(self, irreducible3):
        # e_0 has weight h = -1, so e^(x^(1/2) L(0)) e_0 = e^(h x^(1/2)) e_0
        e = irreducible3.basis_vector(0)
        h = irreducible3.weights[0].as_scalar()
        got = exp_L(irreducible3, 0, HALF, LogSeries.vector(e), order=2)
        assert got == LogSeries.vector(e) * series_exp(HALF.scale(h), "x", 2)
        assert got.coeff(Monomial.var("x", Fraction(3, 2))) == e.scale(Fraction(-1, 6))
        assert got.coeff(Monomial.var("x", 2)) == e.scale(Fraction(1, 24))


class TestScalarGuard:
    def test_vector_argument_is_rejected_alike(self):
        space = CoeffSpace("W", 2)
        h = LogSeries(space, {Monomial.var("x"): CoeffVector.basis(space, 0)})
        for fn in (series_exp, series_log1p):
            for order in (1, 2):
                with pytest.raises(ValueError, match="a truncated expansion acts on scalar series"):
                    fn(h, "x", order)


# ---------------------------------------------------------------------------
# cutting commutes

VALUATIONS = (Fraction(1, 12), Fraction(1, 6), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2))
STEPS = st.sampled_from((Fraction(0), Fraction(1, 12), Fraction(1, 3), Fraction(1)))


@st.composite
def arguments(draw):
    """c x^a lg(x)^k plus sometimes a term of higher x-exponent, for a drawn
    valuation a, with and without a log factor."""
    a = draw(st.sampled_from(VALUATIONS))
    out = _x(a, draw(st.integers(0, 1)), draw(st.sampled_from((1, -2, Fraction(1, 3)))))
    if draw(st.booleans()):
        out = out + _x(a + draw(STEPS), draw(st.integers(0, 2)), draw(st.sampled_from((1, -1))))
    return out


def _cuts_commute(fn, v, order):
    return fn(order) == fn(order + 2).with_trunc({v: order})


MODULES = (catalog.sl2_irreducible("V", 3), catalog.sl2_irreducible("V", 2),
           catalog.jordan_module("J", Fraction(1, 2), size=2), catalog.jordan_module("J", -1, size=3, blocks=2))


class TestCuttingCommutes:
    @given(arguments(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_series_exp_and_log1p(self, h, order):
        assert _cuts_commute(lambda n: series_exp(h, "x", n), "x", order)
        assert _cuts_commute(lambda n: series_log1p(h, "x", n), "x", order)

    @given(arguments(), st.sampled_from(MODULES), st.integers(-1, 1), st.integers(0, 2), STEPS, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_exp_L(self, coeff, module, j, i, shift, order):
        # an argument of nonnegative valuation
        f = LogSeries.vector(module.basis_vector(i % module.dim), Monomial.var("x", shift, i % 2))
        assert _cuts_commute(lambda n: exp_L(module, j, coeff, f, n), "x", order)

    @given(arguments(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_substitutions(self, f, order):
        for subst in (subst_x_plus_y, subst_x_exp_y, subst_mobius_arg):
            assert _cuts_commute(lambda n: subst(f, "x", "y", n), "y", order)
