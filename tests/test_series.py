import random
from fractions import Fraction

import pytest

from logcalc import catalog
from logcalc.scalars import ExactScalar, Exponent
from logcalc.series import (
    SCALAR,
    CoeffSpace,
    CoeffVector,
    LogSeries,
    Monomial,
    UndefinedProduct,
    VariableCollision,
    kth_derivative_closed_form,
)


def mono(e, k=0, v="x"):
    return Monomial.var(v, e, k)


class TestDerivative:
    def test_general_term(self):
        # d/dx x^n lg(x)^m = n x^(n-1) lg^m + m x^(n-1) lg^(m-1)
        n = Fraction(1, 2)
        f = LogSeries.monomial(mono(n, 3))
        expect = LogSeries.monomial(mono(n - 1, 3), n) + LogSeries.monomial(mono(n - 1, 2), 3)
        assert f.d_dx("x") == expect

    def test_log_gives_inverse(self):
        assert LogSeries.log_variable("x").d_dx("x") == LogSeries.variable("x", -1)

    def test_constant_derivative_vanishes(self):
        assert LogSeries.one().scale(Fraction(5, 3)).d_dx("x").is_zero()

    def test_linearity_over_random_families(self):
        rng = random.Random(3)
        for _ in range(25):
            family = [catalog.random_log_series(rng, max_terms=3) for _ in range(4)]
            total = LogSeries.zero()
            dsum = LogSeries.zero()
            for f in family:
                total = total + f
                dsum = dsum + f.d_dx("x")
            assert total.d_dx("x") == dsum

    def test_log_free_matches_plain_formal_derivative(self):
        rng = random.Random(5)
        for _ in range(30):
            f = catalog.random_log_series(rng, max_log_power=0)
            # independent plain differentiator on the exponent dictionary
            expect = LogSeries.zero()
            for m, vec in f.items():
                n = m.exponent("x")
                if not n.is_zero():
                    expect = expect + LogSeries.vector(vec.scale(n.as_scalar()), mono(n - 1))
            assert f.d_dx("x") == expect


class TestDiffOperators:
    def test_euler_on_log_power(self):
        f = LogSeries.monomial(Monomial.log("x", 4))
        assert f.d_dx("x", 1) == LogSeries.monomial(Monomial.log("x", 3), 4)

    def test_euler_eigenvalue(self):
        f = LogSeries.variable("x", Fraction(2, 3))
        assert f.d_dx("x", 1) == f.scale(Fraction(2, 3))

    def test_iterated_euler(self):
        f = LogSeries.monomial(Monomial.log("x", 3))
        out = f.d_dx("x", 1).d_dx("x", 1)
        assert out == LogSeries.monomial(Monomial.log("x", 1), 6)

    def test_log_coefficient_rejected(self):
        f = LogSeries.variable("x")
        with pytest.raises(UndefinedProduct):
            f.exp_diffop("y", LogSeries.log_variable("x"), "x", 2)

    def test_exp_diffop_scaling_closed_form(self):
        m = 3
        f = LogSeries.monomial(Monomial.log("x", m))
        out = f.exp_diffop("y", LogSeries.variable("x"), "x", m + 1)
        target = LogSeries.one()
        for _ in range(m):
            target = target * (LogSeries.log_variable("x") + LogSeries.variable("y"))
        assert out.equal_terms(target.with_trunc({"y": m + 1}))

    def test_exp_diffop_order_zero(self):
        f = LogSeries.monomial(mono(Fraction(1, 2), 1), 4)
        out = f.exp_diffop("y", LogSeries.one(), "x", 0)
        assert out.equal_terms(f.with_trunc({"y": 0}))

    def test_exp_diffop_polynomial_taylor(self):
        f = LogSeries.variable("x", 2)
        out = f.exp_diffop("y", LogSeries.one(), "x", 2)
        expect = (
            f
            + LogSeries.variable("y") * LogSeries.variable("x").scale(2)
            + LogSeries.variable("y", 2)
        )
        assert out.equal_terms(expect.with_trunc({"y": 2}))

    def test_variable_collision(self):
        f = LogSeries.variable("y")
        with pytest.raises(VariableCollision):
            f.exp_diffop("y", LogSeries.one(), "y", 3)


class TestRingOperations:
    def test_half_powers_multiply(self):
        h = LogSeries.variable("x", Fraction(1, 2))
        assert h * h == LogSeries.variable("x")

    def test_logs_multiply(self):
        lg = LogSeries.log_variable("x")
        assert lg * lg == LogSeries.monomial(Monomial.log("x", 2))

    def test_leibniz_200_random_pairs(self):
        rng = random.Random(11)
        for _ in range(200):
            f = catalog.random_log_series(rng, max_terms=3)
            g = catalog.random_log_series(rng, max_terms=3)
            assert (f * g).d_dx("x") == f.d_dx("x") * g + f * g.d_dx("x")

    def test_vector_times_vector_rejected(self):
        space = CoeffSpace("W", 2)
        f = LogSeries.vector(CoeffVector.basis(space, 0))
        with pytest.raises(UndefinedProduct):
            f * f

    def test_scalar_times_vector_allowed(self):
        space = CoeffSpace("W", 2)
        f = LogSeries.vector(CoeffVector.basis(space, 1), mono(1))
        g = LogSeries.variable("x", Fraction(1, 2))
        assert (g * f).coeff(mono(Fraction(3, 2))) == CoeffVector.basis(space, 1)

    def test_truncation_propagates_min(self):
        f = LogSeries.variable("y").with_trunc({"y": 5})
        g = LogSeries.variable("y", 2).with_trunc({"y": 3})
        assert (f * g).trunc == {"y": 3}
        assert (f + g).trunc == {"y": 3}
        # terms beyond the truncation order are pruned
        h = (LogSeries.variable("y", 3) * g)
        assert h.is_zero()

    def test_zero_pruning(self):
        f = LogSeries.variable("x") - LogSeries.variable("x")
        assert f.is_zero() and not f.terms


class TestClosedFormDerivative:
    def test_second_derivative_of_log(self):
        out = kth_derivative_closed_form(Exponent(0), 1, 2)
        assert out == LogSeries.monomial(mono(-2), -1)

    def test_order_zero(self):
        out = kth_derivative_closed_form(Exponent(Fraction(1, 2)), 3, 0)
        assert out == LogSeries.monomial(mono(Fraction(1, 2), 3))

    def test_matches_repeated_derivative(self):
        out = kth_derivative_closed_form(Exponent(0), 2, 3)
        f = LogSeries.monomial(Monomial.log("x", 2))
        assert out == f.d_dx("x").d_dx("x").d_dx("x")

    @pytest.mark.parametrize("num,den", [(0, 1), (1, 2), (-2, 3), (3, 1), (-5, 2)])
    def test_exhaustive_cross_check(self, num, den):
        n = Exponent(Fraction(num, den))
        for m in range(6):
            for k in range(7):
                cf = kth_derivative_closed_form(n, m, k)
                f = LogSeries.monomial(mono(n, m))
                for _ in range(k):
                    f = f.d_dx("x")
                assert cf == f, (n, m, k)

    def test_non_natural_m_rejected_as_series(self):
        with pytest.raises(ValueError):
            kth_derivative_closed_form(Exponent(0), Fraction(1, 2), 1)  # type: ignore[arg-type]


class TestCoefficientAccess:
    def test_stored_coefficient(self):
        f = LogSeries.log_variable("x") + LogSeries.variable("x").scale(2)
        assert f.coeff(mono(1)).scalar_value() == ExactScalar.from_rational(2)

    def test_absent_coefficient_is_zero(self):
        f = LogSeries.log_variable("x")
        assert f.coeff(mono(5)).is_zero()

    def test_fractional_log_monomial(self):
        f = LogSeries.monomial(mono(Fraction(1, 2), 3))
        assert f.coeff(mono(Fraction(1, 2), 3)).scalar_value() == ExactScalar.from_rational(1)


class TestTruncationSoundness:
    """A truncated series stands for every completion above its bound, so a
    result may claim only the coefficients that all completions agree on: a
    factor of negative valuation in a truncated variable lowers the bound."""

    X3 = LogSeries.variable("x", 3).with_trunc({"x": 3})

    def test_product_with_negative_valuation(self):
        p = self.X3 * LogSeries.variable("x", -1)
        assert p.trunc == {"x": 2} and p.equal_terms(LogSeries.variable("x", 2))
        assert (LogSeries.variable("x", -1) * self.X3).trunc == {"x": 2}

    def test_derivation_by_a_negative_power(self):
        d = self.X3.d_dx("x", -1)
        assert d.trunc == {"x": 1} and d.equal_terms(LogSeries.variable("x").scale(3))
        assert self.X3.d_dx("x", Fraction(-1, 2)).trunc == {"x": 1}

    def test_nonnegative_valuations_keep_the_bound(self):
        assert (self.X3 * LogSeries.variable("x", Fraction(1, 2))).trunc == {"x": 3}
        assert (self.X3 * LogSeries.variable("y", -1)).trunc == {"x": 3}
        assert self.X3.d_dx("x", 1).trunc == {"x": 2}

    def test_a_factor_with_no_terms_has_the_valuation_of_its_tail(self):
        # two unknown tails above x^-1 multiply to exponents above x^-2
        z = LogSeries.zero(SCALAR, {"x": -1})
        assert (z * z).trunc == {"x": -2}
        assert (self.X3 * LogSeries.zero(SCALAR, {"x": 1})).trunc == {"x": 1}

    @pytest.mark.parametrize("tail", [LogSeries.variable("x", 4), LogSeries.monomial(mono(Fraction(7, 2), 1), 5)])
    def test_known_coefficients_agree_with_every_completion(self, tail):
        g = LogSeries.variable("x", -1) + LogSeries.variable("x", -2).scale(3)
        full = (LogSeries.variable("x", 3) + tail).with_trunc({"x": 20})
        for got, want in ((self.X3 * g, full * g), (self.X3.d_dx("x", -2), full.d_dx("x", -2))):
            assert got.terms and all(got.coeff(m) == want.coeff(m) for m in want.terms if m.exponent("x").re <= got.trunc["x"])
