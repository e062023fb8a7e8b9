import random
from fractions import Fraction

import pytest

from logcalc import catalog, checks, series, substitution
from logcalc.parser import parse_expr
from logcalc.scalars import ExactScalar, Exponent, LatticeViolation, UnsupportedDivision, pi_scalar
from logcalc.series import CoeffSpace, CoeffVector, LogSeries, Monomial
from logcalc.substitution import (
    series_exp,
    series_log1p,
    subst_mobius_arg,
    subst_scaled_exp,
    subst_x_exp_y,
    subst_x_inverse,
    subst_x_plus_y,
    subst_xy,
)


def mono(e, k=0, v="x"):
    return Monomial.var(v, e, k)


def random_family(seed, count=30):
    rng = random.Random(seed)
    return [catalog.random_log_series(rng) for _ in range(count)]


class TestShiftSubstitution:
    def test_log_shift_expansion(self):
        out = subst_x_plus_y(LogSeries.log_variable("x"), "x", "y", 3)
        expect = (
            LogSeries.log_variable("x")
            + LogSeries.monomial(mono(-1) * Monomial.var("y", 1))
            + LogSeries.monomial(mono(-2) * Monomial.var("y", 2), Fraction(-1, 2))
            + LogSeries.monomial(mono(-3) * Monomial.var("y", 3), Fraction(1, 3))
        )
        assert out.equal_terms(expect.with_trunc({"y": 3}))

    def test_geometric_binomial(self):
        out = subst_x_plus_y(LogSeries.variable("x", -1), "x", "y", 2)
        expect = (
            LogSeries.variable("x", -1)
            - LogSeries.monomial(mono(-2) * Monomial.var("y", 1))
            + LogSeries.monomial(mono(-3) * Monomial.var("y", 2))
        )
        assert out.equal_terms(expect.with_trunc({"y": 2}))

    def test_squared_log_against_derivative_oracle(self):
        f = LogSeries.monomial(Monomial.log("x", 2))
        assert subst_x_plus_y(f, "x", "y", 2) == f.exp_diffop("y", LogSeries.one(), "x", 2)

    def test_taylor_theorem_family(self):
        for f in random_family(17):
            for order in (3, 8):
                assert f.exp_diffop("y", LogSeries.one(), "x", order) == subst_x_plus_y(f, "x", "y", order)

    def test_yx_replacement_fails(self):
        # replacing the expansion variable by y*x breaks the shift theorem
        f = LogSeries.log_variable("x")
        scaled = f.exp_diffop("y", LogSeries.variable("x"), "x", 4)  # = lg x + y exactly
        shift = subst_x_plus_y(f, "x", "y", 4)
        assert scaled != shift


class TestScalingSubstitution:
    def test_half_power_exponential(self):
        out = subst_x_exp_y(LogSeries.variable("x", Fraction(1, 2)), "x", "y", 2)
        expect = (
            LogSeries.variable("x", Fraction(1, 2))
            + LogSeries.monomial(mono(Fraction(1, 2)) * Monomial.var("y", 1), Fraction(1, 2))
            + LogSeries.monomial(mono(Fraction(1, 2)) * Monomial.var("y", 2), Fraction(1, 8))
        )
        assert out.equal_terms(expect.with_trunc({"y": 2}))

    def test_log_picks_up_plain_shift(self):
        out = subst_x_exp_y(LogSeries.log_variable("x"), "x", "y", 5)
        expect = LogSeries.log_variable("x") + LogSeries.variable("y")
        assert out.equal_terms(expect.with_trunc({"y": 5}))

    def test_x_log_x(self):
        f = LogSeries.monomial(mono(1, 1))
        out = subst_x_exp_y(f, "x", "y", 1)
        oracle = f.exp_diffop("y", LogSeries.variable("x"), "x", 1)
        assert out == oracle

    def test_scaling_theorem_family(self):
        for f in random_family(23):
            for order in (3, 8):
                assert f.exp_diffop("y", LogSeries.variable("x"), "x", order) == subst_x_exp_y(f, "x", "y", order)


class TestProductSubstitution:
    def test_half_power_with_log(self):
        f = LogSeries.monomial(mono(Fraction(1, 2), 1))
        out = subst_xy(f, "x", "y")
        expect = LogSeries.monomial(
            Monomial.var("x", Fraction(1, 2), 1) * Monomial.var("y", Fraction(1, 2))
        ) + LogSeries.monomial(Monomial.var("x", Fraction(1, 2)) * Monomial.var("y", Fraction(1, 2), 1))
        assert out == expect

    def test_plain_power(self):
        assert subst_xy(LogSeries.variable("x", 3), "x", "y") == LogSeries.monomial(
            mono(3) * Monomial.var("y", 3)
        )

    def test_linearity(self):
        f = LogSeries.variable("x", 2) + LogSeries.log_variable("x")
        out = subst_xy(f, "x", "y")
        assert out == subst_xy(LogSeries.variable("x", 2), "x", "y") + subst_xy(
            LogSeries.log_variable("x"), "x", "y"
        )


class TestScaledExponentialSubstitution:
    def test_half_power_sign_flip(self):
        f = LogSeries.variable("x", Fraction(1, 2))
        assert subst_scaled_exp(f, "x", pi_scalar(2)) == f.scale(-1)

    def test_log_shift_rule(self):
        out = subst_scaled_exp(LogSeries.log_variable("x"), "x", pi_scalar(1))
        assert out == LogSeries.log_variable("x") + LogSeries.one().scale(pi_scalar())

    def test_depends_on_zeta_not_its_exponential(self):
        fx = LogSeries.variable("x")
        assert subst_scaled_exp(fx, "x", pi_scalar(2)) == subst_scaled_exp(fx, "x", pi_scalar(4)) == fx
        fxl = LogSeries.monomial(mono(1, 1))
        a = subst_scaled_exp(fxl, "x", pi_scalar(2))
        b = subst_scaled_exp(fxl, "x", pi_scalar(4))
        assert a != b
        assert a == fxl + LogSeries.variable("x").scale(pi_scalar(2))

    def test_identity_on_integral_log_free(self):
        f = LogSeries.variable("x", 3) - LogSeries.variable("x", -2).scale(5)
        for p in (1, 2, 3):
            assert subst_scaled_exp(f, "x", pi_scalar(2 * p)) == f

    def test_non_real_exponent_rejected(self):
        f = LogSeries.variable("x", Exponent(0, 1))
        with pytest.raises(LatticeViolation):
            subst_scaled_exp(f, "x", pi_scalar(1))

    def test_non_pi_monomial_rejected(self):
        f = LogSeries.variable("x")
        with pytest.raises(UnsupportedDivision):
            subst_scaled_exp(f, "x", pi_scalar(1) + ExactScalar.from_rational(1))

    def test_group_law(self):
        f = LogSeries.monomial(mono(Fraction(1, 3), 2))
        one_step = subst_scaled_exp(f, "x", pi_scalar(3))
        two_step = subst_scaled_exp(subst_scaled_exp(f, "x", pi_scalar(1)), "x", pi_scalar(2))
        assert one_step == two_step


class TestInverseSubstitution:
    def test_sign_convention(self):
        f = LogSeries.monomial(mono(2, 1))
        assert subst_x_inverse(f, "x") == LogSeries.monomial(mono(-2, 1), -1)

    def test_half_power(self):
        f = LogSeries.variable("x", Fraction(1, 2))
        assert subst_x_inverse(f, "x") == LogSeries.variable("x", Fraction(-1, 2))

    def test_involution(self):
        rng = random.Random(2)
        for _ in range(20):
            f = catalog.random_log_series(rng)
            assert subst_x_inverse(subst_x_inverse(f, "x"), "x") == f


class TestMobiusArgument:
    def test_geometric_series(self):
        power = subst_mobius_arg(LogSeries.variable("x"), "x", "y", 2)
        expect = (
            LogSeries.variable("x")
            + LogSeries.monomial(mono(2) * Monomial.var("y", 1))
            + LogSeries.monomial(mono(3) * Monomial.var("y", 2))
        )
        assert power.equal_terms(expect.with_trunc({"y": 2}))

    def test_log_part(self):
        logpart = subst_mobius_arg(LogSeries.log_variable("x"), "x", "y", 2)
        expect = (
            LogSeries.log_variable("x")
            + LogSeries.monomial(mono(1) * Monomial.var("y", 1))
            + LogSeries.monomial(mono(2) * Monomial.var("y", 2), Fraction(1, 2))
        )
        assert logpart.equal_terms(expect.with_trunc({"y": 2}))

    def test_power_additivity(self):
        a = subst_mobius_arg(LogSeries.variable("x", Fraction(1, 2)), "x", "y", 4)
        b = subst_mobius_arg(LogSeries.variable("x", Fraction(1, 3)), "x", "y", 4)
        c = subst_mobius_arg(LogSeries.variable("x", Fraction(5, 6)), "x", "y", 4)
        assert a * b == c


class TestHomomorphy:
    def test_substitutions_respect_products(self):
        rng = random.Random(31)
        for _ in range(15):
            f = catalog.random_log_series(rng, max_terms=2, max_log_power=2)
            g = catalog.random_log_series(rng, max_terms=2, max_log_power=2)
            n = 4
            assert subst_x_plus_y(f * g, "x", "y", n) == subst_x_plus_y(f, "x", "y", n) * subst_x_plus_y(g, "x", "y", n)
            assert subst_x_exp_y(f * g, "x", "y", n) == subst_x_exp_y(f, "x", "y", n) * subst_x_exp_y(g, "x", "y", n)
            assert subst_xy(f * g, "x", "y") == subst_xy(f, "x", "y") * subst_xy(g, "x", "y")
            assert subst_x_inverse(f * g, "x") == subst_x_inverse(f, "x") * subst_x_inverse(g, "x")


class TestTruncation:
    """A substitution keeps the input's truncation in the other variables."""

    F = parse_expr("x^(1/2)*lg(x)^2 + z*x").with_trunc({"z": 1})

    def test_taylor_theorem_keeps_it(self):
        out = subst_x_plus_y(self.F, "x", "y", 3)
        assert out.trunc == {"z": 1, "y": 3}
        assert self.F.exp_diffop("y", LogSeries.one(), "x", 3) == out

    def test_scaling_theorem_keeps_it(self):
        out = subst_x_exp_y(self.F, "x", "y", 3)
        assert out.trunc == {"z": 1, "y": 3}
        assert self.F.exp_diffop("y", LogSeries.variable("x"), "x", 3) == out

    def test_product_keeps_it(self):
        out = subst_xy(self.F, "x", "y")
        assert out.trunc == {"z": 1}
        assert out.equal_terms(subst_xy(parse_expr("x^(1/2)*lg(x)^2 + z*x"), "x", "y"))

    def test_mobius_argument_keeps_a_bound_in_x(self):
        # x -> x(1-yx)^(-1) only raises x-exponents, so the bound in x stays
        # and prunes the image
        f = parse_expr("x + x^2*lg(x)").with_trunc({"x": 2})
        out = subst_mobius_arg(f, "x", "y", 3)
        assert out.trunc == {"x": 2, "y": 3}
        full = subst_mobius_arg(parse_expr("x + x^2*lg(x)"), "x", "y", 3)
        assert out.equal_terms(full.with_trunc({"x": 2}))

    @pytest.mark.parametrize(
        "subst", [lambda f: subst_x_plus_y(f, "x", "y", 2), lambda f: subst_x_inverse(f, "x")], ids=["x+y", "1/x"]
    )
    def test_bound_in_x_is_rejected_where_it_would_move(self, subst):
        # under x -> x+y and x -> 1/x, terms beyond an x-bound land below it
        f = parse_expr("x + lg(x)").with_trunc({"x": 3})
        with pytest.raises(ValueError, match="truncated in 'x'"):
            subst(f)


class TestIndependentRoutes:
    """The kernel multiplies the defining series as integer tables: it forms no
    series product and takes no derivative, so the Taylor and scaling checks
    compare two independent code paths."""

    F = parse_expr("3*x^(1/2)*lg(x)^4 - x^(-2)*lg(x)^3 + 2*x*lg(x) + z*x^(2/3)*lg(x)^4")
    CONVENTIONS = {
        "x+y": lambda f: subst_x_plus_y(f, "x", "y", 8),
        "x e^y": lambda f: subst_x_exp_y(f, "x", "y", 8),
        "xy": lambda f: subst_xy(f, "x", "y"),
        "e^zeta x": lambda f: subst_scaled_exp(f, "x", pi_scalar(Fraction(1, 2))),
        "x(1-yx)^-1": lambda f: subst_mobius_arg(f, "x", "y", 8),
    }

    def test_no_product_and_no_derivative(self, monkeypatch):
        want = {name: subst(self.F) for name, subst in self.CONVENTIONS.items()}

        def forbidden(*args, **kwargs):
            raise AssertionError("the substitution kernel called a product or a derivative")

        for owner, name in ((LogSeries, "d_dx"), (LogSeries, "exp_diffop"), (LogSeries, "__mul__"),
                            (series, "kth_derivative_closed_form"), (series, "cut_powers"),
                            (substitution, "cut_powers")):
            monkeypatch.setattr(owner, name, forbidden)
        with pytest.raises(AssertionError):
            series_exp(LogSeries.variable("x"), "x", 2)  # the patches are live
        for name, subst in self.CONVENTIONS.items():
            assert subst(self.F) == want[name], name
        assert want["x+y"] != self.F and want["x e^y"] != self.F


class TestDerivativeRouteIndependence:
    """The mirror of TestIndependentRoutes: e^(yT) and x d/dx apply the
    derivative rule termwise, with no series product and no substitution."""

    W = CoeffSpace("W", 2)
    F = (
        LogSeries.vector(CoeffVector(W, {0: 3}), Monomial.var("x", Fraction(1, 2), 4))
        + LogSeries.vector(CoeffVector(W, {1: 1}), Monomial.var("x", Exponent(-2, 1), 2))
        + LogSeries.vector(CoeffVector(W, {0: -1, 1: 1}), Monomial.var("x", -3, 1))
    ).with_trunc({"x": 2})
    OPERATORS = {
        "d/dx": LogSeries.one(),
        "x d/dx": LogSeries.variable("x"),
        "-(3/2) x^-1 d/dx": LogSeries.variable("x", -1).scale(Fraction(-3, 2)),
    }

    def _routes(self):
        out = {name: self.F.exp_diffop("y", p, "x", 4) for name, p in self.OPERATORS.items()}
        out["euler"] = self.F.d_dx("x", 1)
        return out

    def test_no_product_and_no_substitution(self, monkeypatch):
        want = self._routes()

        def forbidden(*args, **kwargs):
            raise AssertionError("the derivative route called a product or a substitution")

        patched = [(LogSeries, "__mul__"), (series, "cut_powers"), (substitution, "cut_powers")]
        patched += [(substitution, name) for name in ("_flow", "_egf_product", "_substitute")]
        patched += [(substitution, name) for name in dir(substitution) if name.startswith("subst_")]
        for owner, name in patched:
            monkeypatch.setattr(owner, name, forbidden)
        with pytest.raises(AssertionError):
            LogSeries.one() * LogSeries.one()  # the patches are live
        assert self._routes() == want
        assert all(not out.is_zero() for out in want.values())


class TestTheoremWitness:
    @pytest.mark.parametrize(
        "check, subst", [(checks.check_taylor, "subst_x_plus_y"), (checks.check_scaling, "subst_x_exp_y")]
    )
    def test_failed_row_names_the_first_differing_coefficient(self, monkeypatch, check, subst):
        planted = LogSeries.monomial(mono(7) * Monomial.var("y", 2), 5) + LogSeries.monomial(
            mono(-3) * Monomial.var("y", 1), Fraction(-5, 3)
        )
        right = getattr(checks, subst)
        monkeypatch.setattr(checks, subst, lambda f, x, y, order: right(f, x, y, order) + planted)
        rep = check(samples=3, order=8, seed=0)
        assert [c.check_id.rsplit("-", 1)[1] for c in rep.checks] == ["0"]
        assert rep.failures[0].witness == (
            "first nonzero coefficient at Monomial(x^(-3)*y): CoeffVector(scalar, {0: ExactScalar(5/3)})"
        )

    def test_witness_is_cut_at_200_characters(self, monkeypatch):
        planted = LogSeries.one().scale(Fraction(10**250 + 1, 7))
        monkeypatch.setattr(checks, "subst_x_plus_y", lambda f, x, y, order: subst_x_plus_y(f, x, y, order) + planted)
        witness = checks.check_taylor(samples=1, order=2, seed=0).failures[0].witness
        assert len(witness) == 200 and witness.startswith("first nonzero coefficient at Monomial(1): ")


class TestFormalLogExp:
    @pytest.mark.parametrize("order", range(1, 13))
    def test_log_of_exp_is_identity(self, order):
        ex = series_exp(LogSeries.variable("x"), "x", order) - LogSeries.one()
        out = series_log1p(ex, "x", order)
        assert out.equal_terms(LogSeries.variable("x").with_trunc({"x": order}))

    def test_exp_of_log(self):
        lg = series_log1p(LogSeries.variable("x"), "x", 8)
        out = series_exp(lg, "x", 8)
        expect = (LogSeries.one() + LogSeries.variable("x")).with_trunc({"x": 8})
        assert out.equal_terms(expect)

    def test_valuation_guard(self):
        with pytest.raises(ValueError):
            series_exp(LogSeries.one(), "x", 3)
