import math
from fractions import Fraction

import pytest

from logcalc import catalog
from logcalc.matrix import ExactMatrix
from logcalc.mobius import (
    GradedSpace,
    GradingGroup,
    MobiusModule,
    Sl2Action,
    conj_identity_check,
    contragredient,
    e_aL0,
    exp_L_series_matrix,
    exp_nilpotent_terms,
    module_valid,
    pairing_series,
    series_matrix_add,
    series_matrix_from,
    series_matrix_identity,
    series_matrix_mul,
    series_matrix_scale,
    validate_sl2,
    x_pm_L0,
)
from logcalc.scalars import ExactScalar, LatticeViolation, imaginary_unit, pi_scalar
from logcalc.series import CoeffVector, LogSeries, Monomial
from logcalc.substitution import series_log1p


class TestGradingGroup:
    def test_torsion_reduction(self):
        g = GradingGroup(1, [3])
        assert g.element([5, 7]) == (5, 1)
        assert g.add((1, 2), (0, 2)) == (1, 1)
        assert g.neg((2, 1)) == (-2, 2)

    def test_zero(self):
        assert GradingGroup(2).zero() == (0, 0)


class TestValidation:
    def test_jordan_block_is_structurally_valid(self, jordan2):
        report = validate_sl2(jordan2)
        assert module_valid(report)
        # the informational pairing bracket fails, by necessity
        assert not report.passed
        failed = {c.check_id for c in report.failures}
        assert failed == {"bracket-L1-Lm1"}

    def test_honest_irreducible_passes_everything(self, irreducible3):
        report = validate_sl2(irreducible3)
        assert report.passed and module_valid(report)

    def test_weight_mixing_fails_hard(self):
        space = GradedSpace("B", [0, 1])
        zero = ExactMatrix.zeros(2, 2)
        bad = MobiusModule(space, Sl2Action(zero, ExactMatrix([[0, 1], [0, 1]]), zero))
        report = validate_sl2(bad)
        assert not module_valid(report)

    def test_weight_shift_violation_detected(self):
        space = GradedSpace("B", [0, 0])
        lm1 = ExactMatrix([[0, 0], [1, 0]])  # stays inside weight 0: wrong shift
        bad = MobiusModule(space, Sl2Action(lm1, ExactMatrix.zeros(2, 2), ExactMatrix.zeros(2, 2)))
        report = validate_sl2(bad)
        assert not module_valid(report)

    def test_witnesses_name_the_first_bad_entry(self):
        zero = ExactMatrix.zeros(3, 3)
        # column by column: [1][0] shifts correctly, [2][1] and [1][2] do not
        lm1 = ExactMatrix([[0, 0, 0], [1, 0, 1], [0, 1, 0]])
        bad = MobiusModule(GradedSpace("B", [0, 1, 1]), Sl2Action(lm1, zero, zero))
        witness = {c.check_id: c.witness for c in validate_sl2(bad).failures}
        assert witness["weight-shift-L(-1)"].startswith("L(-1)[2][1] shifts weight")
        # one entry with a bad weight and a bad degree: the weight is named
        space = GradedSpace("D", [0, 0], [(0,), (1,)], GradingGroup(1))
        l0 = ExactMatrix([[0, 1], [1, 0]])
        lm1 = ExactMatrix([[0, 0], [1, 0]])
        bad = MobiusModule(space, Sl2Action(lm1, l0, ExactMatrix.zeros(2, 2)))
        witness = {c.check_id: c.witness for c in validate_sl2(bad).failures}
        assert witness["weight-shift-L(-1)"].startswith("L(-1)[1][0] shifts weight")
        assert witness["degree-preservation-L(0)"] == "L(0)[1][0] changes group degree"

    def test_seeded_modules_validate(self):
        for seed in range(5):
            mod = catalog.seeded_semisimple_module(f"T{seed}", seed)
            assert validate_sl2(mod).passed


class TestExpNilpotentTerms:
    def test_jordan_block_terms(self):
        m = catalog.jordan_module("J", Fraction(1, 2), size=3)
        n = m.nilpotent_part()
        v = m.basis_vector(2)
        assert exp_nilpotent_terms(m, n, v) == [v, m.basis_vector(1), m.basis_vector(0).scale(Fraction(1, 2))]
        assert exp_nilpotent_terms(m, n, CoeffVector.zero(m.coeff_space)) == []
        assert m.nilpotency_index() == 3

    def test_operator_not_nilpotent_on_the_vector_raises(self):
        m = catalog.jordan_module("J", 1, size=3)
        with pytest.raises(ValueError, match="not nilpotent"):
            exp_nilpotent_terms(m, m.action.L0, m.basis_vector(0))


def _exp_power_by_power(module, j, coeff, order, var):
    """sum_k L(j)^k coeff^k / k!, each coeff^k computed anew as a power."""
    m = module.L(j)
    bound = module.dim if m.is_nilpotent() else order
    trunc = {var: order} if order is not None else {}
    out = [[e.with_trunc(trunc) for e in row] for row in series_matrix_identity(module.dim)]
    cur = series_matrix_identity(module.dim)
    for k in range(1, bound + 1):
        cur = series_matrix_mul(series_matrix_from(m), cur)
        term = series_matrix_scale(cur, coeff**k)
        out = series_matrix_add(out, [[e.scale(Fraction(1, math.factorial(k))).with_trunc(trunc) for e in row] for row in term])
    return out


class TestExpLSeriesMatrix:
    def test_running_power_matches_power_by_power(self, irreducible3, jordan2):
        x = LogSeries.variable("x")
        log_part = series_log1p(x.scale(-1), "x", 6)
        cases = [
            (irreducible3, 0, log_part, 6, "x"),
            (jordan2, 0, log_part, 5, "x"),
            (irreducible3, -1, x * LogSeries.variable("y"), None, None),
            (irreducible3, 1, x.scale(-1), None, None),
        ]
        for mod, j, coeff, order, var in cases:
            got = exp_L_series_matrix(mod, j, coeff, order, var)
            want = _exp_power_by_power(mod, j, coeff, order, var)
            assert got == want
            assert [[list(e.terms) for e in row] for row in got] == [[list(e.terms) for e in row] for row in want]


class TestXPowerL0:
    def test_jordan_pair(self, jordan2):
        w2 = jordan2.basis_vector(1)
        out = x_pm_L0(jordan2, w2, +1)
        expect = LogSeries.vector(w2, Monomial.var("x", Fraction(1, 2))) + LogSeries.vector(
            jordan2.basis_vector(0), Monomial.var("x", Fraction(1, 2), 1)
        )
        assert out == expect

    def test_semisimple_vector(self, irreducible3):
        w = irreducible3.basis_vector(2)  # weight +1
        assert x_pm_L0(irreducible3, w, +1) == LogSeries.vector(w, Monomial.var("x", 1))
        assert x_pm_L0(irreducible3, w, -1) == LogSeries.vector(w, Monomial.var("x", -1))

    def test_inverse_composition(self, jordan2):
        for i in range(jordan2.dim):
            w = jordan2.basis_vector(i)
            s = x_pm_L0(jordan2, w, +1)
            back = LogSeries.zero(jordan2.coeff_space)
            for m, vec in s.items():
                back = back + (x_pm_L0(jordan2, vec, -1) * LogSeries.monomial(m))
            assert back == LogSeries.vector(w)

    def test_derivative_identity(self, jordan2, irreducible3):
        for mod in (jordan2, irreducible3):
            for i in range(mod.dim):
                w = mod.basis_vector(i)
                for sign in (1, -1):
                    s = x_pm_L0(mod, w, sign)
                    rhs = LogSeries.zero(mod.coeff_space)
                    for m, vec in x_pm_L0(mod, mod.apply_L(0, w), sign).items():
                        rhs = rhs + LogSeries.monomial(m * Monomial.var("x", -1), Fraction(sign)).scale_vector(vec)
                    assert s.d_dx("x") == rhs


class TestExpAL0:
    def test_integral_weights_fixed_by_full_turns(self):
        mod = catalog.sl2_irreducible("V3x", 3)  # weights -1, 0, 1
        for i in range(3):
            w = mod.basis_vector(i)
            assert e_aL0(mod, w, pi_scalar(2)) == w

    def test_inverse(self, jordan2):
        for i in range(jordan2.dim):
            w = jordan2.basis_vector(i)
            out = e_aL0(jordan2, e_aL0(jordan2, w, pi_scalar(1)), -pi_scalar(1))
            assert out == w

    def test_jordan_pair_value(self, jordan2):
        w = jordan2.basis_vector(1)
        out = e_aL0(jordan2, w, pi_scalar(1))
        expect = (
            CoeffVector(jordan2.coeff_space, {1: ExactScalar.from_rational(1)})
            + CoeffVector(jordan2.coeff_space, {0: pi_scalar(1)})
        ).scale(imaginary_unit())
        assert out == expect

    def test_lattice_guard(self):
        mod = catalog.jordan_module("J7", Fraction(1, 3), size=2)
        with pytest.raises(LatticeViolation):
            e_aL0(mod, mod.basis_vector(0), pi_scalar(Fraction(1, 5)))

    def test_nilpotent_factor_commutes_with_sl2(self, jordan2, irreducible3):
        # e^{a(L(0)-L(0)_s)} is built from N alone; on both module families N
        # commutes with every L(j) matrix
        for mod in (jordan2, irreducible3, catalog.direct_sum("mix", catalog.sl2_irreducible("a", 2), catalog.jordan_module("b", 0, 2))):
            n = mod.nilpotent_part()
            for j in (-1, 0, 1):
                assert (n @ mod.L(j)) == (mod.L(j) @ n)


class TestConjugationIdentities:
    @pytest.mark.parametrize("which", ["xL0_Lj", "xL0_expLj", "expLm1", "expL1"])
    def test_exact_identities(self, irreducible3, which):
        assert conj_identity_check(irreducible3, which).passed

    def test_diagonal_exponential_conjugation(self, irreducible3):
        assert conj_identity_check(irreducible3, "expL0", order=8).passed

    def test_one_minus_x_two_routes(self, irreducible3, jordan2):
        for mod in (irreducible3, jordan2):
            assert conj_identity_check(mod, "one_minus_x", order=6).passed

    @pytest.mark.parametrize("r", [-2, -1, 0, 1])
    def test_inverse_relation(self, irreducible3, r):
        assert conj_identity_check(irreducible3, "inverse_rel", r=r).passed

    def test_missing_order_rejected(self, irreducible3):
        with pytest.raises(ValueError):
            conj_identity_check(irreducible3, "expL0")

    def test_trivial_on_jordan(self, jordan2):
        # xL0_Lj only needs the triangular brackets, so Jordan actions pass it
        assert conj_identity_check(jordan2, "xL0_Lj").passed


class TestContragredient:
    def test_double_dual_is_original(self, jordan2):
        assert contragredient(contragredient(jordan2)) is jordan2

    def test_weights_preserved_degrees_negated(self):
        g = GradingGroup(1)
        mod = catalog.jordan_module("G", Fraction(1, 2), size=2, degrees=[[1], [1]], group=g)
        dual = contragredient(mod)
        assert dual.space.weights == mod.space.weights
        assert dual.space.degrees == ((-1,), (-1,))

    def test_action_transposed(self, irreducible3):
        dual = contragredient(irreducible3)
        assert dual.action.Lm1 == irreducible3.action.L1.transpose()
        assert dual.action.L1 == irreducible3.action.Lm1.transpose()

    def test_pairing_identity_per_log_power(self, jordan2):
        dual = contragredient(jordan2)
        for i in range(jordan2.dim):
            for k in range(jordan2.dim):
                wp = dual.basis_vector(i)
                w = jordan2.basis_vector(k)
                lhs = pairing_series(x_pm_L0(dual, wp, 1), LogSeries.vector(w))
                rhs = pairing_series(LogSeries.vector(wp), x_pm_L0(jordan2, w, 1))
                assert lhs == rhs
