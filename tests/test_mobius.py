import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc import catalog, mobius
from logcalc.matrix import ExactMatrix
from logcalc.mobius import (
    GradingGroup,
    MobiusModule,
    NonTerminating,
    conj_identity_check,
    contragredient,
    e_aL0,
    exp_L,
    exp_nilpotent_terms,
    module_valid,
    pairing_value,
    validate_sl2,
    x_pm_L0,
)
from logcalc.reports import Report
from logcalc.scalars import ExactScalar, Exponent, LatticeViolation, imaginary_unit, pi_scalar
from logcalc.series import SCALAR, CoeffVector, LogSeries, Monomial
from logcalc.substitution import series_exp, series_log1p


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
        zero = ExactMatrix.zeros(2, 2)
        bad = MobiusModule("B", [0, 1], zero, ExactMatrix([[0, 1], [0, 1]]), zero)
        report = validate_sl2(bad)
        assert not module_valid(report)

    def test_weight_shift_violation_detected(self):
        lm1 = ExactMatrix([[0, 0], [1, 0]])  # stays inside weight 0: wrong shift
        bad = MobiusModule("B", [0, 0], lm1, ExactMatrix.zeros(2, 2), ExactMatrix.zeros(2, 2))
        report = validate_sl2(bad)
        assert not module_valid(report)

    def test_witnesses_name_the_first_bad_entry(self):
        zero = ExactMatrix.zeros(3, 3)
        # column by column: [1][0] shifts correctly, [2][1] and [1][2] do not
        lm1 = ExactMatrix([[0, 0, 0], [1, 0, 1], [0, 1, 0]])
        bad = MobiusModule("B", [0, 1, 1], lm1, zero, zero)
        witness = {c.check_id: c.witness for c in validate_sl2(bad).failures}
        assert witness["weight-shift-L(-1)"].startswith("L(-1)[2][1] shifts weight")
        # one entry with a bad weight and a bad degree: the weight is named
        l0 = ExactMatrix([[0, 1], [1, 0]])
        lm1 = ExactMatrix([[0, 0], [1, 0]])
        bad = MobiusModule("D", [0, 0], lm1, l0, ExactMatrix.zeros(2, 2), [(0,), (1,)], GradingGroup(1))
        witness = {c.check_id: c.witness for c in validate_sl2(bad).failures}
        assert witness["weight-shift-L(-1)"].startswith("L(-1)[1][0] shifts weight")
        assert witness["degree-preservation-L(0)"] == "L(0)[1][0] changes group degree"

    def test_constructor_checks_in_order(self):
        # each case also breaks every later check: the first check decides
        z1, z2 = ExactMatrix.zeros(1, 1), ExactMatrix.zeros(2, 2)
        cases = [
            (([], z2, z1, z1, [(0,)]), "graded space must be nonzero"),
            (([0], z2, z1, z1, [(), ()]), "one degree per basis vector required"),
            (([0], z2, z1, z1, [(0,)]), "need 0 coordinates"),
            (([0], z2, z1, z1), "action matrices must be square and equally sized"),
            (([0], z2, z2, z2), "action dimension does not match the graded space"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                MobiusModule("M", *args)

    def test_seeded_modules_validate(self):
        for seed in range(5):
            mod = catalog.seeded_semisimple_module(f"T{seed}", seed)
            assert validate_sl2(mod).passed


def _product_report(module: MobiusModule) -> Report:
    """validate_sl2 as it was when the nilpotent-part row formed N D and D N."""
    r = Report(f"sl2-structure({module.name})")
    Lm1, L0, L1 = (module.L(j) for j in (-1, 0, 1))
    r.add("bracket-L0-Lm1", L0.commutator(Lm1) == Lm1)
    r.add("bracket-L0-L1", L0.commutator(L1) == (-L1))
    pairing_ok = L1.commutator(Lm1) == L0.scale(2)
    r.add("bracket-L1-Lm1", pairing_ok, "2L(0) bracket fails (tolerated for Jordan actions)")
    n, d = module.nilpotent_part(), module.weight_diagonal()
    r.add("nilpotent-part", n.is_nilpotent() and (n @ d) == (d @ n))
    for j in (-1, 1):
        witness = None
        for row, col in module.L(j).nonzero_positions():
            if module.weights[row] != module.weights[col] - j:
                witness = f"L({j})[{row}][{col}] shifts weight {module.weights[col]!r} badly"
            elif module.degrees[row] != module.degrees[col]:
                witness = f"L({j})[{row}][{col}] changes group degree"
            if witness:
                break
        r.add(f"weight-shift-L({j})", witness is None, witness)
    bad = [(row, col) for row, col in L0.nonzero_positions() if module.degrees[row] != module.degrees[col]]
    witness = f"L(0)[{bad[0][0]}][{bad[0][1]}] changes group degree" if bad else None
    r.add("degree-preservation-L(0)", witness is None, witness)
    return r


WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 3), Exponent(Fraction(1, 2), 1))
ENTRIES = (1, -2, Fraction(1, 3), pi_scalar(1), imaginary_unit() + 1)
POSITIONS = st.integers(0, 5)


@st.composite
def small_modules(draw) -> MobiusModule:
    """L(0) = diag(weights) + N: Jordan blocks inside equal weights, off-diagonal entries
    between unequal ones, sometimes a diagonal entry; sparse random L(-1) and L(1)."""
    dim = draw(st.integers(1, 4))
    weights = sorted(draw(st.lists(st.sampled_from(WEIGHTS), min_size=dim, max_size=dim)), key=str)
    spread = draw(st.sampled_from((0, 1, 3)))  # tenths of the entries drawn nonzero off the blocks

    def entry(i: int, j: int, fill: int):
        return draw(st.sampled_from(ENTRIES)) if draw(st.integers(0, 9)) < fill else 0

    n = [[entry(i, j, spread if i != j else 1) for j in range(dim)] for i in range(dim)]
    for i in range(dim - 1):
        if weights[i] == weights[i + 1] and draw(st.booleans()):
            n[i][i + 1] = 1
    diagonal = [Exponent.coerce(w).as_scalar() for w in weights]
    l0 = ExactMatrix([[n[i][j] + (diagonal[i] if i == j else 0) for j in range(dim)] for i in range(dim)])
    lm1, l1 = (ExactMatrix([[entry(i, j, 2) for j in range(dim)] for i in range(dim)]) for _ in range(2))
    return MobiusModule("R", weights, lm1, l0, l1)


def _perturbed(base: int, j: int, row: int, col: int, c) -> MobiusModule:
    module = [
        catalog.jordan_module("J", Fraction(1, 2), size=3),
        catalog.sl2_irreducible("V", 3),
        catalog.seeded_semisimple_module("S", 4, max_dim=4),
        catalog.jordan_module("K", 0, size=2, blocks=2),
    ][base]
    mats = {k: module.L(k) for k in (-1, 0, 1)}
    entries = [list(r) for r in mats[j].entries]
    entries[row % module.dim][col % module.dim] += c
    mats[j] = ExactMatrix(entries)
    return MobiusModule(module.name, module.weights, *mats.values(), module.degrees, module.group)


def _broken_modules() -> list[MobiusModule]:
    zero2, zero3 = ExactMatrix.zeros(2, 2), ExactMatrix.zeros(3, 3)
    tilted = [Exponent(Fraction(1, 2), 1)] * 2
    return [
        MobiusModule("B", [0, 1], zero2, ExactMatrix([[0, 1], [0, 1]]), zero2),
        MobiusModule("B", [0, 0], ExactMatrix([[0, 0], [1, 0]]), zero2, zero2),
        MobiusModule("B", [0, 1, 1], ExactMatrix([[0, 0, 0], [1, 0, 1], [0, 1, 0]]), zero3, zero3),
        MobiusModule("D", [0, 0], ExactMatrix([[0, 0], [1, 0]]), ExactMatrix([[0, 1], [1, 0]]), zero2,
                     [(0,), (1,)], GradingGroup(1)),
        MobiusModule("S", [0, 0], zero2, ExactMatrix([[0, 1], [1, 0]]), zero2),
        MobiusModule("W", [0, Fraction(1, 2)], zero2, ExactMatrix([[0, 1], [0, Fraction(1, 2)]]), zero2),
        MobiusModule("T", tilted, zero2, ExactMatrix([[tilted[0].as_scalar(), 1], [0, tilted[0].as_scalar()]]), zero2),
    ]


class TestNilpotentPartRow:
    """validate_sl2 tests [N, diag(w)] = 0 by the positions of N: (ND - DN)[i][j] = N[i][j] (w_j - w_i)."""

    @given(small_modules())
    @settings(max_examples=200, deadline=None)
    def test_positions_agree_with_the_products(self, module):
        n, d = module.nilpotent_part(), module.weight_diagonal()
        links_equal_weights = all(module.weights[i] == module.weights[j] for i, j in n.nonzero_positions())
        assert links_equal_weights == ((n @ d) == (d @ n))
        assert validate_sl2(module).checks == _product_report(module).checks

    @given(st.integers(0, 3), st.sampled_from((-1, 0, 1)), POSITIONS, POSITIONS, st.sampled_from(ENTRIES))
    @settings(max_examples=100, deadline=None)
    def test_perturbed_modules_report_alike(self, base, j, row, col, c):
        module = _perturbed(base, j, row, col, c)
        assert validate_sl2(module).checks == _product_report(module).checks

    @pytest.mark.parametrize("index", range(7))
    def test_broken_modules_report_alike(self, index):
        module = _broken_modules()[index]
        report, reference = validate_sl2(module), _product_report(module)
        assert report.suite == reference.suite and report.checks == reference.checks


class TestExpNilpotentTerms:
    def test_jordan_block_terms(self):
        m = catalog.jordan_module("J", Fraction(1, 2), size=3)
        n = m.nilpotent_part()
        v = m.basis_vector(2)
        assert exp_nilpotent_terms(m, n, v) == [v, m.basis_vector(1), m.basis_vector(0).scale(Fraction(1, 2))]
        assert exp_nilpotent_terms(m, n, CoeffVector.zero(m.coeff_space)) == []
        assert m.nilpotency_index() == 3

    def test_nilpotent_part_is_built_once(self, irreducible3):
        for m in (catalog.jordan_module("J", Fraction(1, 2), size=3), irreducible3):
            diagonal = [[m.weights[i].as_scalar() if i == j else 0 for j in range(m.dim)] for i in range(m.dim)]
            assert m.nilpotent_part() is m.nilpotent_part()
            assert m.nilpotent_part().entries == (m.L(0) - ExactMatrix(diagonal)).entries

    def test_operator_not_nilpotent_on_the_vector_raises(self):
        m = catalog.jordan_module("J", 1, size=3)
        with pytest.raises(NonTerminating, match="not nilpotent"):
            exp_nilpotent_terms(m, m.L(0), m.basis_vector(0))

    def test_count_cuts_the_orbit(self):
        # with a count, a non-nilpotent operator gives its first terms
        m = catalog.jordan_module("J", 1, size=2)
        v = m.basis_vector(1)
        terms = exp_nilpotent_terms(m, m.L(0), LogSeries.vector(v, Monomial.var("x", 2)), count=3)
        assert [f.coeff(Monomial.var("x", 2)) for f in terms] == [
            v, m.apply_L(0, v), m.apply_L(0, m.apply_L(0, v)).scale(Fraction(1, 2))
        ]


class TestExpL:
    def test_diagonal_exponential_is_series_exp(self, irreducible3):
        x = LogSeries.variable("x")
        for i in range(irreducible3.dim):
            e = irreducible3.basis_vector(i)
            h = irreducible3.weights[i].as_scalar()
            got = exp_L(irreducible3, 0, x, LogSeries.vector(e), order=8)
            assert got == LogSeries.vector(e) * series_exp(x.scale(h), "x", 8)

    def test_nilpotent_exponential_terminates(self, irreducible3):
        y = LogSeries.variable("y")
        for j in (-1, 1):
            for i in range(irreducible3.dim):
                e = irreducible3.basis_vector(i)
                want = LogSeries.zero(irreducible3.coeff_space)
                for p, term in enumerate(exp_nilpotent_terms(irreducible3, irreducible3.L(j), e)):
                    want = want + LogSeries.vector(term, Monomial.var("y", p))
                assert exp_L(irreducible3, j, y, LogSeries.vector(e)) == want

    def test_non_nilpotent_operator_needs_an_order(self, irreducible3):
        # e_1 has weight 0, so L(0) kills it; nilpotence is a property of the matrix
        e = LogSeries.vector(irreducible3.basis_vector(1))
        with pytest.raises(NonTerminating, match="non-nilpotent operator needs a truncation order"):
            exp_L(irreducible3, 0, LogSeries.variable("x"), e)

    def test_cut_needs_a_coefficient_of_positive_valuation(self, irreducible3):
        # a cut sum of x^(-k) terms would drop every lower power of x
        e = LogSeries.vector(irreducible3.basis_vector(0))
        with pytest.raises(ValueError, match=r"positive valuation in 'x' \(found Monomial\(x\^\(-1\)\)\)"):
            exp_L(irreducible3, 0, LogSeries.variable("x", -1), e, order=2)
        with pytest.raises(ValueError, match="positive valuation in 'x'"):
            exp_L(irreducible3, 0, LogSeries.one(), e, order=2)
        # a nilpotent L(j) sums exactly, so its order only truncates
        got = exp_L(irreducible3, -1, LogSeries.variable("x", -1), e, order=2)
        assert got == exp_L(irreducible3, -1, LogSeries.variable("x", -1), e).with_trunc({"x": 2})

    def test_unknown_tail_charges_the_bound(self, irreducible3):
        # f's orbit ends at once, but the orbit of its unknown x-tail need not: each
        # power of a coefficient of negative x-valuation lowers the x bound by one
        y = LogSeries.variable("y")
        j1 = catalog.jordan_module("J", 1, 1)
        e0, e2 = irreducible3.basis_vector(0), irreducible3.basis_vector(2)
        cases = [  # (module, j, coeff, f, completion of f, order, var)
            (j1, 0, series_log1p(-(y * LogSeries.variable("x", -1)), "y", 2), LogSeries.zero(j1.coeff_space),
             LogSeries.vector(j1.basis_vector(0), Monomial.var("x", 4)), 2, "y"),
            (irreducible3, 1, LogSeries.variable("x", -1), LogSeries.vector(e0),
             LogSeries.vector(e0) + LogSeries.vector(e2, Monomial.var("x", 4)), None, "x"),
        ]
        for module, j, coeff, f, full, order, var in cases:
            got = exp_L(module, j, coeff, f.with_trunc({"x": 3}), order, var)
            want = exp_L(module, j, coeff, full, order, var)
            assert got.trunc["x"] == 1
            assert all(got.coeff(m) == want.coeff(m) for m in want.terms if m.exponent("x").re <= 1)
            # and the tail reaches below the old bound x^3
            assert any(1 < m.exponent("x").re <= 3 for m in want.terms)


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
                        rhs = rhs + LogSeries.vector(vec.scale(sign), m * Monomial.var("x", -1))
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


# conjugation reports on the honest 3-dim module with 1 added to entry
# (row, col) of L(j): the first 16 hex digits of the sha256 of the report JSON
# (witnesses included) and the failing rows; an exponential with no exact sum
# fails its row
BROKEN_MODULE_REPORTS = {
    ((-1, 0, 1), "xL0_Lj"): ("50c04cae46b07449", ["xL0-conjugate-L(-1)"]),
    ((-1, 0, 1), "xL0_expLj"): ("be9dde0e1d194918", ["xL0-conjugate-exp-L(-1)"]),
    ((-1, 0, 1), "expLm1"): ("50fd35d3bb897f0d", ["expLm1-row-L(0)", "expLm1-row-L(1)"]),
    ((-1, 0, 1), "expL0"): ("4aea187a53b4738c", ["expL0-row-L(-1)"]),
    ((-1, 0, 1), "expL1"): ("fa2bd776e2c29417", ["expL1-row-L(-1)"]),
    ((-1, 0, 1), "inverse_rel"): ("74a6dc0877846e7d", []),
    ((0, 0, 1), "xL0_Lj"): ("ae6374ecf400c756", ["xL0-conjugate-L(-1)", "xL0-conjugate-L(0)", "xL0-conjugate-L(1)"]),
    ((0, 0, 1), "xL0_expLj"): ("4c4917fef9020ca6", ["xL0-conjugate-exp-L(-1)", "xL0-conjugate-exp-L(1)"]),
    ((0, 0, 1), "expLm1"): ("6f8ec872aa2e1be4", ["expLm1-row-L(0)", "expLm1-row-L(1)"]),
    ((0, 0, 1), "expL0"): ("88e086073d2aaab6", ["expL0-row-L(-1)", "expL0-row-L(1)"]),
    ((0, 0, 1), "expL1"): ("0ce801c0680fcb38", ["expL1-row-L(-1)", "expL1-row-L(0)"]),
    ((0, 0, 1), "inverse_rel"): ("e58077d1a18dd229", ["x-to-minus-inverse-x(r=0)", "exp-conjugation(r=0)"]),
    ((1, 2, 1), "xL0_Lj"): ("fe242693f84f9479", ["xL0-conjugate-L(1)"]),
    ((1, 2, 1), "xL0_expLj"): ("6b5b1e40ee24f185", ["xL0-conjugate-exp-L(1)"]),
    ((1, 2, 1), "expLm1"): ("b36f1132c4eac54f", ["expLm1-row-L(1)"]),
    ((1, 2, 1), "expL0"): ("e6d97ebd0b09981d", ["expL0-row-L(1)"]),
    ((1, 2, 1), "expL1"): ("5a73db58a0de9131", ["expL1-row-L(-1)", "expL1-row-L(0)", "expL1-row-L(1)"]),
    ((1, 2, 1), "inverse_rel"): ("8549aeac3977317b", ["x-to-minus-inverse-x(r=0)", "exp-conjugation(r=0)"]),
}


class TestConjugationIdentities:
    @pytest.mark.parametrize("which", ["xL0_Lj", "xL0_expLj", "expLm1", "expL1"])
    def test_exact_identities(self, irreducible3, which):
        assert conj_identity_check(irreducible3, which).passed

    def test_diagonal_exponential_conjugation(self, irreducible3):
        assert conj_identity_check(irreducible3, "expL0", order=8).passed

    @pytest.mark.parametrize("r", [-2, -1, 0, 1])
    def test_inverse_relation(self, irreducible3, r):
        assert conj_identity_check(irreducible3, "inverse_rel", r=r).passed

    @pytest.mark.parametrize("dim", [3, 4])
    def test_exponentials_reach_second_powers(self, dim, monkeypatch):
        """On the irreducibles of dimension 3 and 4, L(+-1)^2 != 0, so e^(c L(+-1)) reaches c^2: every
        identity of the ``sl2`` suite passes, and an exponential that keeps c^1 on every orbit term
        fails each identity that exponentiates L(+-1).  (The suite's seeded modules have L(+-1)^2 = 0.)"""
        mod = catalog.sl2_irreducible(f"V{dim}", dim)
        assert not (mod.L(-1) @ mod.L(-1)).is_zero() and not (mod.L(1) @ mod.L(1)).is_zero()
        cases = [("xL0_Lj", {}), ("xL0_expLj", {}), ("expLm1", {}), ("expL0", {"order": 8}), ("expL1", {})]
        cases += [("inverse_rel", {"r": r}) for r in (-2, -1, 0, 1)]

        def failing():
            return [(which, kw) for which, kw in cases if not conj_identity_check(mod, which, **kw).passed]

        assert failing() == []

        def first_powers(f, terms, c):
            for term in terms[1:]:
                f = f + (term.scale(c) if isinstance(term, CoeffVector) else c * term)
            return f

        monkeypatch.setattr(mobius, "_exp_sum", first_powers)
        assert failing() == [("xL0_expLj", {}), ("expLm1", {}), ("expL1", {})] + cases[5:]

    def test_missing_order_rejected(self, irreducible3):
        with pytest.raises(ValueError):
            conj_identity_check(irreducible3, "expL0")

    def test_non_nilpotent_weight_part_reports(self):
        # L(0) - L(0)_s swaps the two weight-0 basis vectors: x^(+-L(0)) has no exact sum
        zero = ExactMatrix.zeros(2, 2)
        mod = MobiusModule("S", [0, 0], zero, ExactMatrix([[0, 1], [1, 0]]), zero)
        rep = conj_identity_check(mod, "xL0_Lj")
        assert [c.check_id for c in rep.failures] == [f"xL0-conjugate-L({j})" for j in (-1, 0, 1)]
        assert {c.witness for c in rep.failures} == {
            "exponential does not terminate: the operator is not nilpotent on the vector"
        }

    def test_trivial_on_jordan(self, jordan2):
        # xL0_Lj only needs the triangular brackets, so Jordan actions pass it
        assert conj_identity_check(jordan2, "xL0_Lj").passed

    @pytest.mark.parametrize("j, row, col, which", [(*entry, which) for entry, which in BROKEN_MODULE_REPORTS])
    def test_broken_module_reports(self, irreducible3, j, row, col, which):
        # one entry of one L(j) is off by 1, the declared weights are not
        mats = {k: [list(r) for r in irreducible3.L(k).entries] for k in (-1, 0, 1)}
        mats[j][row][col] = mats[j][row][col] + 1
        broken = MobiusModule(irreducible3.name, irreducible3.weights, *(ExactMatrix(mats[k]) for k in (-1, 0, 1)))
        order = 10 if which in ("expLm1", "expL0") else None
        want = BROKEN_MODULE_REPORTS[(j, row, col), which]
        rep = conj_identity_check(broken, which, order=order)
        assert [c.check_id for c in rep.failures] == want[1]
        assert hashlib.sha256(rep.to_json().encode()).hexdigest()[:16] == want[0]


class TestContragredient:
    def test_double_dual_is_original(self, jordan2):
        assert contragredient(contragredient(jordan2)) is jordan2

    def test_weights_preserved_degrees_negated(self):
        g = GradingGroup(1)
        mod = catalog.jordan_module("G", Fraction(1, 2), size=2, degrees=[[1], [1]], group=g)
        dual = contragredient(mod)
        assert dual.weights == mod.weights
        assert dual.degrees == ((-1,), (-1,))

    def test_action_transposed(self, irreducible3):
        dual = contragredient(irreducible3)
        assert dual.L(-1) == irreducible3.L(1).transpose()
        assert dual.L(1) == irreducible3.L(-1).transpose()

    def test_pairing_identity_per_log_power(self, jordan2):
        def pairing_series(fprime, f):
            """<f'(x), f(x)>, summed term by term."""
            out = LogSeries.zero(SCALAR)
            for m1, v1 in fprime.items():
                for m2, v2 in f.items():
                    out = out + LogSeries.monomial(m1 * m2, pairing_value(v1, v2))
            return out

        dual = contragredient(jordan2)
        for i in range(jordan2.dim):
            for k in range(jordan2.dim):
                wp = dual.basis_vector(i)
                w = jordan2.basis_vector(k)
                lhs = pairing_series(x_pm_L0(dual, wp, 1), LogSeries.vector(w))
                rhs = pairing_series(LogSeries.vector(wp), x_pm_L0(jordan2, w, 1))
                assert lhs == rhs
