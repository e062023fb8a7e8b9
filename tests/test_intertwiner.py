import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc import catalog, intertwiner
from logcalc.intertwiner import (
    IntertwinerTable,
    VertexTable,
    WorkBudgetError,
    a_r,
    axiom_check,
    candidate_exponents,
    compose_with_homs,
    decompose,
    euler_precondition,
    _mode_defect,
    _table_defects,
    delta_relation_check,
    euler_minus_a,
    identity_vertex_table,
    jacobi_check_window,
    logpower_slice_euler_defect,
    ode_structure_check,
    omega_r,
    recover_modes,
    shift_s1s2s3,
    solve_fusion_space,
    subst_table_scaled,
    weight_formulas_check,
    x_t,
)
from logcalc.matrix import ExactMatrix
from logcalc.mobius import GradingGroup, MobiusModule
from logcalc.scalars import ExactScalar, Exponent, LatticeViolation, UnsupportedDivision, pi_scalar, root_of_unity
from logcalc.series import CoeffSpace, CoeffVector, LogSeries, Monomial
from logcalc.substitution import subst_scaled_exp
from series_tables import table_from_series

# ---------------------------------------------------------------------------
# reference oracle: each axiom defect computed on whole series, the way the
# axioms read, independent of the per-mode rows of `_mode_defect`


def _apply_module_matrix(mod, m, f: LogSeries) -> LogSeries:
    return f.map_coeffs(lambda vec: mod.apply_matrix(m, vec))


def lminus1_defect(t: IntertwinerTable, i: int, j: int, var="x") -> LogSeries:
    lhs = t.series_args(t.w1.apply_L(-1, t.w1.basis_vector(i)), t.w2.basis_vector(j))
    return lhs - t.series(i, j).d_dx(var)


def sl2_defect(t: IntertwinerTable, jb: int, i: int, j: int, var="x") -> LogSeries:
    s = t.series(i, j)
    lhs = _apply_module_matrix(t.w3, t.w3.L(jb), s) - t.series_args(
        t.w1.basis_vector(i), t.w2.apply_L(jb, t.w2.basis_vector(j))
    )
    rhs = LogSeries.zero(t.w3.coeff_space)
    for idx in range(jb + 2):
        arg = t.w1.apply_L(jb - idx, t.w1.basis_vector(i))
        term = t.series_args(arg, t.w2.basis_vector(j))
        rhs = rhs + (LogSeries.monomial(Monomial.var(var, idx), math.comb(jb + 1, idx)) * term)
    return lhs - rhs


def euler_defect(t: IntertwinerTable, i: int, j: int, var="x") -> LogSeries:
    s = t.series(i, j)
    lhs = _apply_module_matrix(t.w3, t.w3.L(0), s)
    rhs = (
        t.series_args(t.w1.basis_vector(i), t.w2.apply_L(0, t.w2.basis_vector(j)))
        + (LogSeries.variable(var) * s.d_dx(var))
        + t.series_args(t.w1.apply_L(0, t.w1.basis_vector(i)), t.w2.basis_vector(j))
    )
    return lhs - rhs


def oracle_euler_precondition(t: IntertwinerTable) -> bool:
    pairs = [(i, j) for i in range(t.w1.dim) for j in range(t.w2.dim)]
    if all(lminus1_defect(t, i, j).is_zero() and sl2_defect(t, 0, i, j).is_zero() for i, j in pairs):
        return True
    return all(euler_defect(t, i, j).is_zero() for i, j in pairs)


# constraint name of `_mode_defect` -> the oracle's defect of the pair (i, j)
MODE_DEFECT_REFERENCE = {
    "lminus1": lminus1_defect,
    "euler": euler_defect,
    "sl2_m1": lambda t, i, j: sl2_defect(t, -1, i, j),
    "sl2_0": lambda t, i, j: sl2_defect(t, 0, i, j),
    "sl2_1": lambda t, i, j: sl2_defect(t, 1, i, j),
}
# axiom_check kind -> (check id, constraint name) per row family; the
# brackets run over j = -1, 0, 1
BRACKETS = ((-1, "m1"), (0, "0"), (1, "1"))
ORACLE_FAMILIES = {
    "lminus1": [("L(-1)-derivative({i},{j})", "lminus1")],
    "sl2": [(f"sl2-bracket(j={jb};{{i}},{{j}})", f"sl2_{s}") for jb, s in BRACKETS],
    "euler": [("euler-identity({i},{j})", "euler")],
}


def oracle_axiom_rows(t: IntertwinerTable, which: str) -> list[tuple[str, LogSeries | None]]:
    """(check id, defect) per row of ``axiom_check(t, which)``; the defect is
    None on the structural rows (grading, weights), which the oracle does
    not recompute."""
    kinds = ("lminus1", "sl2", "euler", "grading", "weights") if which == "all" else (which,)
    rows = []
    for kind in kinds:
        if kind not in ORACLE_FAMILIES:
            rows += [(c.check_id, None) for c in axiom_check(t, kind).checks]
            continue
        for check_id, name in ORACLE_FAMILIES[kind]:
            for i in range(t.w1.dim):
                for j in range(t.w2.dim):
                    rows.append((check_id.format(i=i, j=j), MODE_DEFECT_REFERENCE[name](t, i, j)))
    return rows


@pytest.fixture(scope="module")
def vertex_as_intertwiner():
    v = catalog.trivial_module("V")
    w = catalog.jordan_module("W", Fraction(1, 2), size=2)
    table = IntertwinerTable(
        v, w, w, {(0, j, Exponent(-1), 0): w.basis_vector(j) for j in range(w.dim)}
    )
    return table, identity_vertex_table(v, w, w)


class TestAxiomCheck:
    def test_vertex_operator_is_intertwiner(self, vertex_as_intertwiner):
        table, _ = vertex_as_intertwiner
        assert axiom_check(table, "all").passed

    def test_weight_perturbation_breaks_lminus1(self, vertex_as_intertwiner):
        table, _ = vertex_as_intertwiner
        modes = dict(table.modes)
        modes[(0, 0, Exponent(-2), 0)] = table.w3.basis_vector(1)
        bad = IntertwinerTable(table.w1, table.w2, table.w3, modes)
        assert not axiom_check(bad, "lminus1").passed

    def test_solver_tables_pass_their_axioms(self, jordan_tables):
        for t in jordan_tables:
            assert axiom_check(t, "euler").passed
            assert axiom_check(t, "weights").passed
            assert axiom_check(t, "grading").passed

    def test_grading_violation_detected(self):
        g = GradingGroup(1)
        w = catalog.jordan_module("G", 0, size=2, degrees=[[0], [1]], group=g)
        v = catalog.jordan_module("V", 0, size=1, degrees=[[0]], group=g)
        # a degree-0 pair mapped onto the degree-1 component must fail
        table = IntertwinerTable(
            v, w, w, {(0, 0, Exponent(-1), 0): w.basis_vector(1)}
        )
        assert not axiom_check(table, "grading").passed


class TestJacobi:
    def test_delta_relation(self):
        assert delta_relation_check().passed

    def test_trivial_vacuum_instance(self, vertex_as_intertwiner):
        table, vt = vertex_as_intertwiner
        rep = jacobi_check_window(table, vt, 0, table.w1.basis_vector(0), table.w2.basis_vector(1))
        assert rep.passed

    def test_weight_report_names_the_first_bad_entry(self):
        zero = ExactMatrix.zeros(3, 3)
        b = MobiusModule("B", [0, 1, 1], zero, zero, zero)
        # the (-1)-mode of a weight-0 vector keeps weights: [0][0] is fine,
        # [1][0] and [2][0] are not
        m = ExactMatrix([[1, 0, 0], [1, 0, 0], [1, 0, 0]])
        vt = VertexTable(b, b, b, [Exponent(0)], {(1, 0, -1): m})
        [row] = vt.weight_report().failures
        assert row.witness == "mode (slot=1, v=0, n=-1) entry [1][0]"

    def test_mode_matrices_must_match_their_slot(self, epsilon_pair):
        _, vt = epsilon_pair
        with pytest.raises(ValueError, match="dimension 2"):
            VertexTable(*vt.modules.values(), vt.vector_weights, {(2, 0, -1): ExactMatrix([[1]])})

    def test_epsilon_instance(self, epsilon_pair):
        table, vt = epsilon_pair
        assert vt.weight_report().passed
        for v in (0, 1):
            for i in range(2):
                for j in range(2):
                    rep = jacobi_check_window(table, vt, v, table.w1.basis_vector(i), table.w2.basis_vector(j))
                    assert rep.passed, (v, i, j)

    # Y(w1, x2) contributes x2^(-n-1): a mode at n = 1/3 or -1/4 is reached
    # only at x2 exponents of the conjugate class, 2/3 or 1/4 mod Z
    @pytest.mark.parametrize(
        "n", [-1, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)], ids=["-1", "1/2", "1/3", "-1/4"]
    )
    def test_perturbed_mode_detected_with_witness(self, epsilon_pair, n):
        table, vt = epsilon_pair
        modes = dict(table.modes)
        modes[(1, 1, Exponent(n), 0)] = table.w3.basis_vector(0)
        bad = IntertwinerTable(table.w1, table.w2, table.w3, modes)
        rep = jacobi_check_window(bad, vt, 1, table.w1.basis_vector(1), table.w2.basis_vector(0))
        assert not rep.passed
        assert rep.failures[0].witness and "x0^" in rep.failures[0].witness
        if n == -1:
            assert rep.failures[0].witness == (
                "25/2592 coefficients differ; first: x0^-5 x1^0 x2^(Exponent(4)) lg^0: "
                "CoeffVector(A, {0: ExactScalar(-1)})"
            )


class TestSolver:
    def test_identity_table_found_for_trivial_first_slot(self):
        v = catalog.trivial_module("V")
        w = catalog.jordan_module("W", Fraction(1, 2), size=2)
        sols = solve_fusion_space(v, w, w, constraints=("lminus1", "sl2_m1", "sl2_0", "sl2_1"))
        assert len(sols) >= 1
        for t in sols:
            assert axiom_check(t, "all").passed

    def test_incompatible_degrees_give_zero(self):
        g = GradingGroup(0, [2])
        w1 = catalog.jordan_module("W1", 0, size=1, degrees=[[1]], group=g)
        w2 = catalog.jordan_module("W2", 0, size=1, degrees=[[1]], group=g)
        w3 = catalog.jordan_module("W3", 0, size=1, degrees=[[1]], group=g)
        sols = solve_fusion_space(w1, w2, w3, constraints=("euler",))
        assert sols == []

    def test_jordan_family_dimensions(self):
        w1 = catalog.trivial_module("W1")
        w2 = catalog.trivial_module("W2")
        for size in (1, 2, 3):
            w3 = catalog.jordan_module("W3", 0, size=size)
            sols = solve_fusion_space(w1, w2, w3, constraints=("euler",))
            assert len(sols) == size
            assert max(t.max_log_power() for t in sols) == size - 1

    def test_omega_symmetry_of_window_dimensions(self, jordan_tables):
        t = jordan_tables[2]
        dim_12 = len(solve_fusion_space(t.w1, t.w2, t.w3, constraints=("euler",)))
        dim_21 = len(solve_fusion_space(t.w2, t.w1, t.w3, constraints=("euler",)))
        assert dim_12 == dim_21

    def test_honest_covariant_dimension(self, honest_table):
        assert honest_table.max_log_power() == 0
        assert axiom_check(honest_table, "all").passed

    def test_reordered_or_repeated_constraints_give_the_same_basis(self, honest_table, epsilon_pair):
        """The solution space is the nullspace of the rows however the constraints are listed,
        and its basis is that of the reduced row echelon form: equal tables in the same order."""
        u, w, m = honest_table.w1, honest_table.w2, honest_table.w3
        t, vt = epsilon_pair
        for first, second in (
            (
                solve_fusion_space(u, w, m, ("lminus1", "sl2_0")),
                solve_fusion_space(u, w, m, ("sl2_0", "lminus1", "lminus1")),
            ),
            (
                solve_fusion_space(t.w1, t.w2, t.w3, ("jacobi", "lminus1"), max_log=1, vertex=vt),
                solve_fusion_space(t.w1, t.w2, t.w3, ("lminus1", "jacobi"), max_log=1, vertex=vt),
            ),
        ):
            assert first and [list(s.modes.items()) for s in first] == [list(s.modes.items()) for s in second]

    def test_jacobi_solves_over_the_work_budget_are_refused_before_any_row(self, monkeypatch, epsilon_pair):
        """The epsilon instance with its vertex mode (slot 1, v 0) moved from n = -1 to n: at n = 80 the
        rows would visit 8 * (255^2 + 12^2) window points, and no row is built."""
        mult, vt = epsilon_pair

        def solve(n):
            modes = dict(vt.modes)
            modes[(1, 0, n)] = modes.pop((1, 0, -1))
            moved = VertexTable(mult.w1, mult.w2, mult.w3, vt.vector_weights, modes)
            return solve_fusion_space(mult.w1, mult.w2, mult.w3, ("lminus1", "jacobi"), max_log=1, vertex=moved)

        assert solve(20) == []  # 46152 visits: solved, and no nonzero table satisfies the moved mode
        built = []
        monkeypatch.setattr(intertwiner, "_jacobi_mode_rows", lambda *args, **kw: built.append(args) or {})
        with pytest.raises(WorkBudgetError, match=r"^the jacobi rows of \(A; A A\) at depth 1 visit 521352 "
                                                  r"window points, over the bound of 200000$"):
            solve(80)
        assert not built

    def test_row_order_does_not_decide_the_basis(self, monkeypatch, jordan_tables, epsilon_pair):
        """``nullspace`` ends in the reduced row echelon form, which is unique, so shuffled rows give
        equal tables in the same order: on six honest triples under the four brackets, the three
        Jordan fixture triples under ``euler`` and the epsilon instance under ``lminus1,jacobi``."""
        sl2 = catalog.sl2_irreducible
        systems = [((sl2("U", a), sl2("W", b), sl2("M", c)), HONEST_AXIOMS, {})
                   for a, b, c in ((2, 2, 1), (1, 2, 2), (2, 3, 2), (3, 3, 3), (2, 2, 3), (3, 4, 4))]
        systems += [((t.w1, t.w2, t.w3), ("euler",), {}) for t in jordan_tables]
        mult, vt = epsilon_pair
        systems.append(((mult.w1, mult.w2, mult.w3), ("lminus1", "jacobi"), {"max_log": 1, "vertex": vt}))

        def bases():
            return [[list(t.modes.items()) for t in solve_fusion_space(*mods, axioms, **opts)]
                    for mods, axioms, opts in systems]

        want = bases()
        assert len(want) == 10 and all(want)
        nullspace = intertwiner.nullspace
        for seed in range(3):
            rng = random.Random(seed)
            monkeypatch.setattr(intertwiner, "nullspace", lambda rows, n: nullspace(rng.sample(rows, len(rows)), n))
            assert bases() == want, seed


HONEST_AXIOMS = ("lminus1", "sl2_m1", "sl2_0", "sl2_1")
# the depth theorem's triples: 36 honest sl(2) triples (a, b <= 3, c <= 4) under the full brackets, and
# 54 Jordan triples (block sizes 1-3, one or two blocks in W3) under euler
HONEST_DEPTH_TRIPLES = [
    ((catalog.sl2_irreducible("U", a), catalog.sl2_irreducible("W", b), catalog.sl2_irreducible("M", c)), HONEST_AXIOMS)
    for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3, 4)
]
JORDAN_DEPTH_TRIPLES = [
    ((catalog.jordan_module("W1", Fraction(1, 2), size=s1), catalog.jordan_module("W2", Fraction(1, 3), size=s2),
      catalog.jordan_module("W3", Fraction(5, 6), size=s3, blocks=blocks)), ("euler",))
    for s1 in (1, 2, 3) for s2 in (1, 2, 3) for s3 in (1, 2, 3) for blocks in (1, 2)
]


def _basis(w1, w2, w3, axioms, max_log=None, window=None) -> list[list]:
    """The solved basis with each table's modes in order: equal lists are the same basis in the same order."""
    return [list(t.modes.items()) for t in solve_fusion_space(w1, w2, w3, axioms, window, max_log)]


class TestSolverDepth:
    """Part II bounds the log powers of a solution of ``euler`` by K1 + K2 + K3 - 3 (K the nilpotency
    index of L(0) - L_s(0)), so the default depth max(K1 + K2 + K3 - 2, 1) of constraints that imply
    ``euler`` drops only columns that are zero in every solution.  The four tests take about 1.9 s
    in all on 2 shared cores (Python 3.11)."""

    def test_one_more_log_power_and_the_dimension_depth_give_the_same_basis(self):
        for (w1, w2, w3), axioms in HONEST_DEPTH_TRIPLES + JORDAN_DEPTH_TRIPLES:
            k = w1.nilpotency_index() + w2.nilpotency_index() + w3.nilpotency_index()
            default = _basis(w1, w2, w3, axioms)
            assert default == _basis(w1, w2, w3, axioms, max_log=k - 1), (w1, w2, w3)
            assert default == _basis(w1, w2, w3, axioms, max_log=max(w1.dim + w2.dim + w3.dim - 2, 1)), (w1, w2, w3)

    def test_the_default_solve_is_the_whole_space(self, jordan_tables):
        """Constraints that imply ``euler`` on the default window and depth give the whole space
        (:func:`solve_fusion_space`): a window widened by +-1/2 and +-1 around each candidate exponent
        and one more log power give the same basis, on five honest and the three Jordan fixture triples."""
        honest = [tuple(catalog.sl2_irreducible(name, d) for name, d in zip("UWM", dims))
                  for dims in ((2, 2, 1), (1, 2, 2), (2, 3, 2), (3, 3, 3), (2, 2, 3))]
        triples = [(mods, HONEST_AXIOMS) for mods in honest] + [((t.w1, t.w2, t.w3), ("euler",)) for t in jordan_tables]
        steps = (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)
        for (w1, w2, w3), axioms in triples:
            depth = max(w1.nilpotency_index() + w2.nilpotency_index() + w3.nilpotency_index() - 2, 1)
            wide = sorted({n + d for n in candidate_exponents(w1, w2, w3) for d in steps}, key=Exponent.sort_key)
            assert _basis(w1, w2, w3, axioms) == _basis(w1, w2, w3, axioms, depth + 1, wide), (w1, w2, w3)

    def test_a_nilpotency_index_one_too_low_loses_solutions(self, monkeypatch):
        bases = [_basis(*mods, axioms) for mods, axioms in JORDAN_DEPTH_TRIPLES]
        orig = MobiusModule.nilpotency_index
        monkeypatch.setattr(MobiusModule, "nilpotency_index", lambda self: orig(self) - 1)
        assert any(_basis(*mods, axioms) != basis for (mods, axioms), basis in zip(JORDAN_DEPTH_TRIPLES, bases))

    def test_constraints_that_do_not_imply_euler_keep_the_dimension_depth(self, honest_table):
        u, w, m = honest_table.w1, honest_table.w2, honest_table.w3
        for axioms in (("lminus1",), ("sl2_0", "sl2_1"), ("grading", "weights")):
            assert _basis(u, w, m, axioms) == _basis(u, w, m, axioms, max_log=u.dim + w.dim + m.dim - 2)


# module triples (W1, W2, W3): Jordan blocks (L(+-1) = 0), honest sl(2)
# (all three L(j) nonzero) and a mix of both
MODE_DEFECT_MODULES = {
    "jordan": (
        catalog.jordan_module("W1", Fraction(1, 2), size=2, blocks=2),
        catalog.jordan_module("W2", Fraction(-1, 3), size=2),
        catalog.jordan_module("W3", 0, size=3, blocks=2),
    ),
    "honest": (catalog.sl2_irreducible("U", 2), catalog.sl2_irreducible("W", 3), catalog.sl2_irreducible("M", 2)),
    "mixed": (
        catalog.sl2_irreducible("U", 3),
        catalog.jordan_module("W2", Fraction(1, 4), size=2, blocks=2),
        catalog.jordan_module("W3", Fraction(1, 2), size=2),
    ),
}
MODE_EXPONENTS = (Exponent(-1), Exponent(0), Exponent(2), Exponent(Fraction(1, 2)), Exponent(Fraction(-1, 3), 1))


def _random_table(w1, w2, w3, rng: random.Random) -> IntertwinerTable:
    def scalar():
        q = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        kind = rng.randrange(3)
        if kind == 0:
            return ExactScalar.from_rational(q)
        if kind == 1:
            return root_of_unity(Fraction(rng.randint(1, 23), 12)) * q
        return pi_scalar(q) + 1

    modes = {}
    for _ in range(rng.randint(1, 6)):
        key = (rng.randrange(w1.dim), rng.randrange(w2.dim), rng.choice(MODE_EXPONENTS), rng.randint(0, 2))
        modes[key] = CoeffVector(w3.coeff_space, {b: scalar() for b in range(w3.dim) if rng.random() < 0.6})
    return IntertwinerTable(w1, w2, w3, modes)


# every fifth Jordan triple and every sixth honest triple of the depth theorem, each solved under euler once
IMPLICATION_TRIPLES = [mods for mods, _ in JORDAN_DEPTH_TRIPLES[::5] + HONEST_DEPTH_TRIPLES[::6]]


@lru_cache(maxsize=None)
def _euler_space(idx: int) -> list[IntertwinerTable]:
    return solve_fusion_space(*IMPLICATION_TRIPLES[idx], ("euler",))


class TestImplications:
    """The implications behind the rows that `check fusion` leaves out: ``euler`` implies ``weights``,
    and at r = -1 the involution rows build the (r=-1,s=0) composition tables, whose right-hand sides
    Y(., e^0 x) and the zero dressing are the table itself."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_wrong_weight_component_fails_euler(self, data):
        idx = data.draw(st.integers(0, len(IMPLICATION_TRIPLES) - 1))
        w1, w2, w3 = IMPLICATION_TRIPLES[idx]
        t = IntertwinerTable(w1, w2, w3)
        for s in _euler_space(idx):
            t = t + s.scale(data.draw(st.integers(-2, 2)))
        i, j, b = (data.draw(st.integers(0, w.dim - 1)) for w in (w1, w2, w3))
        # wt e_b - (wt e_i + wt e_j - n - 1) is the nonzero step
        step = data.draw(st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3))))
        n = w1.weights[i] + w2.weights[j] - w3.weights[b] - 1 + step
        wrong = {(i, j, n, data.draw(st.integers(0, 3))): w3.basis_vector(b).scale(data.draw(st.integers(1, 3)))}
        bad = t + IntertwinerTable(w1, w2, w3, wrong)
        assert axiom_check(t, "euler").passed
        assert not axiom_check(bad, "weights").passed
        assert not axiom_check(bad, "euler").passed

    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(sorted(MODE_DEFECT_MODULES)))
    @settings(max_examples=30, deadline=None)
    def test_zero_turns_are_the_identity(self, seed, kind):
        t = _random_table(*MODE_DEFECT_MODULES[kind], random.Random(seed))
        real = IntertwinerTable(t.w1, t.w2, t.w3, {key: vec for key, vec in t.modes.items() if key[2].is_real()})
        assert subst_table_scaled(real, pi_scalar(0)) == real
        assert shift_s1s2s3(t, 0, 0, 0) == t


class TestModeDefect:
    """The solver's per-mode rows, summed over a table's modes, are the
    coefficient tables of the LogSeries defect functions."""

    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(sorted(MODE_DEFECT_MODULES)))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_defect(self, seed, kind):
        w1, w2, w3 = MODE_DEFECT_MODULES[kind]
        t = _random_table(w1, w2, w3, random.Random(seed))
        for name, defect in MODE_DEFECT_REFERENCE.items():
            want = {
                (i, j, mono, b): c
                for i in range(w1.dim)
                for j in range(w2.dim)
                for mono, vec in defect(t, i, j).items()
                for b, c in vec.components.items()
            }
            got: dict = {}
            for (i0, j0, n, k), vec in t.modes.items():
                for b, c in vec.components.items():
                    for (i, j, re, im, kk, bb), v in _mode_defect(w1, w2, w3, name, i0, j0, n, k, b).items():
                        key = (i, j, Monomial.var("x", Exponent._lattice(re, im), kk), bb)
                        got[key] = got.get(key, ExactScalar.zero()) + c * v
            assert {key: v for key, v in got.items() if not v.is_zero()} == want, name
            # the same sums as axiom_check groups them
            engine = _table_defects(t, name)
            assert {
                (i, j, mono, b): c
                for (i, j), d in engine.items()
                for mono, vec in d.items()
                for b, c in vec.components.items()
            } == want, name

    def test_single_mode_rows_are_nonzero(self):
        w1, w2, w3 = MODE_DEFECT_MODULES["honest"]
        for name in MODE_DEFECT_REFERENCE:
            rows = _mode_defect(w1, w2, w3, name, 1, 0, Exponent(Fraction(1, 2)), 1, 0)
            assert rows and all(not c.is_zero() for c in rows.values())

    def test_unknown_constraint_rejected(self):
        v = catalog.trivial_module("V")
        with pytest.raises(ValueError, match="unknown constraint 'sl2_2'"):
            solve_fusion_space(v, v, v, constraints=("euler", "sl2_2"))
        # a window with no weight-compatible exponent builds no unknown to probe the name with
        with pytest.raises(ValueError, match="unknown constraint 'bogus'"):
            solve_fusion_space(v, v, v, constraints=("bogus",), window=[Fraction(1, 2)])

    def test_constraints_without_rows_give_unit_tables(self, jordan2):
        """``weights`` adds no row, so every unknown mode is a basis table of its
        own: (i, j, n, b, k) in the order the solver lists its unknowns."""
        w, exps = jordan2, candidate_exponents(jordan2, jordan2, jordan2)
        want = [
            IntertwinerTable(w, w, w, {(i, j, n, k): CoeffVector(w.coeff_space, {b: 1})})
            for i in range(w.dim)
            for j in range(w.dim)
            for n in exps
            for b in range(w.dim)
            if w.weights[b] == w.weights[i] + w.weights[j] - n - 1
            for k in range(2)
        ]
        got = solve_fusion_space(w, w, w, constraints=("weights",), max_log=2)
        assert len(want) > 1 and got == want


AXIOM_KINDS = ("all", "lminus1", "sl2", "euler", "grading", "weights")


class TestAxiomEngine:
    """axiom_check and euler_precondition sum the per-mode rows; the oracle
    computes each defect on whole series."""

    @given(
        seed=st.integers(0, 2**32),
        kind=st.sampled_from(sorted(MODE_DEFECT_MODULES)),
        which=st.sampled_from(AXIOM_KINDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_report_matches_oracle(self, seed, kind, which):
        t = _random_table(*MODE_DEFECT_MODULES[kind], random.Random(seed))
        got = axiom_check(t, which)
        want = oracle_axiom_rows(t, which)
        assert [c.check_id for c in got.checks] == [check_id for check_id, _ in want]
        for check, (_, d) in zip(got.checks, want):
            if d is None:
                continue
            assert check.passed == d.is_zero(), check.check_id
            if check.passed:
                assert check.witness is None
                continue
            mono, vec = d.sorted_items()[0]  # the oracle's first coefficient
            assert check.witness == f"first nonzero coefficient at {mono!r}: {vec!r}"[:200]

    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(sorted(MODE_DEFECT_MODULES)))
    @settings(max_examples=20, deadline=None)
    def test_slice_defects_match_oracle(self, seed, kind):
        w1, w2, w3 = MODE_DEFECT_MODULES[kind]
        t = _random_table(w1, w2, w3, random.Random(seed))
        slices = decompose(t, "by_logpower") + [IntertwinerTable(w1, w2, w3, {})]
        for k in range(t.max_log_power() + 1):
            for i in range(w1.dim):
                for j in range(w2.dim):
                    upper = slices[k + 1].series(i, j)
                    assert logpower_slice_euler_defect(t, k, i, j) == euler_defect(slices[k], i, j) - upper.scale(k + 1)

    @given(
        seed=st.integers(0, 2**32),
        base=st.sampled_from(("random", "jordan0", "jordan1", "jordan2", "honest")),
        perturb=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_euler_precondition_matches_oracle(self, jordan_tables, honest_table, seed, base, perturb):
        rng = random.Random(seed)
        if base == "random":
            t = _random_table(*MODE_DEFECT_MODULES[rng.choice(sorted(MODE_DEFECT_MODULES))], rng)
        else:
            t = honest_table if base == "honest" else jordan_tables[int(base[-1])]
        if perturb:
            t = t + _random_table(t.w1, t.w2, t.w3, rng)
        assert euler_precondition(t) == oracle_euler_precondition(t)

    def test_both_precondition_routes_hold(self, jordan_tables, honest_table):
        # the honest table satisfies L(-1) and the j=0 bracket; a logarithmic
        # Jordan table only their Euler combination
        assert not _table_defects(honest_table, "lminus1") and not _table_defects(honest_table, "sl2_0")
        t = jordan_tables[1]
        assert _table_defects(t, "lminus1") and not _table_defects(t, "euler")
        assert euler_precondition(t) and euler_precondition(honest_table)

    def test_structural_witness_names_first_bad_mode(self):
        g = GradingGroup(1)
        w = catalog.jordan_module("G", Fraction(1, 2), size=2, degrees=[[0], [1]], group=g)
        v = catalog.jordan_module("V", 0, size=1, degrees=[[0]], group=g)
        # both modes break both rules; the second in canonical order is inserted last
        modes = {
            (0, 0, Exponent(-3), 0): w.basis_vector(1),
            (0, 1, Exponent(-2), 0): w.basis_vector(0),
        }
        rep = axiom_check(IntertwinerTable(v, w, w, modes), "all")
        witnesses = {c.check_id: c.witness for c in rep.failures}
        assert witnesses["grading-compatibility"] == "mode(0,0,Exponent(-3),0) has a component of degree (1,)"
        assert witnesses["generalized-weight-purity"].startswith("mode(0,0,Exponent(-3),0) has weight")


def _indices(text: str) -> list[int]:
    """The component indices of every ``CoeffVector`` that ``text`` prints, in print order."""
    return [int(i) for i in re.findall(r"(\d+): ExactScalar\(", text)]


class TestComponentOrder:
    """The order of a vector's components is decided in one place: ``CoeffVector.__repr__`` lists
    them by index, so no kernel keeps insertion order for a witness's sake."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_repr_is_the_same_for_every_insertion_order(self, data):
        dim = data.draw(st.integers(1, 6))
        idx = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True))
        values = data.draw(st.lists(st.integers(-9, 9).filter(bool), min_size=len(idx), max_size=len(idx)))
        space = CoeffSpace("W", dim)
        want = repr(CoeffVector(space, dict(sorted(zip(idx, values)))))
        order = data.draw(st.permutations(list(zip(idx, values))))
        assert repr(CoeffVector(space, dict(order))) == want
        assert _indices(want) == sorted(idx)

    def test_failing_witnesses_list_components_by_index(self, jordan_tables, epsilon_pair):
        # each planted mode lists its components from the highest index down, so both engines
        # meet them in that order; the witnesses still print them ascending
        t = jordan_tables[1]
        i, j, n, k = next(iter(t.modes))
        top = CoeffVector(t.w3.coeff_space, {t.w3.dim - 1: 3, 0: -2})
        bad = t + IntertwinerTable(t.w1, t.w2, t.w3, {(i, j, n, k + 1): top})
        euler = [c.witness for c in axiom_check(bad, "euler").failures]
        assert euler and len(_indices(euler[0])) == 2 and _indices(euler[0]) == sorted(_indices(euler[0]))
        mult, vt = epsilon_pair
        planted = mult + IntertwinerTable(mult.w1, mult.w2, mult.w3,
                                          {(1, 1, Exponent(-1), 0): CoeffVector(mult.w3.coeff_space, {1: 1, 0: 2})})
        rep = jacobi_check_window(planted, vt, 1, mult.w1.basis_vector(0), mult.w2.basis_vector(1))
        assert not rep.passed and _indices(rep.failures[0].witness) == [0, 1]


def _constructions(monkeypatch) -> dict[str, int]:
    """Counts of the Monomial and Exponent objects built from now on, by every constructor path."""
    counts = {"Monomial": 0, "Exponent": 0}

    def counting(cls, name, wrap):
        orig = getattr(cls, name)

        def call(*args, **kwargs):
            counts[cls.__name__] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrap(call))

    for cls in (Monomial, Exponent):
        counting(cls, "__init__", lambda f: f)
    counting(Monomial, "_trusted", staticmethod)
    counting(Exponent, "_lattice", staticmethod)
    return counts


class TestRowKeys:
    """The axiom, solver and Jacobi rows are keyed by plain integers: a monomial or an exponent is built
    only for the one witness that a failing row prints."""

    def test_solves_build_no_monomial(self, monkeypatch, jordan_tables, honest_table, epsilon_pair):
        jordan, eps = jordan_tables[2], epsilon_pair[0]
        counts = _constructions(monkeypatch)
        solve_fusion_space(jordan.w1, jordan.w2, jordan.w3, ("euler",))
        solve_fusion_space(honest_table.w1, honest_table.w2, honest_table.w3, HONEST_AXIOMS)
        solve_fusion_space(eps.w1, eps.w2, eps.w3, ("jacobi",), vertex=epsilon_pair[1])
        assert counts["Monomial"] == 0

    def test_passing_axiom_checks_build_no_monomial(self, monkeypatch, jordan_tables, honest_table):
        counts = _constructions(monkeypatch)
        assert axiom_check(honest_table).passed
        assert all(axiom_check(t, "euler").passed for t in jordan_tables)
        assert counts["Monomial"] == 0

    def test_passing_jacobi_checks_build_no_exponent(self, monkeypatch, epsilon_pair):
        t, vt = epsilon_pair
        counts = _constructions(monkeypatch)
        for v in range(2):
            for i in range(t.w1.dim):
                for j in range(t.w2.dim):
                    assert jacobi_check_window(t, vt, v, t.w1.basis_vector(i), t.w2.basis_vector(j)).passed
        assert counts["Exponent"] == 0

    def test_a_failing_row_builds_its_witness(self, monkeypatch, honest_table, epsilon_pair):
        """The counts above see the objects that a failing row's witness prints."""
        t, vt = epsilon_pair
        bumped = t + IntertwinerTable(t.w1, t.w2, t.w3, {(1, 1, Exponent(Fraction(1, 2)), 1): t.w3.basis_vector(0)})
        h, first = honest_table, next(iter(honest_table.modes))
        doubled = IntertwinerTable(h.w1, h.w2, h.w3, {**h.modes, first: h.modes[first].scale(2)})
        counts = _constructions(monkeypatch)
        jacobi = jacobi_check_window(bumped, vt, 1, t.w1.basis_vector(1), t.w2.basis_vector(1))
        assert counts["Exponent"] > 0 and "x2^(Exponent(7/2)) lg^1" in jacobi.failures[0].witness
        axioms = axiom_check(doubled, "lminus1")
        assert counts["Monomial"] > 0
        assert axioms.failures[0].witness.startswith("first nonzero coefficient at Monomial(")


class TestDerivedOperators:
    @pytest.mark.parametrize("r", [-2, -1, 0, 1])
    def test_omega_involution(self, jordan_tables, r):
        for t in jordan_tables:
            assert omega_r(omega_r(t, r), -r - 1) == t

    def test_omega_composition_is_scaled_substitution(self, jordan_tables):
        t = jordan_tables[1]
        for r in (-1, 0, 1):
            for s in (-1, 0, 1):
                assert omega_r(omega_r(t, r), s) == subst_table_scaled(t, pi_scalar(2 * (r + s + 1)))

    def test_omega_composition_matches_l0_dressing(self, jordan_tables):
        # the full-turn substitution equals the e^(2 pi i s L(0)) dressing triple
        t = jordan_tables[2]
        for r, s in ((0, 0), (-1, 1)):
            m = r + s + 1
            assert omega_r(omega_r(t, r), s) == shift_s1s2s3(t, m, -m, -m)

    def test_omega_preserves_profile(self, jordan_tables, honest_table):
        for t in jordan_tables:
            o = omega_r(t, 0)
            assert axiom_check(o, "euler").passed
            assert axiom_check(o, "grading").passed
        o = omega_r(honest_table, 0)
        assert axiom_check(o, "all").passed

    def test_omega_preserves_logfreeness(self, honest_table):
        assert omega_r(honest_table, 0).max_log_power() == 0

    @pytest.mark.parametrize("r", [-2, -1, 0, 1])
    def test_dual_involution(self, jordan_tables, r):
        for t in jordan_tables:
            assert a_r(a_r(t, r), -r - 1) == t

    def test_dual_composition_law(self, jordan_tables):
        t = jordan_tables[0]
        for r in (-1, 0):
            for s in (0, 1):
                assert a_r(a_r(t, r), s) == shift_s1s2s3(t, 0, r + s + 1, 0)

    def test_dual_laws_see_a_wrong_r(self):
        # W1 of weight 1/3: e^(2 Pi i L(0)) is not the identity there, so A_(r+1)
        # in place of A_r breaks both laws, which the Jordan fixtures' W1 cannot show
        w1 = catalog.trivial_module("W1", Fraction(1, 3))
        w2 = catalog.jordan_module("W2", Fraction(1, 4), size=2)
        w3 = catalog.jordan_module("W3", Fraction(7, 12), size=2, blocks=2)
        space = solve_fusion_space(w1, w2, w3, ("euler",))
        assert len(space) == 8 and max(t.max_log_power() for t in space) == 2
        for t in space:
            for r in (-1, 0):
                assert a_r(a_r(t, r), -r - 1) == t
                assert a_r(a_r(t, r + 1), -r) != t
                for s in (0, 1):
                    assert a_r(a_r(t, r), s) == shift_s1s2s3(t, 0, r + s + 1, 0)
                    assert a_r(a_r(t, r + 1), s + 1) != shift_s1s2s3(t, 0, r + s + 1, 0)

    def test_dual_preserves_full_axioms_on_honest_table(self, honest_table):
        ar = a_r(honest_table, 0)
        assert axiom_check(ar, "all").passed
        assert a_r(ar, -1) == honest_table

    def test_dual_agrees_with_contragredient_action_on_vertex_table(self, vertex_as_intertwiner):
        # type (W; V W) with the vacuum acting as identity: A_r is the
        # contragredient table for every r
        table, _ = vertex_as_intertwiner
        first = a_r(table, 0)
        for r in (-2, -1, 1):
            assert a_r(table, r) == first

    def test_dual_needs_grading_compatibility(self):
        g = GradingGroup(1)
        w = catalog.jordan_module("G", 0, size=2, degrees=[[0], [1]], group=g)
        v = catalog.trivial_module("V")
        bad = IntertwinerTable(v, w, w, {(0, 0, Exponent(-1), 0): w.basis_vector(1)})
        with pytest.raises(ValueError):
            a_r(bad, 0)

    def test_shift_identity_and_composition(self, jordan_tables):
        t = jordan_tables[2]
        assert shift_s1s2s3(t, 0, 0, 0) == t
        lhs = shift_s1s2s3(shift_s1s2s3(t, 1, 0, -1), -2, 1, 1)
        assert lhs == shift_s1s2s3(t, -1, 1, 0)

    def test_shift_trivial_on_integral_semisimple(self, honest_table):
        # integral weights + semisimple L(0): e^{2 pi i s L(0)} = 1... only
        # when all weights are integers; the 2-dim factors have halves, so
        # use the 3-dim module in slot 3 alone
        v3 = catalog.sl2_irreducible("Z", 3)
        vtab = IntertwinerTable(
            catalog.trivial_module("V"),
            v3,
            v3,
            {(0, j, Exponent(-1), 0): v3.basis_vector(j) for j in range(3)},
        )
        for s in (-2, 1, 3):
            assert shift_s1s2s3(vtab, s, 0, 0) == vtab
            assert shift_s1s2s3(vtab, 0, 0, s) == vtab


class TestXt:
    def test_identity_at_zero(self, jordan_tables):
        for t in jordan_tables:
            assert x_t(t, 0) == t

    def test_vanishes_beyond_depth(self, jordan_tables):
        for t in jordan_tables:
            assert x_t(t, t.max_log_power() + 1).is_zero()

    def test_preserves_euler(self, jordan_tables):
        for t in jordan_tables:
            for tt in range(1, t.max_log_power() + 1):
                assert axiom_check(x_t(t, tt), "euler").passed

    def test_sum_reproduces_scaled_substitution(self, jordan_tables):
        t = jordan_tables[1]
        for p in (0, 1, 2, 3):
            acc = None
            for tt in range(t.max_log_power() + 1):
                term = x_t(t, tt).scale(pi_scalar(2 * p) ** tt)
                acc = term if acc is None else acc + term
            assert acc == subst_table_scaled(t, pi_scalar(2 * p))

    def test_nilpotent_dressing_combination(self, jordan_tables):
        import math

        t = jordan_tables[2]
        n1, n2, n3 = (m.nilpotent_part() for m in (t.w1, t.w2, t.w3))

        def mat_pow(m, p):
            out = ExactMatrix.identity(m.rows)
            for _ in range(p):
                out = out @ m
            return out

        for tt in range(3):
            acc = None
            for i in range(tt + 1):
                for j in range(tt + 1 - i):
                    l = tt - i - j
                    coeff = Fraction((-1) ** (i + j), math.factorial(i) * math.factorial(j) * math.factorial(l))
                    term = compose_with_homs(t, mat_pow(n3, l), mat_pow(n1, i), mat_pow(n2, j)).scale(coeff)
                    acc = term if acc is None else acc + term
            assert acc == x_t(t, tt)


class TestDecompose:
    def test_log_free_gives_single_slice(self, honest_table):
        slices = decompose(honest_table, "by_logpower")
        assert len(slices) == 1 and slices[0] == honest_table

    def test_congruence_partition_reassembles(self, jordan_tables):
        for t in jordan_tables:
            parts = decompose(t, "by_congruence")
            acc = None
            for p in parts:
                acc = p if acc is None else acc + p
                assert axiom_check(p, "euler").passed
            assert acc == t

    def test_slices_satisfy_corrected_rule_only(self, jordan_tables):
        t = jordan_tables[1]  # depth 2
        assert t.max_log_power() >= 1
        slices = decompose(t, "by_logpower")
        # the slices fail the plain euler identity when a higher slice exists
        failed_plain = False
        for k, s in enumerate(slices[:-1]):
            if not axiom_check(s, "euler").passed:
                failed_plain = True
        assert failed_plain
        for k in range(len(slices)):
            for i in range(t.w1.dim):
                for j in range(t.w2.dim):
                    assert logpower_slice_euler_defect(t, k, i, j).is_zero()

    def test_slice_derivative_rule_on_lminus1_table(self, honest_table):
        # lminus1 forces a finite table to be polynomial: its one log-power
        # slice is the table, so the slice rule is the lminus1 axiom itself
        assert decompose(honest_table, "by_logpower") == [honest_table]
        assert axiom_check(honest_table, "lminus1").passed


class TestTableArithmetic:
    def test_sums_and_multiples_keep_no_zero_mode(self, jordan_tables):
        t = jordan_tables[1]
        assert t.scale(0).modes == {} and (t + t.scale(-1)).modes == {}
        assert t.scale(2) == t + t and t.scale(2).scale(Fraction(1, 2)).modes == t.modes

    def test_tables_of_different_types_do_not_add(self, jordan_tables, honest_table):
        for other in (jordan_tables[1], honest_table):
            with pytest.raises(ValueError, match="adding tables of different types"):
                jordan_tables[0] + other


class TestRecovery:
    def test_roundtrip_all_depths(self, jordan_tables):
        for t in jordan_tables:
            for i in range(t.w1.dim):
                for j in range(t.w2.dim):
                    for n in t.exponents():
                        rec = recover_modes(t, i, j, n)
                        for r, vec in enumerate(rec):
                            assert vec == t.mode(i, j, n, r)

    def test_log_free_recovery_is_projection(self, honest_table):
        t = honest_table
        for n in t.exponents():
            rec = recover_modes(t, 0, 0, n)
            assert len(rec) == 1 and rec[0] == t.mode(0, 0, n, 0)

    def test_zero_modes_recover_as_zero(self, jordan_tables):
        t = jordan_tables[0]
        rec = recover_modes(t, 0, 0, Exponent(7))
        assert all(v.is_zero() for v in rec)


class TestWeightFormulas:
    def test_all_formulas_on_jordan_tables(self, jordan_tables):
        for t in jordan_tables:
            rep = weight_formulas_check(t, "all")
            assert rep.passed, rep.to_text()[:500]

    def test_all_formulas_on_ordinary_table(self, honest_table):
        rep = weight_formulas_check(honest_table, "all")
        assert rep.passed

    def test_precondition_refusal(self):
        w = catalog.jordan_module("W", 0, size=2)
        v = catalog.trivial_module("V")
        bad = IntertwinerTable(
            v, v, w, {(0, 0, Exponent(-1), 1): w.basis_vector(1)}
        )
        rep = weight_formulas_check(bad, "t00")
        assert not rep.passed
        assert rep.checks[0].check_id == "euler-precondition"

    def test_global_bound_is_sharp_on_fixture(self, jordan_tables):
        t = jordan_tables[1]
        k_total = t.w1.nilpotency_index() + t.w2.nilpotency_index() + t.w3.nilpotency_index()
        assert t.max_log_power() == k_total - 3

    @staticmethod
    def _above_bound(t):
        """t plus a mode e_0 at log power k1+k2+k3-2, one above the global bound."""
        k_total = t.w1.nilpotency_index() + t.w2.nilpotency_index() + t.w3.nilpotency_index()
        i, j, n, _k = next(iter(t.modes))
        return t + IntertwinerTable(t.w1, t.w2, t.w3, {(i, j, n, k_total - 2): t.w3.basis_vector(0)})

    @pytest.mark.parametrize("kind, row", [
        ("ty", "l0-power-expansion("),
        ("t00", "mode-l0-power("),
        ("rt", "mode-shift-combination("),
        ("bound", "global-log-power-bound"),
        ("pairing_poly", "pairing-span("),
    ])
    def test_every_formula_can_fail(self, jordan_tables, monkeypatch, kind, row):
        # the planted table breaks euler, so its precondition is waived to reach the rows
        monkeypatch.setattr(intertwiner, "euler_precondition", lambda t: True)
        rep = weight_formulas_check(self._above_bound(jordan_tables[1]), kind)
        bad = rep.failures
        assert bad and bad[0].check_id.startswith(row) and bad[0].witness, rep.to_text()[:500]
        assert weight_formulas_check(jordan_tables[1], kind).passed

    def test_bound_witnesses_name_the_first_bad_mode(self, jordan_tables, monkeypatch):
        # modes at log powers 3 and 4, both above the fixture's global bound 2
        monkeypatch.setattr(intertwiner, "euler_precondition", lambda t: True)
        t = jordan_tables[1]
        i, j, n, _k = next(iter(t.modes))
        planted = t + IntertwinerTable(t.w1, t.w2, t.w3, {(i, j, n, k): t.w3.basis_vector(0) for k in (3, 4)})
        rows = {c.check_id: c.witness for c in weight_formulas_check(planted, "all").failures}
        assert rows["per-pair-vanishing-bound"] == f"mode({i},{j},{n!r},3) nonzero above lg-power 2"
        spans = [w for check_id, w in rows.items() if check_id.startswith("pairing-span(")]
        assert spans and all("lg(x)^3" in w for w in spans), spans

    def test_recovery_raises_on_planted_table(self, jordan_tables):
        t = self._above_bound(jordan_tables[1])
        i, j, n, _k = next(iter(t.modes))
        with pytest.raises(AssertionError, match="failed to collapse"):
            recover_modes(t, i, j, n)


class TestOdeLemma:
    def test_x_l0_series_solves(self):
        mod = catalog.jordan_module("Jo", Fraction(1, 2), size=3)
        from logcalc.mobius import x_pm_L0

        f = x_pm_L0(mod, mod.basis_vector(2), 1)
        rep = ode_structure_check(f, "x", Exponent(Fraction(1, 2)), 3)
        assert rep.passed

    def test_minimality_detects_shallower_solutions(self):
        f = LogSeries.monomial(Monomial.var("x", Fraction(1, 3), 0), 2)
        rep = ode_structure_check(f, "x", Exponent(Fraction(1, 3)), 2)
        # annihilated and in span, but the top log coefficient vanishes
        assert not rep.passed
        assert [c.passed for c in rep.checks] == [True, True, False]

    def test_truncated_exponential_escapes(self):
        a, b = Exponent(0), Exponent(1)
        # truncation of x^b e^((a-b) lg x) at lg-power N
        terms = {}
        coeff = Fraction(1)
        for k in range(4):
            terms[Monomial.var("x", b, k)] = CoeffVector.scalar(coeff)
            coeff = coeff * Fraction(-1, k + 1)
        f = LogSeries(LogSeries.one().space, terms)
        out = euler_minus_a(f, "x", a)
        assert not out.coeff(Monomial.var("x", b, 3)).is_zero()


class TestGradingPreservation:
    def test_derived_operators_preserve_grading(self, jordan_tables):
        for t in jordan_tables:
            assert axiom_check(omega_r(t, 0), "grading").passed
            assert axiom_check(x_t(t, 1), "grading").passed
            assert axiom_check(shift_s1s2s3(t, 1, 0, -1), "grading").passed
            for part in decompose(t, "by_congruence"):
                assert axiom_check(part, "grading").passed
            ar = a_r(t, 0)
            assert axiom_check(ar, "grading").passed


def _series_route(t: IntertwinerTable, zeta: ExactScalar) -> IntertwinerTable:
    """Y(., e^zeta x) through the series of each basis pair and back."""
    return table_from_series(t.w1, t.w2, t.w3, lambda i, j: subst_scaled_exp(t.series(i, j), "x", zeta))


def _outcome(fn, *args):
    """The modes of the table ``fn`` returns, or the type and text of what it raises."""
    try:
        return fn(*args).modes
    except (LatticeViolation, UnsupportedDivision) as exc:
        return type(exc), str(exc)


class TestScaledTableKernel:
    """The table route of Y(., e^zeta x) against the series route it replaced: the same modes, and
    the same error."""

    ZETAS = [pi_scalar(2 * p) for p in range(-1, 3)] + [ExactScalar.pi_power(1, 2 * r + 1) for r in range(-2, 2)]

    def test_fixtures_and_solved_tables(self, jordan_tables, honest_table):
        solved = solve_fusion_space(*JORDAN_DEPTH_TRIPLES[-1][0], ("euler",))
        assert len(solved) > 10
        for t in [*jordan_tables, honest_table, *solved]:
            for zeta in self.ZETAS:
                assert subst_table_scaled(t, zeta).modes == _series_route(t, zeta).modes

    def test_random_tables_and_exponents_that_are_not_real(self):
        rng = random.Random(29)
        raised = 0
        for _ in range(60):
            t = _random_table(*MODE_DEFECT_MODULES[rng.choice(sorted(MODE_DEFECT_MODULES))], rng)
            zeta = rng.choice(self.ZETAS)
            got = _outcome(subst_table_scaled, t, zeta)
            assert got == _outcome(_series_route, t, zeta)
            raised += isinstance(got, tuple)
        assert 0 < raised < 60

    def test_a_non_real_exponent_raises_the_same_message(self, jordan_tables):
        t = jordan_tables[0]
        bad = t + IntertwinerTable(t.w1, t.w2, t.w3, {(0, 0, Exponent(Fraction(1, 2), 1), 0): t.w3.basis_vector(0)})
        got = _outcome(subst_table_scaled, bad, pi_scalar(2))
        assert got == _outcome(_series_route, bad, pi_scalar(2))
        assert got[0] is LatticeViolation and "needs real exponents; x^(-3/2+-1i)" in got[1]


class TestFormalInvariance:
    def test_scaled_substitution_preserves_profile(self, jordan_tables, honest_table):
        for t in jordan_tables:
            shifted = subst_table_scaled(t, pi_scalar(2))
            assert axiom_check(shifted, "euler").passed
            assert axiom_check(shifted, "grading").passed
        shifted = subst_table_scaled(honest_table, pi_scalar(4))
        assert axiom_check(shifted, "all").passed

    def test_congruence_of_powers(self, jordan_tables):
        for t in jordan_tables:
            h1, h2, h3 = t.w1.weights[0], t.w2.weights[0], t.w3.weights[0]
            for n in t.exponents():
                assert ((h3 - h1 - h2) + n + 1).is_integer()
