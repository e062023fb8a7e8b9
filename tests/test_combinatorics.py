from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc.combinatorics import (
    comb_identity_sides,
    lubell_refinement,
    lubell_sides,
    pascal_pair,
    vandermonde_pair,
)
from logcalc.matrix import ExactMatrix, nullspace
from logcalc.scalars import ExactScalar, UnsupportedDivision, pi_scalar, root_of_unity


class TestCombIdentity:
    def test_enumerated_example(self):
        assert comb_identity_sides(3, 2) == (Fraction(1), Fraction(1))

    def test_diagonal_convention(self):
        for k in range(6):
            assert comb_identity_sides(k, k) == (Fraction(1), Fraction(1))

    def test_k2_j1(self):
        assert comb_identity_sides(2, 1) == (Fraction(1, 2), Fraction(1, 2))

    def test_identity_up_to_ten(self):
        for k in range(11):
            for j in range(k + 1):
                left, right = comb_identity_sides(k, j)
                assert left == right, (k, j)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            comb_identity_sides(3, 4)


class TestLubell:
    def test_base_case(self):
        assert lubell_sides(1, 1) == (Fraction(1), Fraction(1))

    def test_harmonic_case(self):
        h3 = Fraction(1) + Fraction(1, 2) + Fraction(1, 3)
        assert lubell_sides(3, 1) == (h3, h3)

    def test_pairs(self):
        left, right = lubell_sides(4, 2)
        assert left == right

    def test_full_grid(self):
        for n in range(1, 7):
            for j in range(1, 5):
                left, right = lubell_sides(n, j)
                assert left == right, (n, j)

    def test_refinement_partitions(self):
        for n in range(1, 6):
            for j in range(1, 4):
                ref = lubell_refinement(n, j)
                assert all(a == b for a, b in ref)
                total_s, total_t = lubell_sides(n, j)
                assert sum(a for a, _ in ref) == total_s
                assert sum(b for _, b in ref) == total_t


class TestPascal:
    def test_size_three(self):
        p, pinv = pascal_pair(3)
        assert p == ExactMatrix([[1, 1, 1], [0, 1, 2], [0, 0, 1]])
        assert pinv == ExactMatrix([[1, -1, 1], [0, 1, -2], [0, 0, 1]])

    def test_size_one(self):
        p, pinv = pascal_pair(1)
        assert p == ExactMatrix([[1]]) and pinv == ExactMatrix([[1]])

    @pytest.mark.parametrize("k", range(1, 13))
    def test_inverse_product(self, k):
        p, pinv = pascal_pair(k)
        assert (p @ pinv) == ExactMatrix.identity(k)
        assert (pinv @ p) == ExactMatrix.identity(k)


class TestVandermonde:
    def test_size_zero(self):
        v, vinv = vandermonde_pair(0)
        assert v == ExactMatrix([[1]]) and vinv == ExactMatrix([[1]])

    def test_size_one_nodes(self):
        v, _ = vandermonde_pair(1)
        # nodes are 0 and 2*Pi: rows (1, 0) and (1, 2*Pi)
        assert v == ExactMatrix([[1, 0], [1, pi_scalar(2)]])

    def test_each_call_gets_its_own_matrices(self):
        v, vinv = vandermonde_pair(3)
        v.entries[0][0] = ExactScalar.from_rational(5)
        vinv.entries[1] = []
        again, again_inv = vandermonde_pair(3)
        assert again.entries[0][0] == ExactScalar.from_rational(1) and len(again_inv.entries[1]) == 4
        assert (again @ again_inv) == ExactMatrix.identity(4)

    @pytest.mark.parametrize("s", range(0, 6))
    def test_row_recombination_delta(self, s):
        v, vinv = vandermonde_pair(s)
        assert (vinv @ v) == ExactMatrix.identity(s + 1)
        assert (v @ vinv) == ExactMatrix.identity(s + 1)


class TestExactMatrix:
    def test_arithmetic(self):
        a = ExactMatrix([[1, 2], [3, 4]])
        b = ExactMatrix([[0, 1], [1, 0]])
        assert (a @ b) == ExactMatrix([[2, 1], [4, 3]])
        assert (a + b - b) == a
        assert a.transpose().transpose() == a

    def test_inverse_rational(self):
        a = ExactMatrix([[2, 1], [1, 1]])
        assert (a @ a.inverse()) == ExactMatrix.identity(2)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2], [2, 4]]).inverse()

    @pytest.mark.parametrize(
        "entries",
        [
            [[pi_scalar(1) + 1, 1], [1, 0]],
            [[pi_scalar(1) + 1, 1, 0], [0, 1, 1], [1, 0, 0]],
            [[root_of_unity(Fraction(1, 3)) + pi_scalar(2), 1], [pi_scalar(1), 0]],
        ],
    )
    def test_inverse_swaps_past_a_non_monomial_pivot(self, entries):
        """The first pivot candidate of column 0 is not a Pi-monomial; a row
        swap brings an invertible one up."""
        a = ExactMatrix(entries)
        assert a @ a.inverse() == ExactMatrix.identity(a.rows)
        assert a.inverse() @ a == ExactMatrix.identity(a.rows)

    def test_nilpotence_probe(self):
        assert ExactMatrix([[0, 1], [0, 0]]).is_nilpotent()
        assert not ExactMatrix([[1, 0], [0, 0]]).is_nilpotent()

    def test_commutator(self):
        a = ExactMatrix([[0, 1], [0, 0]])
        b = ExactMatrix([[0, 0], [1, 0]])
        assert a.commutator(b) == ExactMatrix([[1, 0], [0, -1]])


class TestNullspace:
    def test_single_relation(self):
        basis = nullspace([[1, 1]], 2)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == ExactScalar.zero()

    def test_full_rank_gives_empty(self):
        assert nullspace([[1, 0], [0, 1]], 2) == []

    def test_pi_coefficients(self):
        # Pi * a - 2 Pi * b = 0  ->  a = 2b
        basis = nullspace([[pi_scalar(1), pi_scalar(-2)]], 2)
        assert len(basis) == 1
        a, b = basis[0]
        assert a == b * ExactScalar.from_rational(2)

    def test_uninvertible_pivot_rejected(self):
        stuck = pi_scalar(1) + ExactScalar.from_rational(1)
        with pytest.raises(UnsupportedDivision):
            nullspace([[stuck]], 1)


def _dense_nullspace(rows, ncols):
    """Reference: dense Gauss-Jordan with the same pivot scan, dividing every
    entry of the pivot row by the pivot."""
    a = [[ExactScalar.coerce(v) for v in r] for r in rows if any(not ExactScalar.coerce(v).is_zero() for v in r)]
    pivots = {}
    r = 0
    for c in range(ncols):
        pick = None
        for i in range(r, len(a)):
            if a[i][c].is_monomial():
                pick = i
                break
        if pick is None:
            if any(not a[i][c].is_zero() for i in range(r, len(a))):
                raise UnsupportedDivision("no invertible pivot")
            continue
        a[r], a[pick] = a[pick], a[r]
        inv_pivot = a[r][c].inverse()
        a[r] = [v * inv_pivot for v in a[r]]
        for i in range(len(a)):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
        if r == len(a):
            break
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [ExactScalar.zero()] * ncols
        vec[fc] = ExactScalar.coerce(1)
        for c, pr in pivots.items():
            if not a[pr][fc].is_zero():
                vec[c] = -a[pr][fc]
        basis.append(vec)
    return basis


SMALL = st.integers(-3, 3).map(ExactScalar.from_rational)
# q * e(k/12) * Pi^p: invertible monomials, cyclotomic or with Pi
MONOMIAL_ENTRIES = st.builds(
    lambda q, k, p: ExactScalar.pi_power(p, q) * root_of_unity(Fraction(k, 12)),
    st.integers(-3, 3),
    st.integers(0, 23),
    st.integers(-1, 1),
)
# 1 + Pi and friends: nonzero but not invertible
NON_MONOMIAL_ENTRIES = st.builds(lambda q: pi_scalar(q) + 1, st.integers(1, 2))


def _systems(entries):
    return st.integers(1, 5).flatmap(
        lambda ncols: st.tuples(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5), st.just(ncols))
    )


def _outcome(fn, rows, ncols):
    try:
        return fn(rows, ncols)
    except UnsupportedDivision:
        return UnsupportedDivision


class TestSparseNullspace:
    """The sparse nullspace returns the dense reference's basis exactly, and
    raises where it raises."""

    @given(_systems(SMALL))
    @settings(max_examples=150, deadline=None)
    def test_rational_systems(self, system):
        rows, ncols = system
        assert nullspace(rows, ncols) == _dense_nullspace(rows, ncols)

    @given(_systems(st.one_of(SMALL, MONOMIAL_ENTRIES)))
    @settings(max_examples=100, deadline=None)
    def test_pi_and_cyclotomic_systems(self, system):
        rows, ncols = system
        want = _outcome(_dense_nullspace, rows, ncols)
        assert _outcome(nullspace, rows, ncols) == want
        sparse_rows = [{c: v for c, v in enumerate(r) if not v.is_zero()} for r in rows]
        assert _outcome(nullspace, sparse_rows, ncols) == want

    @given(_systems(st.one_of(SMALL, MONOMIAL_ENTRIES, NON_MONOMIAL_ENTRIES)))
    @settings(max_examples=100, deadline=None)
    def test_non_monomial_pivots(self, system):
        rows, ncols = system
        assert _outcome(nullspace, rows, ncols) == _outcome(_dense_nullspace, rows, ncols)
