"""sympy as an independent oracle for the field Q(zeta_24) and exact matrices.

A Pi-free scalar sum c_k zeta^k is the polynomial sum c_k x^k modulo the
24th cyclotomic polynomial Phi_24, so products, inverses and the reduced
basis are checked against sympy's polynomial arithmetic over QQ; matrix
inverses and nullspaces against ``sympy.Matrix``.  sympy is imported at
module level: without it this module fails to collect instead of skipping.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc.matrix import ExactMatrix, nullspace
from logcalc.scalars import LATTICE, ExactScalar, zeta_power

X = sympy.Symbol("x")
PHI = sympy.Poly(sympy.cyclotomic_poly(2 * LATTICE, X), X, domain="QQ")

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# sparse coefficient lists c_0..c_23 of sum c_k zeta^k
ZETA_SUMS = st.dictionaries(st.integers(0, 2 * LATTICE - 1), RATIONALS, max_size=6)


def _scalar(coeffs: dict[int, Fraction]) -> ExactScalar:
    out = ExactScalar.zero()
    for k, c in coeffs.items():
        out = out + zeta_power(k) * c
    return out


def _rat(q: Fraction) -> sympy.Rational:
    return sympy.Rational(q.numerator, q.denominator)


def _poly(coeffs: dict[int, Fraction]) -> sympy.Poly:
    return sympy.Poly(sum((_rat(c) * X**k for k, c in coeffs.items()), sympy.Integer(0)), X, domain="QQ")


def _as_poly(s: ExactScalar) -> sympy.Poly:
    """The reduced basis of a Pi-free scalar, read as a polynomial in zeta."""
    assert all(p == 0 for p, _ in s.num)
    return _poly({k: Fraction(c, s.den) for (_, k), c in s.num.items()})


def test_zeta_powers_are_remainders_mod_phi():
    for k in range(4 * LATTICE):
        assert _as_poly(zeta_power(k)) == sympy.Poly(X**k, X, domain="QQ").rem(PHI)


@given(ZETA_SUMS, ZETA_SUMS)
@settings(max_examples=60, deadline=None)
def test_products_match_remainders_mod_phi(a, b):
    assert _as_poly(_scalar(a) * _scalar(b)) == (_poly(a) * _poly(b)).rem(PHI)


@given(ZETA_SUMS)
@settings(max_examples=40, deadline=None)
def test_inverse_matches_sympy_invert(a):
    s = _scalar(a)
    if s.is_zero():
        return
    assert _as_poly(s.inverse()) == sympy.invert(_poly(a), PHI)


SMALL_INTS = st.integers(-4, 4)


@st.composite
def rational_matrices(draw, square: bool):
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 5))
    cell = st.builds(Fraction, SMALL_INTS, st.integers(1, 3))
    return [[draw(cell) for _ in range(cols)] for _ in range(rows)]


@given(rational_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_matrix_inverse_matches_sympy(rows):
    ref = sympy.Matrix([[_rat(q) for q in row] for row in rows])
    if ref.det() == 0:
        return
    inv = ExactMatrix(rows).inverse()
    want = ref.inv()
    assert [[e.rational_value() for e in row] for row in inv.entries] == [
        [Fraction(int(v.p), int(v.q)) for v in want.row(i)] for i in range(want.rows)
    ]


@given(rational_matrices(square=False))
@settings(max_examples=60, deadline=None)
def test_nullspace_spans_sympy_nullspace(rows):
    ref = sympy.Matrix([[_rat(q) for q in row] for row in rows])
    want = ref.nullspace()
    basis = nullspace(rows, ref.cols)
    assert len(basis) == len(want)
    got = [sympy.Matrix([_rat(v.rational_value()) for v in vec]) for vec in basis]
    for vec in got:
        assert ref * vec == sympy.zeros(ref.rows, 1)
    if got:
        assert sympy.Matrix.hstack(*got, *want).rank() == len(want)
