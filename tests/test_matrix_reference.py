"""Sparse matrix products against the dense products they replaced.

The reference below is the dense i/j/k triple loop, summed from
``ExactScalar.zero()``, that ``ExactMatrix.__matmul__`` ran before it walked
only the nonzero entries, with the commutator and the nilpotence test built
on it, and the element-wise difference, negation and scaling rebuilt through
the coercing constructor.  On random sparse matrices with rational,
cyclotomic and Pi entries the library must agree with it (``==``), hold an
``ExactScalar`` in every entry and keep the shape-mismatch message; and
``validate_sl2`` must give the reference's report, byte for byte, on catalog
modules and on one-entry perturbations of them.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc import catalog
from logcalc.matrix import ExactMatrix
from logcalc.mobius import MobiusModule, validate_sl2
from logcalc.scalars import ExactScalar, pi_scalar, root_of_unity

# ---------------------------------------------------------------------------
# reference: dense products, element-wise operations through the constructor


def ref_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ExactScalar.zero()
            for k in range(a.cols):
                x = a.entries[i][k]
                if not x.is_zero():
                    acc = acc + x * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return ExactMatrix(out)


def ref_sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    a._shape_check(b)
    return ExactMatrix([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)])


def ref_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    a._shape_check(b)
    return ExactMatrix([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)])


def ref_neg(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([[-x for x in r] for r in a.entries])


def ref_scale(a: ExactMatrix, s) -> ExactMatrix:
    s = ExactScalar.coerce(s)
    return ExactMatrix([[x * s for x in r] for r in a.entries])


def ref_commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ref_sub(ref_matmul(a, b), ref_matmul(b, a))


def ref_is_nilpotent(a: ExactMatrix) -> bool:
    p = a
    for _ in range(a.rows):
        if p.is_zero():
            return True
        p = ref_matmul(p, a)
    return p.is_zero()


REFERENCE = {
    "__matmul__": ref_matmul,
    "__sub__": ref_sub,
    "__add__": ref_add,
    "__neg__": ref_neg,
    "scale": ref_scale,
    "commutator": ref_commutator,
    "is_nilpotent": ref_is_nilpotent,
}


def ref_validate_sl2(module: MobiusModule):
    """validate_sl2 with every matrix operation it uses run by the reference,
    on a fresh copy of the module (its nilpotent part is cached)."""
    fresh = _fresh(module)
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in REFERENCE.items():
            mp.setattr(ExactMatrix, name, fn)
        return validate_sl2(fresh)


# ---------------------------------------------------------------------------
# strategies: sparse entries from a few units times small rationals, so that
# sums of products often cancel to zero

UNITS = (
    ExactScalar.from_rational(1),
    root_of_unity(Fraction(1, 3)),
    root_of_unity(Fraction(1, 4)) + ExactScalar.from_rational(1),
    pi_scalar(1),
    pi_scalar(Fraction(-1, 2)) * root_of_unity(Fraction(1, 6)),
)
nonzero = st.builds(
    lambda u, q: u * q, st.sampled_from(UNITS), st.sampled_from((1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3)))
)


@st.composite
def matrices(draw, rows: int | None = None, cols: int | None = None, nilpotent: bool = False) -> ExactMatrix:
    rows = draw(st.integers(1, 6)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols
    filled = draw(st.sampled_from((0, 2, 5, 10)))  # tenths of the entries drawn nonzero; 0 is all-zero
    entries = [
        [draw(nonzero) if draw(st.integers(0, 9)) < filled and not (nilpotent and j <= i) else 0 for j in range(cols)]
        for i in range(rows)
    ]
    if nilpotent:  # strictly upper triangular, in a permuted basis
        perm = draw(st.permutations(range(rows)))
        entries = [[entries[perm[i]][perm[j]] for j in range(cols)] for i in range(rows)]
    return ExactMatrix(entries)


@st.composite
def products(draw) -> tuple[ExactMatrix, ExactMatrix]:
    a = draw(matrices())
    return a, draw(matrices(rows=a.cols))


@st.composite
def square_pairs(draw) -> tuple[ExactMatrix, ExactMatrix]:
    n = draw(st.integers(1, 6))
    return draw(matrices(n, n, draw(st.booleans()))), draw(matrices(n, n, draw(st.booleans())))


def _all_scalars(m: ExactMatrix) -> bool:
    return len(m.entries) == m.rows and all(
        len(r) == m.cols and all(type(x) is ExactScalar for x in r) for r in m.entries
    )


# ---------------------------------------------------------------------------
# products


@settings(max_examples=300, deadline=None)
@given(products())
def test_product_matches_the_dense_loop(ab):
    a, b = ab
    got, want = a @ b, ref_matmul(a, b)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got == want and _all_scalars(got)


@settings(max_examples=150, deadline=None)
@given(square_pairs(), st.sampled_from(UNITS))
def test_commutator_nilpotence_and_elementwise_match(ab, s):
    a, b = ab
    assert a.commutator(b) == ref_commutator(a, b)
    assert a.is_nilpotent() == ref_is_nilpotent(a) and b.is_nilpotent() == ref_is_nilpotent(b)
    for got, want in ((a - b, ref_sub(a, b)), (a + b, ref_add(a, b)), (-a, ref_neg(a)), (a.scale(s), ref_scale(a, s))):
        assert got == want and _all_scalars(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_shape_mismatch_message(r1, c1, r2, c2):
    if c1 == r2:
        r2 += 1
    a, b = ExactMatrix.zeros(r1, c1), ExactMatrix.zeros(r2, c2)
    with pytest.raises(ValueError) as got:
        a @ b
    with pytest.raises(ValueError) as want:
        ref_matmul(a, b)
    assert str(got.value) == str(want.value) == f"cannot multiply {r1}x{c1} by {r2}x{c2}"


def test_terms_that_cancel_leave_a_canonical_zero():
    u = root_of_unity(Fraction(1, 3)) * pi_scalar(1)
    got = ExactMatrix([[1, 1], [1, 0]]) @ ExactMatrix([[u, 1], [-u, 0]])
    assert got == ExactMatrix([[0, 1], [u, 1]]) and _all_scalars(got)
    assert got.entries[0][0].num == {} and got.entries[0][0].den == 1


def test_the_oracle_sees_a_product_that_skips_the_last_right_row():
    product = ExactMatrix.__matmul__

    def skips_last_row(a, b):
        return product(a, ExactMatrix(b.entries[:-1] + [[0] * b.cols]))

    a, b = ExactMatrix([[1, 1]]), ExactMatrix([[1], [1]])
    assert skips_last_row(a, b) != ref_matmul(a, b)
    modules = catalog_modules()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactMatrix, "__matmul__", skips_last_row)
        broken = [m for m in modules if validate_sl2(_fresh(m)).to_json() != ref_validate_sl2(m).to_json()]
    assert broken


# ---------------------------------------------------------------------------
# validate_sl2 on catalog modules and their one-entry perturbations

@functools.cache
def catalog_modules() -> list[MobiusModule]:
    """Built on first use, so a broken product fails the tests that use it,
    not the collection of this file."""
    return [
        catalog.trivial_module("T"),
        *(catalog.jordan_module(f"J{s}{b}", Fraction(1, 2), size=s, blocks=b) for s in (1, 2, 3) for b in (1, 2)),
        *(catalog.sl2_irreducible(f"V{d}", d) for d in (1, 2, 3, 4)),
        *(catalog.seeded_semisimple_module(f"S{seed}", seed, max_dim=4) for seed in range(6)),
    ]


def _fresh(m: MobiusModule) -> MobiusModule:
    return MobiusModule(m.name, m.weights, *(m.L(j) for j in (-1, 0, 1)), m.degrees, m.group)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 16), st.booleans(), st.sampled_from((-1, 0, 1)), st.integers(0, 15), st.integers(0, 15), nonzero)
def test_validate_sl2_matches_the_dense_report(pick, perturb, j, row, col, c):
    module = catalog_modules()[pick]
    if perturb:
        mats = {k: module.L(k) for k in (-1, 0, 1)}
        entries = [list(r) for r in mats[j].entries]
        entries[row % module.dim][col % module.dim] += c
        mats[j] = ExactMatrix(entries)
        module = MobiusModule(module.name, module.weights, *mats.values(), module.degrees, module.group)
    assert validate_sl2(_fresh(module)).to_json() == ref_validate_sl2(module).to_json()
