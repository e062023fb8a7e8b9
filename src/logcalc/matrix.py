"""Exact matrices over the scalar ring: dense storage, products over nonzero
entries, and one sparse Gauss-Jordan elimination for inverse and nullspace.

``entries`` is a list of rows.  A product walks only the nonzero entries of
each left row, each against the nonzero ``(col, entry)`` pairs of the matching
right row, listed once per product, so a commutator or a nilpotence test of
the mostly-zero Jordan-block and sl(2) matrices costs in proportion to their
nonzero entries.

The ring Q(zeta)[Pi, Pi^-1] is not a field, so elimination pivots only on
invertible Pi-monomials.  That suffices for every matrix this library
inverts: Pascal matrices have rational entries, and on a Vandermonde matrix
on the nodes 2p*Pi every entry stays a rational times a power of Pi.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .printer import scalar_str
from .scalars import ExactScalar, ScalarLike, UnsupportedDivision


def _coerce_row(row: Iterable[ScalarLike]) -> list[ExactScalar]:
    return [ExactScalar.coerce(v) for v in row]


class ExactMatrix:
    """Rectangular matrix with ExactScalar entries; all arithmetic exact."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[ScalarLike]]):
        self.entries: list[list[ExactScalar]] = [_coerce_row(r) for r in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> ExactMatrix:
        return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> ExactMatrix:
        return ExactMatrix([[0] * cols for _ in range(rows)])

    def transpose(self) -> ExactMatrix:
        return ExactMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    @staticmethod
    def _trusted(entries: list[list[ExactScalar]]) -> ExactMatrix:
        """The matrix on rows of scalars already built, kept as given."""
        m = object.__new__(ExactMatrix)
        m.entries, m.rows, m.cols = entries, len(entries), len(entries[0]) if entries else 0
        return m

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        self._shape_check(other)
        return ExactMatrix._trusted(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        self._shape_check(other)
        return ExactMatrix._trusted(
            [[a if b.is_zero() else a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> ExactMatrix:
        return ExactMatrix._trusted([[a if a.is_zero() else -a for a in r] for r in self.entries])

    def scale(self, s: ScalarLike) -> ExactMatrix:
        s = ExactScalar.coerce(s)
        return ExactMatrix._trusted([[a if a.is_zero() else a * s for a in r] for r in self.entries])

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = [[(j, b) for j, b in enumerate(r) if not b.is_zero()] for r in other.entries]
        zero, out = ExactScalar.zero(), []
        for r in self.entries:
            acc: dict[int, ExactScalar] = {}
            for a, pairs in zip(r, right):
                if pairs and not a.is_zero():
                    for j, b in pairs:
                        s = acc.get(j)
                        acc[j] = a * b if s is None else s + a * b
            row = [zero] * other.cols
            for j, s in acc.items():
                row[j] = s
            out.append(row)
        return ExactMatrix._trusted(out)

    def commutator(self, other: ExactMatrix) -> ExactMatrix:
        return (self @ other) - (other @ self)

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.entries for a in r)

    def nonzero_positions(self) -> list[tuple[int, int]]:
        """(row, col) of every nonzero entry, column by column."""
        return [(i, j) for j in range(self.cols) for i in range(self.rows) if not self.entries[i][j].is_zero()]

    def is_nilpotent(self) -> bool:
        p = self
        for _ in range(self.rows):
            if p.is_zero():
                return True
            p = p @ self
        return p.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        rows = "; ".join("[" + ", ".join(scalar_str(a) for a in r) + "]" for r in self.entries)
        return f"ExactMatrix({rows})"

    def _shape_check(self, other: ExactMatrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    # -- elimination -----------------------------------------------------------

    def inverse(self) -> ExactMatrix:
        """Inverse by the elimination of :func:`nullspace` on [A | I]; ValueError when singular."""
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        one, zero = ExactScalar.coerce(1), ExactScalar.zero()
        rows = [{**{j: v for j, v in enumerate(r) if not v.is_zero()}, n + i: one} for i, r in enumerate(self.entries)]
        rows, pivots = _eliminate(rows, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        # the pivot of column c is row c, reduced to e_c on the left of the bar
        return ExactMatrix._trusted([[rows[c].get(n + j, zero) for j in range(n)] for c in range(n)])


def _eliminate(rows: list[dict[int, ExactScalar]], ncols: int) -> tuple[list[dict[int, ExactScalar]], dict[int, int]]:
    """Gauss-Jordan, in place, on sparse rows (column -> nonzero scalar),
    pivoting in columns 0..ncols-1 on the first remaining row whose entry is an
    invertible Pi-monomial (one inverse per pivot); later columns ride along.
    Returns the rows and the map pivot column -> row, the pivot rows first in
    column order.  Raises :class:`UnsupportedDivision` if a column has nonzero
    entries but no invertible pivot candidate (cannot happen for rational systems)."""
    pivots: dict[int, int] = {}  # column -> row
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        # find a row at index >= r with an invertible entry in column c
        pick = None
        for i in range(r, len(rows)):
            v = rows[i].get(c)
            if v is not None and v.is_monomial():
                pick = i
                break
        if pick is None:
            if any(c in rows[i] for i in range(r, len(rows))):
                raise UnsupportedDivision(
                    "no invertible pivot available in the remaining system; "
                    "coefficients left the monomial-invertible fragment"
                )
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = rows[r][c].inverse()
        prow = {col: v * inv for col, v in rows[r].items()}
        rows[r] = prow
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            neg_f = -f
            for col, vr in prow.items():
                s = neg_f * vr
                cur = row.get(col)
                if cur is not None:
                    s = cur + s
                    if s.is_zero():
                        del row[col]
                        continue
                row[col] = s
        pivots[c] = r
        r += 1
    return rows, pivots


def nullspace(
    rows: Sequence[Sequence[ScalarLike] | Mapping[int, ScalarLike]], ncols: int
) -> list[list[ExactScalar]]:
    """Exact nullspace basis of a linear system given by coefficient rows.

    A row is a dense sequence of ``ncols`` scalars or a sparse mapping from
    column to scalar.  The rows are reduced by :func:`_eliminate`; a system
    with no rows has the unit vectors as its basis.
    """
    a: list[dict[int, ExactScalar]] = []
    for r in rows:
        row = {}
        for c, v in (r.items() if isinstance(r, Mapping) else enumerate(r)):
            v = ExactScalar.coerce(v)
            if not v.is_zero():
                row[c] = v
        if row:
            a.append(row)
    a, pivots = _eliminate(a, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [ExactScalar.zero()] * ncols
        vec[fc] = ExactScalar.coerce(1)
        for c, pr in pivots.items():
            v = a[pr].get(fc)
            if v is not None:
                vec[c] = -v
        basis.append(vec)
    return basis
