"""Logarithmic intertwining operators as finite mode tables.

An :class:`IntertwinerTable` of type (W3; W1 W2) stores finitely many modes

    mode(i, j, n, k)  in  W3,      meaning
    Y(e_i, x) e_j = sum_n sum_k mode(i, j, n, k) x^(-n-1) lg(x)^k,

and every defining axiom becomes a finite conjunction of exact coefficient
equations.  Axiom identifiers:

* ``lminus1``  Y(L(-1)w1, x) = d/dx Y(w1, x),
* ``sl2``      [L(j), Y(w1,x)] = sum_i C(j+1,i) x^i Y(L(j-i)w1, x),
* ``euler``    the combined L(0)/derivative identity
               L(0) Y(w1,x) w2 = Y(w1,x) L(0) w2 + x d/dx Y(w1,x) w2
               + Y(L(0)w1, x) w2,
* ``grading``  modes of degree-homogeneous pairs land in the sum degree,
* ``weights``  modes are generalized-weight-pure of weight n1 + n2 - n - 1.

The brackets run over j = -1, 0, 1.  Their inverted form is no separate axiom:
its defects are -sl2_m1, -sl2_0 + x sl2_m1 and -sl2_1 + 2x sl2_0 - x^2 sl2_m1, a
unitriangular change of the three.  Each linear identity is one table of
terms (:data:`_IDENTITIES`); checker and solver evaluate the same per-mode rows
(:func:`_mode_defect`, and :func:`_jacobi_mode_rows` for the windowed Jacobi
identity): :func:`axiom_check` and :func:`jacobi_check_window` sum them over a
table's modes, :func:`solve_fusion_space` solves them for the modes.

``euler`` is exactly the identity the log-weight lemmas run on.  On a
finite-dimensional W1 the full ``lminus1`` axiom forces Y(e_i, x)e_j into
ker (d/dx)^dim = polynomials (L(-1) is nilpotent), so genuinely logarithmic
finite tables can satisfy ``euler`` but never ``lminus1`` and ``sl2(j=0)``
separately; checkers that the literature derives from those two axioms
accept ``euler`` as the precondition.

Part II's conjugation formulas follow from axioms checked here, so no
separate checker runs them: e^(yL(-1)) Y(w1,x) e^(-yL(-1)) = Y(w1, x+y) from
``lminus1`` and ``sl2_m1``; y^(L(0)) Y(w1,x) y^(-L(0)) = Y(y^(L(0))w1, xy) and
e^(aL(0)) Y(w1,x) e^(-aL(0)) = Y(e^(aL(0))w1, e^a x) from ``euler``; and
e^(yL(1)) Y(w1,x) e^(-yL(1)) = Y(e^(y(1-yx)L(1)) (1-yx)^(-2L(0)) w1, x(1-yx)^(-1))
from ``lminus1`` and ``sl2_1``.  On 6 honest sl(2) solves, the 3 Jordan
fixtures and 60 tables with one planted mode, the first, second and last
failed exactly when their axioms did; e^(aL(0)) at one a misses a mode whose
weight is off by a lambda with e^(a lambda) = 1.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from fractions import Fraction
from typing import Callable, Container, Iterable, Mapping, Sequence

from .matrix import ExactMatrix, nullspace
from .mobius import (
    MobiusModule,
    contragredient,
    e_aL0,
    e_aL0_matrix,
    exp_nilpotent_terms,
    pairing_value,
)
from .reports import Report
from .scalars import LATTICE, ExactScalar, Exponent, pi_scalar
from .series import SCALAR, CoeffVector, LogSeries, Monomial, VarId
from .substitution import _scaled_image, pi_monomial_coefficient

ModeKey = tuple[int, int, Exponent, int]


class AxiomError(ValueError):
    """An axiom or constraint name that names none, or a table that fails an
    axiom that an operation needs."""


class WorkBudgetError(ValueError):
    """A solve whose Jacobi rows would visit more window points than :data:`MAX_JACOBI_VISITS`."""


def _rat_binom(n: int, m: int) -> int:
    """C(n, m) for integer n (possibly negative) and m >= 0."""
    return (-1) ** m * math.comb(m - n - 1, m) if n < 0 else math.comb(n, m)


class IntertwinerTable:
    """Finite mode table of type (W3; W1 W2)."""

    def __init__(
        self,
        w1: MobiusModule,
        w2: MobiusModule,
        w3: MobiusModule,
        modes: Mapping[ModeKey, CoeffVector] | None = None,
    ):
        self.w1 = w1
        self.w2 = w2
        self.w3 = w3
        self.modes: dict[ModeKey, CoeffVector] = {}
        if modes:
            for (i, j, n, k), vec in modes.items():
                if vec.is_zero():
                    continue
                if not (0 <= i < w1.dim and 0 <= j < w2.dim and k >= 0):
                    raise ValueError(f"bad mode key {(i, j, n, k)}")
                if vec.space != w3.coeff_space:
                    raise ValueError("mode value lies in the wrong space")
                self.modes[(i, j, Exponent.coerce(n), k)] = vec

    @staticmethod
    def _trusted(w1: MobiusModule, w2: MobiusModule, w3: MobiusModule,
                 modes: dict[ModeKey, CoeffVector]) -> IntertwinerTable:
        """A table from in-range keys and nonzero W3 vectors (kept, not copied)."""
        t = object.__new__(IntertwinerTable)
        t.w1, t.w2, t.w3, t.modes = w1, w2, w3, modes
        return t

    # -- bookkeeping -------------------------------------------------------

    def type_signature(self) -> str:
        return f"({self.w3.name}; {self.w1.name} {self.w2.name})"

    def is_zero(self) -> bool:
        return not self.modes

    def max_log_power(self) -> int:
        return max((k for (_, _, _, k) in self.modes), default=-1)

    def exponents(self) -> list[Exponent]:
        return sorted({n for (_, _, n, _) in self.modes}, key=lambda e: e.sort_key())

    def mode(self, i: int, j: int, n: Exponent | Fraction | int, k: int) -> CoeffVector:
        return self.modes.get((i, j, Exponent.coerce(n), k), CoeffVector.zero(self.w3.coeff_space))

    def canonical_items(self) -> list[tuple[ModeKey, CoeffVector]]:
        return sorted(self.modes.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].sort_key(), kv[0][3]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntertwinerTable):
            return NotImplemented
        return self.modes == other.modes

    def __add__(self, other: IntertwinerTable) -> IntertwinerTable:
        if (other.w1.dim, other.w2.dim, other.w3.coeff_space) != (self.w1.dim, self.w2.dim, self.w3.coeff_space):
            raise ValueError("adding tables of different types")
        out = dict(self.modes)
        for key, vec in other.modes.items():
            cur = out.get(key)
            s = vec if cur is None else cur + vec
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return IntertwinerTable._trusted(self.w1, self.w2, self.w3, out)

    def scale(self, s) -> IntertwinerTable:
        s = ExactScalar.coerce(s)
        # the scalar ring has no zero divisors: only s = 0 makes a mode zero
        modes = {} if s.is_zero() else {k: v.scale(s) for k, v in self.modes.items()}
        return IntertwinerTable._trusted(self.w1, self.w2, self.w3, modes)

    # -- series views ---------------------------------------------------------

    def series(self, i: int, j: int) -> LogSeries:
        return self.series_args(self.w1.basis_vector(i), self.w2.basis_vector(j))

    def series_args(self, v1: CoeffVector, v2: CoeffVector) -> LogSeries:
        """Bilinear extension Y(v1, x) v2."""
        terms = {Monomial.var("x", -n - 1, k): vec for (n, k), vec in self.mode_map(v1, v2).items()}
        return LogSeries._trusted(self.w3.coeff_space, terms, {})

    def mode_map(self, v1: CoeffVector, v2: CoeffVector) -> dict[tuple[Exponent, int], CoeffVector]:
        out: dict[tuple[Exponent, int], CoeffVector] = {}
        for (i, j, n, k), vec in self.modes.items():
            c1 = v1.components.get(i)
            c2 = v2.components.get(j)
            if c1 is None or c2 is None:
                continue
            w = vec.scale(c1 * c2)
            cur = out.get((n, k))
            s = w if cur is None else cur + w
            if s.is_zero():
                out.pop((n, k), None)
            else:
                out[(n, k)] = s
        return out


class VertexTable:
    """Mock module-action tables: finitely many integral modes per slot.

    ``modes[(slot, v, n)]`` is the matrix of the n-th mode of the algebra
    vector v acting on the module in that slot (slots 1, 2, 3).
    """

    def __init__(
        self,
        w1: MobiusModule,
        w2: MobiusModule,
        w3: MobiusModule,
        vector_weights: Sequence[Exponent | Fraction | int],
        modes: Mapping[tuple[int, int, int], ExactMatrix],
    ):
        self.modules = {1: w1, 2: w2, 3: w3}
        self.vector_weights = tuple(Exponent.coerce(w) for w in vector_weights)
        self.modes: dict[tuple[int, int, int], ExactMatrix] = {}
        for (slot, v, n), m in modes.items():
            if slot not in (1, 2, 3) or not 0 <= v < len(self.vector_weights):
                raise ValueError(f"bad vertex mode key {(slot, v, n)}")
            dim = self.modules[slot].dim
            if (m.rows, m.cols) != (dim, dim):
                raise ValueError(f"mode {(slot, v, n)} is {m.rows}x{m.cols}, its module has dimension {dim}")
            if not m.is_zero():
                self.modes[(slot, int(v), int(n))] = m

    def support(self, slot: int, v: int) -> list[int]:
        return sorted(n for (s, vv, n) in self.modes if s == slot and vv == v)

    def matrix(self, slot: int, v: int, n: int) -> ExactMatrix:
        dim = self.modules[slot].dim
        return self.modes.get((slot, v, n), ExactMatrix.zeros(dim, dim))

    def weight_report(self) -> Report:
        rep = Report("vertex-table-weights")
        for (slot, v, n), m in self.modes.items():
            mod = self.modules[slot]
            shift = self.vector_weights[v] - n - 1
            bad = [(row, col) for row, col in m.nonzero_positions() if mod.weights[row] != mod.weights[col] + shift]
            witness = f"mode (slot={slot}, v={v}, n={n}) entry [{bad[0][0]}][{bad[0][1]}]" if bad else None
            rep.add(f"weight-shift(slot={slot},v={v},n={n})", not bad, witness)
        return rep


def identity_vertex_table(w1: MobiusModule, w2: MobiusModule, w3: MobiusModule) -> VertexTable:
    """The vacuum-only table: a single algebra vector acting as the identity
    in its (-1)-mode on every slot."""
    modes = {
        (slot, 0, -1): ExactMatrix.identity(mod.dim)
        for slot, mod in {1: w1, 2: w2, 3: w3}.items()
    }
    return VertexTable(w1, w2, w3, [Exponent(0)], modes)


# ---------------------------------------------------------------------------
# axiom checking

# constraint -> (axiom_check kind, check id prefix, terms).  The defect of a
# constraint at the pair (i, j) is the sum of its terms (slot, j', s, c): for
# slot 1, 2 or 3, c x^s times Y(e_i, x) e_j with L(j') acting on w1, on w2 or
# on the output in w3; for slot 0, c times -x^s d/dx Y(e_i, x) e_j.
_IDENTITIES: dict[str, tuple[str, str, tuple[tuple[int, int, int, int], ...]]] = {
    "lminus1": ("lminus1", "L(-1)-derivative(", ((1, -1, 0, 1), (0, 0, 0, 1))),
    "sl2_m1": ("sl2", "sl2-bracket(j=-1;", ((3, -1, 0, 1), (2, -1, 0, -1), (1, -1, 0, -1))),
    "sl2_0": ("sl2", "sl2-bracket(j=0;", ((3, 0, 0, 1), (2, 0, 0, -1), (1, 0, 0, -1), (1, -1, 1, -1))),
    "sl2_1": ("sl2", "sl2-bracket(j=1;", ((3, 1, 0, 1), (2, 1, 0, -1), (1, 1, 0, -1), (1, 0, 1, -2), (1, -1, 2, -1))),
    "euler": ("euler", "euler-identity(", ((3, 0, 0, 1), (2, 0, 0, -1), (0, 0, 1, 1), (1, 0, 0, -1))),
}
# axiom_check kind -> (constraint, check id prefix) of each row family
_AXIOM_FAMILIES = {
    kind: [(name, prefix) for name, (k, prefix, _) in _IDENTITIES.items() if k == kind]
    for kind, _, _ in _IDENTITIES.values()
}
# the names that axiom_check and solve_fusion_space accept
AXIOM_KINDS = (*_AXIOM_FAMILIES, "grading", "weights")
CONSTRAINTS = (*_IDENTITIES, "jacobi", "grading", "weights")
# constraint -> its terms with each c as a scalar, which the rows multiply by without converting it
_TERMS = {n: [(a, j, s, ExactScalar.from_rational(c)) for a, j, s, c in t] for n, (_, _, t) in _IDENTITIES.items()}


def axiom_check(t: IntertwinerTable, which: str = "all") -> Report:
    """Check the selected axiom family on every basis pair, exactly.  ``euler`` implies ``weights`` on a
    finite table: at a wrong weight lambda != 0 of W3 it reads (lambda + N') m_k = (k + 1) m_(k+1), N'
    nilpotent, so m_k = 0 from the top log power down; the ``weights`` row names the wrong weight."""
    rep = Report(f"intertwiner-axioms{t.type_signature()}:{which}")
    kinds = AXIOM_KINDS if which == "all" else (which,)
    zero = LogSeries.zero(t.w3.coeff_space)
    for kind in kinds:
        if kind in _AXIOM_FAMILIES:
            for name, prefix in _AXIOM_FAMILIES[kind]:
                defects = _table_defects(t, name)
                for i in range(t.w1.dim):
                    for j in range(t.w2.dim):
                        d = defects.get((i, j), zero)
                        rep.add(f"{prefix}{i},{j})", d.is_zero(), _witness(d))
        elif kind == "grading":
            group = t.w3.group
            if not (t.w1.group == group == t.w2.group):
                rep.add("grading-compatibility", False, "modules are graded over different groups")
                continue
            witness = None
            for (i, j, n, k), vec in t.canonical_items():
                want = group.add(t.w1.degrees[i], t.w2.degrees[j])
                bad = [b for b in sorted(vec.components) if t.w3.degrees[b] != want]
                if bad:
                    witness = f"mode({i},{j},{n!r},{k}) has a component of degree {t.w3.degrees[bad[0]]}"
                    break
            rep.add("grading-compatibility", witness is None, witness)
        elif kind == "weights":
            witness = None
            for (i, j, n, k), vec in t.canonical_items():
                want = t.w1.weights[i] + t.w2.weights[j] - n - 1
                bad = [b for b in sorted(vec.components) if t.w3.weights[b] != want]
                if bad:
                    witness = f"mode({i},{j},{n!r},{k}) has weight {t.w3.weights[bad[0]]!r}, want {want!r}"
                    break
            rep.add("generalized-weight-purity", witness is None, witness)
        else:
            raise AxiomError(f"unknown axiom {kind!r}; accepted: {', '.join(('all', *AXIOM_KINDS))}")
    return rep


def _table_defects(t: IntertwinerTable, name: str) -> dict[tuple[int, int], LogSeries]:
    """The nonzero ``name`` defects of the whole table, keyed by basis pair (i, j): the
    :func:`_contract` of the :func:`_mode_defect` rows, a monomial built per nonzero point."""
    grouped: dict[tuple[int, int], dict[Monomial, CoeffVector]] = {}
    rows = _contract(t, lambda *mode: _mode_defect(t.w1, t.w2, t.w3, name, *mode).items())
    for (i, j, a, b, k), vec in rows.items():
        grouped.setdefault((i, j), {})[Monomial.var("x", Exponent._lattice(a, b), k)] = vec
    return {ij: LogSeries(t.w3.coeff_space, terms) for ij, terms in grouped.items()}


def _contract(t: IntertwinerTable, unit_rows: Callable) -> dict[tuple, CoeffVector]:
    """Each mode's ``unit_rows(i0, j0, n, k, b)``, the (point + (component,), value) pairs of the
    table whose only mode is (i0, j0, n, k) -> e_b, weighted by the mode's components and summed,
    grouped by point."""
    sums: dict[tuple, ExactScalar] = {}
    for (i0, j0, n, k), vec in t.modes.items():
        for b, c in vec.components.items():
            for key, r in unit_rows(i0, j0, n, k, b):
                cur = sums.get(key)
                sums[key] = c * r if cur is None else cur + c * r
    grouped: dict[tuple, dict[int, ExactScalar]] = {}
    for key, s in sums.items():
        if not s.is_zero():
            grouped.setdefault(key[:-1], {})[key[-1]] = s
    return {point: CoeffVector._trusted(t.w3.coeff_space, comps) for point, comps in grouped.items()}


def _slot_targets(slot: int, matrix: ExactMatrix, i0: int, j0: int, b: int) -> list[tuple[int, int, int, ExactScalar]]:
    """(i, j, component in w3, entry) of each pair that ``matrix`` on slot 1 (w1), 2 (w2) or 3
    (the output in w3) reaches from the table whose only mode is (i0, j0) -> e_b: row i0 on
    slot 1, row j0 on slot 2, column b on slot 3."""
    m = matrix.entries
    if slot == 3:
        return [(i0, j0, bb, row[b]) for bb, row in enumerate(m) if not row[b].is_zero()]
    if slot == 2:
        return [(i0, j, b, e) for j, e in enumerate(m[j0]) if not e.is_zero()]
    return [(i, j0, b, e) for i, e in enumerate(m[i0]) if not e.is_zero()]


def _witness(d: LogSeries) -> str | None:
    if d.is_zero():
        return None
    mono, vec = d.sorted_items()[0]
    return f"first nonzero coefficient at {mono!r}: {vec!r}"[:200]


# ---------------------------------------------------------------------------
# windowed Jacobi identity
#
#   x0^-1 d((x1-x2)/x0) Y3(v,x1) Y(w1,x2) w2 - x0^-1 d((x2-x1)/(-x0)) Y(w1,x2) Y2(v,x1) w2
#       = x2^-1 d((x1-x0)/x2) Y(Y1(v,x0) w1, x2) w2,
#
# checked at the points x0^a x1^b x2^c lg(x2)^k of a finite window: the ranges
# of a, of b and of floor(c).
_Window = tuple[range, range, range]

# A solve's Jacobi rows visit each (x0, x1) point of each algebra vector's window once per unknown;
# more visits than this are refused before any row is built.  At about 4-9 us a visit (Python 3.11,
# 2 shared cores), an accepted solve builds its Jacobi rows in 1-2 s at most.
MAX_JACOBI_VISITS = 200_000


def _jacobi_window(exps: Iterable[Exponent], vt: VertexTable, v: int) -> _Window:
    """Window covering the full interaction support of the three terms for a
    table with exponents ``exps``, up to binomial index m bounded by the
    supports' spread plus 2."""
    ints = [n.a // LATTICE if n.a % LATTICE == 0 else 0 for n in exps] or [0]
    p_all = (vt.support(1, v) or [0]) + (vt.support(2, v) or [0]) + (vt.support(3, v) or [0])
    spread = max(p_all) - min(p_all) + max(ints) - min(ints) + 4
    return (
        range(-spread - max(p_all) - 2, spread + 3),
        range(-spread - 2, spread + max(p_all) + 3),
        range(-spread, spread + 1),
    )


# the one module-level cache (tests/test_hygiene.py), as window points recur: uncached, check_jacobi() took 19.9 ms,
# not 11.1 ms, and the epsilon instance's `lminus1,jacobi` solve 38.7 ms, not 20.9 ms (Python 3.11, 2 shared cores)
@lru_cache(maxsize=1 << 16)
def _delta_terms(a: int, b: int) -> tuple[tuple[int, int] | None, ...]:
    """The x2 exponent and the coefficient of the x0^a x1^b term of each of
    x0^-1 d((x1-x2)/x0), x0^-1 d((x2-x1)/(-x0)) and x2^-1 d((x1-x0)/x2), each
    binomially expanded in nonnegative powers of its second variable; None
    where that coefficient is zero."""
    n = -a - 1
    terms = (
        (n - b, _rat_binom(n, n - b) * (-1) ** (n - b)) if n >= b else None,
        (n - b, _rat_binom(n, b) * (-1) ** ((n + b) % 2)) if b >= 0 else None,
        (-a - b - 1, _rat_binom(a + b, a) * (-1) ** a) if a >= 0 else None,
    )
    return tuple(term if term is not None and term[1] else None for term in terms)


def _jacobi_mode_rows(
    vt: VertexTable,
    v: int,
    window: _Window,
    i0: int,
    j0: int,
    n: Exponent,
    k: int,
    b: int,
    firsts: Container[int],
    seconds: Container[int],
) -> dict[tuple[int, int, int, int, int, int, int, int], ExactScalar]:
    """Nonzero coefficients of product - reversed product - iterate for the
    table whose only mode is (i0, j0, n, k) -> e_b, keyed by (i, j, a, b',
    L Re c, L Im c, k, component in w3) at the window point x0^a x1^b' x2^c
    lg(x2)^k, for the pairs (i, j) with i in ``firsts`` and j in ``seconds``.

    The product, the reversed product and the iterate reach the pairs of
    :func:`_slot_targets` for the vertex modes of slot 3, 2 and 1.  A vertex
    mode p at fixed (a, b') reaches one term of one delta function, so one x2
    exponent c = s - n with s an integer; c is kept when floor(c) lies in the
    window.
    """
    x0, x1, x2 = window
    offset = -n.a // LATTICE
    out: dict[tuple[int, int, int, int, int, int, int, int], ExactScalar] = {}
    for slot in (3, 2, 1):
        for p in vt.support(slot, v):
            m = vt.matrix(slot, v, p)
            targets = [tg for tg in _slot_targets(slot, m, i0, j0, b) if tg[0] in firsts and tg[1] in seconds]
            if not targets:
                continue
            for a in x0:
                for bx in x1:
                    # Y3(v, x1) and Y2(v, x1) shift the delta's x1 power by p+1, Y1(v, x0) its x0 power
                    term = (_delta_terms(a + p + 1, bx) if slot == 1 else _delta_terms(a, bx + p + 1))[3 - slot]
                    if term is None or term[0] - 1 + offset not in x2:
                        continue
                    c_re = (term[0] - 1) * LATTICE - n.a
                    coeff = term[1] if slot == 3 else -term[1]
                    for i, j, bb, entry in targets:
                        key = (i, j, a, bx, c_re, -n.b, k, bb)
                        cur = out.get(key)
                        out[key] = entry * coeff if cur is None else cur + entry * coeff
    return {key: c for key, c in out.items() if not c.is_zero()}


def _jacobi_defect(
    t: IntertwinerTable, vt: VertexTable, v: int, v1: CoeffVector, v2: CoeffVector, window: _Window
) -> dict[tuple[int, int, int, int, int], CoeffVector]:
    """Nonzero coefficients of product - reversed product - iterate at the window points
    x0^a x1^b x2^c lg(x2)^k, keyed by (a, b, L Re c, L Im c, k): the :func:`_contract`
    of the :func:`_jacobi_mode_rows`, each weighted by v1[i] v2[j]."""
    f1, f2 = v1.components, v2.components
    return _contract(t, lambda i0, j0, n, k, b: (
        ((*point, bb), r * f1[i] * f2[j])
        for (i, j, *point, bb), r in _jacobi_mode_rows(vt, v, window, i0, j0, n, k, b, f1, f2).items()))


def jacobi_check_window(t: IntertwinerTable, vt: VertexTable, v: int, v1: CoeffVector, v2: CoeffVector) -> Report:
    """Check the Jacobi identity coefficientwise over a finite window.

    Both delta functions are expanded by the binomial expansion convention in
    the direction dictated by each term; for a fixed output monomial every
    sum is finite, so each windowed coefficient equation is exact.  Only the
    points some term reaches are expanded: Y(w1, x2) contributes x2^(-n-1),
    so every x2 exponent lies in the class of -n mod Z for a table exponent
    n.  The report counts every window point (x0, x1, x2 offset and log power
    per such class) as checked.
    """
    rep = Report(f"jacobi{t.type_signature()}")
    window = _jacobi_window(t.exponents(), vt, v)
    defect = _jacobi_defect(t, vt, v, v1, v2, window)
    witness = None
    if defect:
        # log powers 0 .. top + 1 per exponent class
        classes = len({(n.a % LATTICE, n.b) for n in t.exponents()}) or 1
        checked = classes * (t.max_log_power() + 2) * math.prod(len(r) for r in window)
        a, b, c_re, c_im, k = point = min(defect)
        first = f"x0^{a} x1^{b} x2^({Exponent._lattice(c_re, c_im)!r}) lg^{k}: {defect[point]!r}"
        witness = f"{len(defect)}/{checked} coefficients differ; first: {first}"
    rep.add(f"jacobi-window(v={v})", not defect, witness)
    return rep


def delta_relation_check() -> Report:
    """The three-term formal delta relation, checked at each x0^a x1^b x2^c with |a|, |b|, |c| <= 5:
    x0^-1 d((x1-x2)/x0) - x0^-1 d((x2-x1)/(-x0)) = x2^-1 d((x1-x0)/x2)."""
    rep = Report("three-term-delta-relation")
    witness = None
    span = range(-5, 6)
    for a in span:
        for b in span:
            for c in span:
                c1, c2, c3 = (0 if term is None or term[0] != c else term[1] for term in _delta_terms(a, b))
                if c1 - c2 != c3:
                    witness = witness or f"at x0^{a} x1^{b} x2^{c}: {c1} - {c2} != {c3}"
    rep.add("delta-three-term", witness is None, witness)
    return rep


# ---------------------------------------------------------------------------
# weight formulas (the log-weight lemma family)
#
# By ``euler``, L(0) - (a+b-n-1) on W3 acts on the modes mode(i, j, n, k) of
# weights a = wt e_i and b = wt e_j as the sum of three commuting operators:
# L(0) - a on the first argument, L(0) - b on the second, and the log shift
# mode(n, k) -> (k+1) mode(n, k+1).  Every formula below is a coefficient of
# e^(yN) or of its inverse, read off the orbits of :func:`_orbit`: E1 of e_i,
# E2 of e_j, and one on the W3 side.

def _l0_minus(mod: MobiusModule, h: Exponent) -> ExactMatrix:
    return mod.L(0) - ExactMatrix.identity(mod.dim).scale(h.as_scalar())


def _orbit(mod: MobiusModule, v, h: Exponent, count: int) -> list:
    """The y-coefficients [v, N v, N^2 v/2!, ...] of e^(yN) v for N = L(0) - h,
    cut at ``count`` terms or before the first zero one."""
    return exp_nilpotent_terms(mod, _l0_minus(mod, h), v, count)


def _arg_orbits(t: IntertwinerTable, i: int, j: int, count: int) -> list[tuple[int, CoeffVector, CoeffVector]]:
    """(s, E1[ii], E2[jj]) with s = ii + jj < ``count``, in (ii, jj) order:
    E1 and E2 are the orbits of e_i and e_j at their own weights."""
    e1 = _orbit(t.w1, t.w1.basis_vector(i), t.w1.weights[i], count)
    e2 = _orbit(t.w2, t.w2.basis_vector(j), t.w2.weights[j], count)
    return [(ii + jj, v1, v2) for ii, v1 in enumerate(e1) for jj, v2 in enumerate(e2[: count - ii])]


def euler_precondition(t: IntertwinerTable) -> bool:
    """Lemma hypothesis: the Euler identity holds.  Its defect is the j=0
    bracket defect plus x times the L(-1)-derivative defect, so a table that
    satisfies that axiom pair satisfies it too (and genuine logs need it alone)."""
    return not _table_defects(t, "euler")


def weight_formulas_check(t: IntertwinerTable, which: str = "all") -> Report:
    rep = Report(f"weight-formulas{t.type_signature()}:{which}")
    if not euler_precondition(t):
        rep.add("euler-precondition", False, "table satisfies neither the axiom pair nor the Euler identity")
        return rep
    rep.add("euler-precondition", True)
    kinds = ("ty", "t00", "rt", "bound", "pairing_poly") if which == "all" else (which,)
    k1, k2, k3 = (w.nilpotency_index() for w in (t.w1, t.w2, t.w3))
    count = k1 + k2 + k3 + 1  # rows t = 0..k1+k2+k3
    keys = dict.fromkeys([*t.modes, *((i, j, n, 0) for (i, j, n, _k) in t.modes)])  # ordered, unlike a set
    for kind in kinds:
        if kind == "ty":
            _check_ty(rep, t, count)
        elif kind == "t00":
            _check_t00(rep, t, keys, count)
        elif kind == "rt":
            _check_rt(rep, t, keys, count)
        elif kind == "bound":
            _check_bounds(rep, t, k1, k2, k3)
        elif kind == "pairing_poly":
            _check_pairing_poly(rep, t)
        else:
            raise ValueError(f"unknown weight formula {kind!r}")
    return rep


def _euler_sides(t: IntertwinerTable, key: ModeKey, count: int) -> tuple[list[CoeffVector], list[CoeffVector]]:
    """The y^0..y^(count-1) coefficients of both sides of
    e^(yN3) mode(n,k) = sum_ll C(k+ll, ll) y^ll mode(n, k+ll)(e^(yN1) e_i, e^(yN2) e_j),
    with N3 = L(0) - (a+b-n-1), N1 = L(0) - a and N2 = L(0) - b."""
    i, j, n, k = key
    zero = CoeffVector.zero(t.w3.coeff_space)
    lhs = _orbit(t.w3, t.mode(i, j, n, k), t.w1.weights[i] + t.w2.weights[j] - n - 1, count)
    rhs = [zero] * count
    for s, v1, v2 in _arg_orbits(t, i, j, count):
        for (nn, kk), mode in t.mode_map(v1, v2).items():
            if nn == n and k <= kk < count - s + k:
                rhs[s + kk - k] = rhs[s + kk - k] + mode.scale(math.comb(kk, k))
    return lhs + [zero] * (count - len(lhs)), rhs


def _check_t00(rep: Report, t: IntertwinerTable, keys: Sequence[ModeKey], count: int) -> None:
    """A ``t00`` row compares t! times each side of :func:`_euler_sides` at one t < ``count``."""
    for (i, j, n, k) in keys:
        lhs, rhs = _euler_sides(t, (i, j, n, k), count)
        for tt in range(count):
            f, g = lhs[tt].scale(math.factorial(tt)), rhs[tt].scale(math.factorial(tt))
            rep.add(f"mode-l0-power(t={tt};{i},{j},{n!r},{k})", f == g, None if f == g else f"{f!r} != {g!r}")
            if f != g:
                return


def _check_ty(rep: Report, t: IntertwinerTable, count: int) -> None:
    """(L(0)-c)^t Y(w1,x)w2 as a multinomial in the shifted Euler operator
    D = x d/dx + a + b - c: t! times the y^t coefficients of e^(y(L(0)-c)) Y
    and of e^(yD) Y(e^(yN1) e_i, x) e^(yN2) e_j, at c = 0.  Both sides at c are
    e^(y(c'-c)) times those at c', and the cut at ``count`` is triangular in y,
    so the first failing (i, j, t) is the same at every c."""
    c = Exponent(0)
    zero = LogSeries.zero(t.w3.coeff_space)
    for i in range(t.w1.dim):
        for j in range(t.w2.dim):
            shift = (t.w1.weights[i] + t.w2.weights[j]).as_scalar()
            lhs = _orbit(t.w3, t.series(i, j), c, count)
            lhs += [zero] * (count - len(lhs))
            rhs = [zero] * count
            for s, v1, v2 in _arg_orbits(t, i, j, count):
                f = t.series_args(v1, v2)
                for ll in range(count - s):
                    if ll:
                        f = (f.d_dx("x", 1) + f.scale(shift)).scale(Fraction(1, ll))
                    rhs[s + ll] = rhs[s + ll] + f
            for tt in range(count):
                diff = (lhs[tt] - rhs[tt]).scale(math.factorial(tt))
                rep.add(f"l0-power-expansion(t={tt},c={c!r};{i},{j})", diff.is_zero(), _witness(diff))
                if not diff.is_zero():
                    return


def _check_rt(rep: Report, t: IntertwinerTable, keys: Sequence[ModeKey], count: int) -> None:
    """The inverse of t00: C(k+t, t) mode(n, k+t) is the y^t coefficient of
    e^(yN3) mode(n,k)(e^(-yN1) e_i, e^(-yN2) e_j)."""
    for (i, j, n, k) in keys:
        rhs = [CoeffVector.zero(t.w3.coeff_space)] * count
        for s, v1, v2 in _arg_orbits(t, i, j, count):
            mode = t.mode_map(v1, v2).get((n, k))
            if mode is not None:
                for ll, term in enumerate(_orbit(t.w3, mode, t.w1.weights[i] + t.w2.weights[j] - n - 1, count - s)):
                    rhs[s + ll] = rhs[s + ll] + term.scale((-1) ** s)
        for tt in range(count):
            lhs = t.mode(i, j, n, k + tt).scale(math.comb(k + tt, tt))
            ok = lhs == rhs[tt]
            rep.add(f"mode-shift-combination(t={tt};{i},{j},{n!r},{k})", ok, None if ok else f"{lhs!r} != {rhs[tt]!r}")
            if not ok:
                return


def _check_bounds(rep: Report, t: IntertwinerTable, k1: int, k2: int, k3: int) -> None:
    global_bound = k1 + k2 + k3 - 3
    bad = [key for key in t.modes if key[3] > max(global_bound, 0)]
    rep.add(
        "global-log-power-bound",
        not bad,
        None if not bad else f"modes above lg-power {global_bound}: {bad[:3]}",
    )
    # per-pair vanishing bound via nilpotence search (existence, not minimality)
    witness = None
    for i in range(t.w1.dim):
        for j in range(t.w2.dim):
            e1 = _orbit(t.w1, t.w1.basis_vector(i), t.w1.weights[i], k1)
            e2 = _orbit(t.w2, t.w2.basis_vector(j), t.w2.weights[j], k2)
            for n in dict.fromkeys(key[2] for key in t.modes if key[0] == i and key[1] == j):
                n3 = _l0_minus(t.w3, t.w1.weights[i] + t.w2.weights[j] - n - 1)
                m_max = max(
                    (len(exp_nilpotent_terms(t.w3, n3, mode))
                     for v1 in e1 for v2 in e2 for (nn, _k), mode in t.mode_map(v1, v2).items() if nn == n),
                    default=0,
                )
                bound = m_max + k1 + k2 - 2
                for k in range(max(bound, 0), t.max_log_power() + 2):
                    if witness is None and not t.mode(i, j, n, k).is_zero():
                        witness = f"mode({i},{j},{n!r},{k}) nonzero above lg-power {bound - 1}"
    rep.add("per-pair-vanishing-bound", witness is None, witness)


def _check_pairing_poly(rep: Report, t: IntertwinerTable) -> None:
    dual = contragredient(t.w3)
    k1 = t.w1.nilpotency_index()
    k2 = t.w2.nilpotency_index()
    for i in range(t.w1.dim):
        for j in range(t.w2.dim):
            s = t.series(i, j)
            for m in range(t.w3.dim):
                wprime = dual.basis_vector(m)
                n3 = dual.weights[m]
                k3 = len(exp_nilpotent_terms(dual, _l0_minus(dual, n3), wprime))
                pair = LogSeries.zero(SCALAR)
                for mono, vec in s.items():
                    c = pairing_value(wprime, vec)
                    if not c.is_zero():
                        pair = pair + LogSeries.monomial(mono, c)
                want_exp = n3 - t.w1.weights[i] - t.w2.weights[j]
                bound = k1 + k2 + k3 - 3
                bad = [mono for mono, _vec in pair.sorted_items()
                       if mono.exponent("x") != want_exp or mono.log_power("x") > max(bound, 0)]
                witness = f"<w'_{m}, Y(e_{i},x)e_{j}> has term {bad[0]!r} outside the span" if bad else None
                rep.add(f"pairing-span({i},{j};{m})", not bad, witness)


# ---------------------------------------------------------------------------
# decompositions and derived operators

def decompose(t: IntertwinerTable, which: str) -> list[IntertwinerTable]:
    """Split a table by log power (non-axiomatic slices) or by exponent
    congruence class mod Z (each slice inherits every linear axiom)."""
    if which == "by_logpower":
        out = []
        for k in range(t.max_log_power() + 1):
            modes = {
                (i, j, n, 0): vec for (i, j, n, kk), vec in t.modes.items() if kk == k
            }
            out.append(IntertwinerTable(t.w1, t.w2, t.w3, modes))
        return out
    if which == "by_congruence":
        classes: dict[tuple[int, int], dict[ModeKey, CoeffVector]] = {}
        for (i, j, n, k), vec in t.modes.items():
            classes.setdefault((n.a % LATTICE, n.b), {})[(i, j, n, k)] = vec
        return [
            IntertwinerTable(t.w1, t.w2, t.w3, modes)
            for _key, modes in sorted(classes.items())
        ]
    raise ValueError(f"unknown decomposition {which!r}")


def logpower_slice_euler_defect(t: IntertwinerTable, k: int, i: int, j: int) -> LogSeries:
    """The ``euler`` defect of the k-th log-power slice at the pair (i, j), less
    (k+1) times the (k+1)-st slice: the slice rule, zero on an ``euler`` table.

    ``lminus1`` has no slice rule of its own: on a finite module it forces a
    polynomial table, whose one slice is the table itself."""
    slices = decompose(t, "by_logpower")
    yk, yk1 = (slices[m] if m < len(slices) else IntertwinerTable(t.w1, t.w2, t.w3, {}) for m in (k, k + 1))
    d = _table_defects(yk, "euler").get((i, j), LogSeries.zero(t.w3.coeff_space))
    return d - yk1.series(i, j).scale(k + 1)


def x_t(t: IntertwinerTable, tt: int) -> IntertwinerTable:
    """The log-power lowering family: mode'_{n;k} = C(k+t, t) mode_{n;k+t}."""
    if tt < 0:
        raise ValueError("t must be nonnegative")
    modes: dict[ModeKey, CoeffVector] = {}
    for (i, j, n, k), vec in t.modes.items():
        if k >= tt:
            modes[(i, j, n, k - tt)] = vec.scale(math.comb(k, tt))
    return IntertwinerTable(t.w1, t.w2, t.w3, modes)


def compose_with_homs(
    t: IntertwinerTable,
    sigma3: ExactMatrix | None = None,
    sigma1: ExactMatrix | None = None,
    sigma2: ExactMatrix | None = None,
) -> IntertwinerTable:
    """sigma3 . Y(sigma1 ., x) sigma2 .: the modes of pair (i, j) are those of
    Y(sigma1 e_i, x) sigma2 e_j, read off :meth:`IntertwinerTable.mode_map`,
    each mapped by sigma3."""

    def image(mod: MobiusModule, sigma: ExactMatrix | None, i: int) -> CoeffVector:
        return mod.basis_vector(i) if sigma is None else mod.apply_matrix(sigma, mod.basis_vector(i))

    modes: dict[ModeKey, CoeffVector] = {}
    for i in range(t.w1.dim):
        v1 = image(t.w1, sigma1, i)
        for j in range(t.w2.dim):
            for (n, k), vec in t.mode_map(v1, image(t.w2, sigma2, j)).items():
                modes[(i, j, n, k)] = vec if sigma3 is None else t.w3.apply_matrix(sigma3, vec)
    return IntertwinerTable(t.w1, t.w2, t.w3, modes)


def subst_table_scaled(t: IntertwinerTable, zeta: ExactScalar) -> IntertwinerTable:
    """Y(., e^zeta x) as a table: each mode (i, j, n, m) adds s times itself into mode (i, j, n, k)
    for each term (k, s) of the image of x^(-n-1) lg(x)^m."""
    image = lru_cache(maxsize=None)(partial(_scaled_image, "x", zeta, pi_monomial_coefficient(zeta)))
    modes: dict[ModeKey, CoeffVector] = {}
    for (i, j, n, m), vec in t.modes.items():
        for k, s in image(-n - 1, m):
            cur = modes.get((i, j, n, k))
            modes[(i, j, n, k)] = vec.scale(s) if cur is None else cur + vec.scale(s)
    return IntertwinerTable(t.w1, t.w2, t.w3, modes)


def omega_r(t: IntertwinerTable, r: int) -> IntertwinerTable:
    """Skew transposition: Omega_r(Y)(w2, x)w1 = e^(xL(-1)) Y(w1, e^((2r+1)Pi) x) w2.

    On modes: the p-th term of the L(-1)-orbit of mode (i, j, n, k) of Y(., e^((2r+1)Pi) x) adds into mode
    (j, i, n - p, k); L(-1) is nilpotent, so orbits end.
    """
    s = subst_table_scaled(t, ExactScalar.pi_power(1, 2 * r + 1))
    modes: dict[ModeKey, CoeffVector] = {}
    for (i, j, n, k), vec in s.modes.items():
        for p, term in enumerate(exp_nilpotent_terms(t.w3, t.w3.L(-1), vec)):
            key = (j, i, n - p, k)
            cur = modes.get(key)
            modes[key] = term if cur is None else cur + term
    return IntertwinerTable(t.w2, t.w1, t.w3, modes)


def a_r(t: IntertwinerTable, r: int) -> IntertwinerTable:
    """r-contragredient operator: type (W2'; W1 W3'), built from the defining
    pairing <A_r(Y)(w1,x)w3', w2> = <w3', Y(e^(xL(1)) e^((2r+1)Pi L(0))
    x^(-2L(0)) w1, x^(-1)) w2> on dual bases.

    On modes: x^(-2L(0)) e_i = sum_s (-2)^s x^(-2h_i) lg(x)^s u_s over the N-orbit terms u_s of e_i; the
    q-th L(1)-orbit term v of e^((2r+1)Pi L(0)) (-2)^s u_s adds, for each mode (n, k) of Y(v, .)e_m, (-1)^k
    times its component jp into component m of mode (i, jp, 2h_i - q - n - 2, s + k).
    """
    grading = axiom_check(t, "grading")
    if not grading.passed:
        raise AxiomError("a_r needs a grading-compatible table: " + grading.to_text())
    w1 = t.w1
    w2p = contragredient(t.w2)
    a_scalar = ExactScalar.pi_power(1, 2 * r + 1)
    comps: dict[ModeKey, dict[int, ExactScalar]] = {}
    for i, h in enumerate(w1.weights):
        for s, u in enumerate(exp_nilpotent_terms(w1, w1.nilpotent_part(), w1.basis_vector(i))):
            dressed = e_aL0(w1, u.scale((-2) ** s), a_scalar)
            for q, v in enumerate(exp_nilpotent_terms(w1, w1.L(1), dressed)):
                for m in range(t.w2.dim):
                    for (n, k), vec in t.mode_map(v, t.w2.basis_vector(m)).items():
                        for jp, c in (vec if k % 2 == 0 else -vec).components.items():
                            out = comps.setdefault((i, jp, h + h - q - n - 2, s + k), {})
                            out[m] = out[m] + c if m in out else c
    modes = {key: CoeffVector(w2p.coeff_space, cs) for key, cs in comps.items()}
    return IntertwinerTable(w1, contragredient(t.w3), w2p, modes)


def shift_s1s2s3(t: IntertwinerTable, s1: int, s2: int, s3: int) -> IntertwinerTable:
    """Dressing by e^(2 pi i s L(0)) factors on each slot (exact Pi-polynomials)."""
    sig3 = e_aL0_matrix(t.w3, pi_scalar(2 * s1)) if s1 else None
    sig1 = e_aL0_matrix(t.w1, pi_scalar(2 * s2)) if s2 else None
    sig2 = e_aL0_matrix(t.w2, pi_scalar(2 * s3)) if s3 else None
    return compose_with_homs(t, sig3, sig1, sig2)


class RecoveryFailure(AssertionError):
    """A recovery expression of :func:`recover_modes` kept a power of x or lg(x)."""


def recover_modes(t: IntertwinerTable, i: int, j: int, n: Exponent | Fraction | int) -> list[CoeffVector]:
    """Recover mode(i, j, n, r) for r = 0..K-1 from weight projections of the
    shifted operators, via the signed-Pascal combination; asserts that every
    power of x and lg(x) cancels in the recovery expression."""
    n = Exponent.coerce(n)
    ks = [k for (ii, jj, nn, k) in t.modes if ii == i and jj == j and nn == n]
    bigk = (max(ks) + 1) if ks else 1
    mu = t.w1.weights[i] + t.w2.weights[j] - n - 1
    # pi_t: the y^t coefficient of e^(yN3) Y(e^(-yN1) e_i, x) e^(-yN2) e_j, projected to weight mu
    pis = [LogSeries.zero(t.w3.coeff_space)] * bigk
    for s, v1, v2 in _arg_orbits(t, i, j, bigk):
        for ll, f in enumerate(_orbit(t.w3, t.series_args(v1, v2), mu, bigk - s)):
            f = f.map_coeffs(lambda vec: t.w3.weight_projection(vec, mu))
            pis[s + ll] = pis[s + ll] + f.scale((-1) ** s)
    out = []
    for r in range(bigk):
        expr = LogSeries.zero(t.w3.coeff_space)
        for tt in range(r, bigk):
            coeff = Fraction((-1) ** (r + tt) * math.comb(tt, r))
            expr = expr + LogSeries.monomial(Monomial.var("x", n + 1, tt - r), coeff) * pis[tt]
        # all x's and lg(x)'s must cancel, leaving a constant vector
        if leftover := [m for m in expr.terms if m != Monomial.UNIT]:
            raise RecoveryFailure(f"recovery expression failed to collapse: residual monomials {leftover[:3]}")
        out.append(expr.coeff(Monomial.UNIT))
    return out


# ---------------------------------------------------------------------------
# the ODE structure lemma

def euler_minus_a(f: LogSeries, var: VarId, a: Exponent) -> LogSeries:
    return f.d_dx(var, 1) - f.scale(a.as_scalar())


def ode_structure_check(f: LogSeries, var: VarId, a: Exponent, m: int) -> Report:
    """Lemma: (x d/dx - a)^m f = 0 forces f into span{x^a lg(x)^i : i < m},
    with minimality witnessed by a nonzero coefficient of x^a lg(x)^(m-1)."""
    rep = Report("euler-ode-structure")
    cur = f
    for _ in range(m):
        cur = euler_minus_a(cur, var, a)
    rep.add("annihilated", cur.is_zero(), _witness(cur))
    in_span = all(
        mono.exponent(var) == a and mono.log_power(var) < m for mono in f.terms
    )
    rep.add("solution-shape", in_span)
    top = f.coeff(Monomial.var(var, a, m - 1))
    rep.add("minimality-witness", not top.is_zero(), "top lg-coefficient vanishes")
    return rep


# ---------------------------------------------------------------------------
# fusion-space solver

def _mode_defect(
    w1: MobiusModule,
    w2: MobiusModule,
    w3: MobiusModule,
    name: str,
    i0: int,
    j0: int,
    n: Exponent,
    k: int,
    b: int,
) -> dict[tuple[int, int, int, int, int, int], ExactScalar]:
    """Nonzero coefficients of the ``name`` defect of the table whose only
    mode is (i0, j0, n, k) -> e_b, keyed by (i, j, L Re e, L Im e, log power,
    component in w3) at the point x^e lg(x)^k': the sum of the terms of
    ``name`` in :data:`_IDENTITIES`.

    A term on slot 1, 2 or 3 reaches the pairs of :func:`_slot_targets` for
    L(j'); a slot-0 term is the two-term derivative of x^m lg(x)^k with
    m = -n-1.
    """
    terms = _TERMS.get(name)
    if terms is None:
        raise AxiomError(f"unknown constraint {name!r}")
    out: dict[tuple[int, int, int, int, int, int], ExactScalar] = {}

    def put(i: int, j: int, shift: int, drop: int, bb: int, c: ExactScalar) -> None:
        # the coefficient of e_bb x^(-n-1+shift) lg(x)^(k-drop) in the (i, j) defect
        key = (i, j, (shift - 1) * LATTICE - n.a, -n.b, k - drop, bb)
        cur = out.get(key)
        out[key] = c if cur is None else cur + c

    for slot, jb, shift, coeff in terms:
        if slot:
            for i, j, bb, c in _slot_targets(slot, (w1, w2, w3)[slot - 1].L(jb), i0, j0, b):
                put(i, j, shift, 0, bb, c * coeff)
            continue
        minus_m = (n + 1).as_scalar()  # -d/dx x^m lg(x)^k = -m x^(m-1) lg(x)^k - k x^(m-1) lg(x)^(k-1)
        if not minus_m.is_zero():
            put(i0, j0, shift - 1, 0, b, minus_m * coeff)
        if k:
            put(i0, j0, shift - 1, 1, b, ExactScalar.from_rational(-k) * coeff)
    return {key: c for key, c in out.items() if not c.is_zero()}


def candidate_exponents(w1: MobiusModule, w2: MobiusModule, w3: MobiusModule) -> list[Exponent]:
    """Weight-compatible exponents n = n1 + n2 - n3 - 1."""
    out = {
        w1.weights[i] + w2.weights[j] - w3.weights[b] - 1
        for i in range(w1.dim) for j in range(w2.dim) for b in range(w3.dim)
    }
    return sorted(out, key=lambda e: e.sort_key())


def solve_fusion_space(
    w1: MobiusModule,
    w2: MobiusModule,
    w3: MobiusModule,
    constraints: Sequence[str] = ("euler",),
    window: Sequence[Exponent | Fraction | int] | None = None,
    max_log: int | None = None,
    vertex: VertexTable | None = None,
) -> list[IntertwinerTable]:
    """Exact nullspace of the selected axiom constraints over unknown modes.

    Each unknown mode contributes its own coefficient equations: those of
    ``lminus1``, ``euler`` and ``sl2_*`` come from
    :func:`_mode_defect`, those of ``jacobi`` from :func:`_jacobi_mode_rows`
    on each algebra vector's window for the exponents and log powers solved for.
    ``max_log`` is the number of log powers solved for, 0..max_log-1 (default: from the nilpotency
    indices, max(K1 + K2 + K3 - 2, 1), when the constraints imply ``euler`` by naming it or both
    ``lminus1`` and ``sl2_0``, as Part II bounds the log powers of such solutions by K1 + K2 + K3 - 3;
    else from the dimensions, max(dim W1 + dim W2 + dim W3 - 2, 1)).  Returns a basis of the solution
    space on the given window: with constraints that imply ``euler`` on the default window and depth,
    the whole space of grading-compatible tables that satisfy them (``euler`` makes every exponent a
    weight-compatible candidate and bounds the log powers as above); else only window-relative.
    """
    bad = [name for name in constraints if name not in CONSTRAINTS]
    if bad:
        raise AxiomError(f"unknown constraint {bad[0]!r}; accepted: {', '.join(CONSTRAINTS)}")
    exps = (
        [Exponent.coerce(n) for n in window]
        if window is not None
        else candidate_exponents(w1, w2, w3)
    )
    if not exps:
        raise ValueError("empty exponent window")
    if max_log is None:
        euler = "euler" in constraints or {"lminus1", "sl2_0"} <= set(constraints)
        max_log = max(sum(w.nilpotency_index() if euler else w.dim for w in (w1, w2, w3)) - 2, 1)
    unknowns: list[tuple] = []
    for i in range(w1.dim):
        for j in range(w2.dim):
            for n in exps:
                want_wt = w1.weights[i] + w2.weights[j] - n - 1
                want_deg = w3.group.add(w1.degrees[i], w2.degrees[j])
                for b in range(w3.dim):
                    if w3.weights[b] != want_wt or w3.degrees[b] != want_deg:
                        continue
                    for k in range(max_log):
                        unknowns.append((i, j, n, k, b))  # type: ignore[arg-type]
    if not unknowns:
        return []
    if "jacobi" in constraints and vertex is None:
        raise ValueError("jacobi constraints need a vertex table")
    # (row key prefix, unit rows) of one constraint, or for jacobi of one algebra
    # vector's window; grading and weights are encoded in the unknown set
    sources: list[tuple[tuple, Callable]] = []
    for name in dict.fromkeys(constraints):
        if name in _IDENTITIES:
            sources.append(((name,), partial(_mode_defect, w1, w2, w3, name)))
        elif name == "jacobi":
            exps_used = dict.fromkeys(n for (_, _, n, _, _) in unknowns)  # type: ignore[misc]
            windows = [_jacobi_window(exps_used, vertex, v) for v in range(len(vertex.vector_weights))]
            visits = len(unknowns) * sum(len(x0) * len(x1) for x0, x1, _ in windows)
            if visits > MAX_JACOBI_VISITS:
                raise WorkBudgetError(
                    f"the jacobi rows of ({w3.name}; {w1.name} {w2.name}) at depth {max_log} visit {visits} "
                    f"window points, over the bound of {MAX_JACOBI_VISITS}")
            for v, jw in enumerate(windows):
                rows_v = partial(_jacobi_mode_rows, vertex, v, jw, firsts=range(w1.dim), seconds=range(w2.dim))
                sources.append((("jacobi", v), rows_v))
    # row key -> {column: coefficient}; an unknown reaches each row key of a source at most once.
    # The basis does not depend on the order of the rows: nullspace ends in the reduced row
    # echelon form, which is unique.
    rows: dict[tuple, dict[int, ExactScalar]] = {}
    for col, unknown in enumerate(unknowns):
        for prefix, unit_rows in sources:
            for key, c in unit_rows(*unknown).items():
                rows.setdefault(prefix + key, {})[col] = c
    out = []
    for coeffs in nullspace(list(rows.values()), len(unknowns)):
        comps: dict[tuple, dict[int, ExactScalar]] = {}
        for (i, j, n, k, b), c in zip(unknowns, coeffs):  # type: ignore[misc]
            if not c.is_zero():
                comps.setdefault((i, j, n, k), {})[b] = c
        modes = {key: CoeffVector._trusted(w3.coeff_space, cs) for key, cs in comps.items()}
        out.append(IntertwinerTable(w1, w2, w3, modes))
    return out
