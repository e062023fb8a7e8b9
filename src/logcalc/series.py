"""Sparse formal series in variables and their formal logarithms.

A :class:`LogSeries` is a finitely supported map from monomials
``prod_v v^(n_v) * lg(v)^(k_v)`` (exponents on the Gaussian lattice, log
powers in N) to coefficient vectors over a fixed finite-dimensional space.
``lg(v)`` is an independent commuting formal variable attached to ``v``, not
a function of it; the derivative rule below is what ties them together:

    v^r d/dv [ v^n lg(v)^m ] = n v^(n+r-1) lg(v)^m + m v^(n+r-1) lg(v)^(m-1).

``d_dx(v, r)`` applies it in one termwise pass: r = 0 is d/dv and r = 1 the
Euler operator v d/dv.  For T = c v^r d/dv and n = (a + b i)/L (L = ``LATTICE``),
e^(yT) sends v^n lg(v)^m to sum_k c^k y^k v^(n+k(r-1)) sum_j E_k[j] lg(v)^j / (k! L^k),
with E_0 the unit vector at j = m and one Gaussian-integer table per (n, m):

    E_(k+1)[j] = (a + b i + k(r-1)L) E_k[j] + (j+1) L E_k[j+1].

Optional per-variable truncation orders support working in W{x, lg x}[[y]]:
``trunc[y] = N`` means the series is only known modulo terms of y-exponent
greater than N, and all operations prune accordingly (and propagate the
bound pessimistically): v^r d/dv lowers ``trunc[v]`` by 1 - min(0, floor(Re r)) and
drops an image above it; e^(yT) also drops every level's terms above its final bound.

Monomial entries are sorted by variable, with no v^0 lg(v)^0 entry: products merge them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import le
from typing import Callable, Iterable, Mapping

from .scalars import LATTICE, ExactScalar, Exponent, ScalarLike, gaussian_rational

VarId = str


class UndefinedProduct(TypeError):
    """Product of two vector-valued series over a space with no algebra structure."""


class VariableCollision(ValueError):
    """An expansion variable was required to be fresh but already occurs."""


class CoeffSpace:
    """A named finite-dimensional coefficient space; dim 1 with name 'scalar' is special."""

    __slots__ = ("name", "dim")

    def __init__(self, name: str, dim: int):
        if dim < 1:
            raise ValueError("coefficient space must have positive dimension")
        self.name = name
        self.dim = dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffSpace):
            return NotImplemented
        return self.name == other.name and self.dim == other.dim

    def __hash__(self) -> int:
        return hash((self.name, self.dim))

    def __repr__(self) -> str:
        return f"CoeffSpace({self.name!r}, dim={self.dim})"


SCALAR = CoeffSpace("scalar", 1)


class CoeffVector:
    """Sparse vector over a CoeffSpace with ExactScalar components.  Its repr lists them by index:
    the one place that orders them, so no kernel keeps insertion order."""

    __slots__ = ("space", "components", "_hash")

    def __init__(self, space: CoeffSpace, components: Mapping[int, ScalarLike] | None = None):
        self.space = space
        comp: dict[int, ExactScalar] = {}
        if components:
            for i, v in components.items():
                if not 0 <= i < space.dim:
                    raise IndexError(f"basis index {i} out of range for {space!r}")
                s = ExactScalar.coerce(v)
                if not s.is_zero():
                    comp[i] = s
        self.components = comp
        self._hash: int | None = None

    @staticmethod
    def _trusted(space: CoeffSpace, components: dict[int, ExactScalar]) -> CoeffVector:
        """A vector from in-range, nonzero ExactScalar components (kept, not copied)."""
        vec = object.__new__(CoeffVector)
        vec.space = space
        vec.components = components
        vec._hash = None
        return vec

    @staticmethod
    def zero(space: CoeffSpace) -> CoeffVector:
        return CoeffVector(space)

    @staticmethod
    def basis(space: CoeffSpace, i: int) -> CoeffVector:
        return CoeffVector(space, {i: ExactScalar.from_rational(1)})

    @staticmethod
    def scalar(value: ScalarLike) -> CoeffVector:
        return CoeffVector(SCALAR, {0: ExactScalar.coerce(value)})

    def is_zero(self) -> bool:
        return not self.components

    def get(self, i: int) -> ExactScalar:
        return self.components.get(i, ExactScalar.zero())

    def scalar_value(self) -> ExactScalar:
        if self.space.dim != 1:
            raise ValueError("scalar_value on a non-one-dimensional space")
        return self.get(0)

    def __add__(self, other: CoeffVector) -> CoeffVector:
        if self.space != other.space:
            raise ValueError("adding vectors over different spaces")
        out = dict(self.components)
        for i, v in other.components.items():
            s = out.get(i)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(i, None)
            else:
                out[i] = s
        return CoeffVector._trusted(self.space, out)

    def __neg__(self) -> CoeffVector:
        return CoeffVector._trusted(self.space, {i: -v for i, v in self.components.items()})

    def scale(self, s: ScalarLike) -> CoeffVector:
        s = ExactScalar.coerce(s)
        if s.is_zero():
            return CoeffVector(self.space)
        # the scalar ring has no zero divisors: products of nonzero entries stay nonzero
        return CoeffVector._trusted(self.space, {i: v * s for i, v in self.components.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffVector):
            return NotImplemented
        return self.space == other.space and self.components == other.components

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.space, tuple(sorted(self.components.items()))))
        return self._hash

    def __repr__(self) -> str:
        return f"CoeffVector({self.space.name}, {dict(sorted(self.components.items()))})"


class Monomial:
    """Canonical product of var^exponent * lg(var)^logpower factors.

    Entries are kept sorted by variable name; a variable with exponent 0 and
    log power 0 is not stored, so structural equality is semantic equality.
    """

    __slots__ = ("entries", "_hash")

    def __init__(self, entries: Mapping[VarId, tuple[Exponent, int]] | None = None):
        items = []
        if entries:
            for v, (e, k) in sorted(entries.items()):
                e = Exponent.coerce(e)
                k = int(k)
                if k < 0:
                    raise ValueError("log powers must be nonnegative")
                if not e.is_zero() or k != 0:
                    items.append((v, e, k))
        self.entries: tuple[tuple[VarId, Exponent, int], ...] = tuple(items)
        self._hash: int | None = None

    UNIT: "Monomial"

    @staticmethod
    def _trusted(entries: tuple[tuple[VarId, Exponent, int], ...]) -> Monomial:
        """A monomial from entries already in canonical form."""
        m = object.__new__(Monomial)
        m.entries = entries
        m._hash = None
        return m

    @staticmethod
    def var(v: VarId, exponent: Exponent | Fraction | int = 1, log_power: int = 0) -> Monomial:
        return Monomial({v: (Exponent.coerce(exponent), log_power)})

    @staticmethod
    def log(v: VarId, power: int = 1) -> Monomial:
        return Monomial({v: (Exponent(0), power)})

    def exponent(self, v: VarId) -> Exponent:
        for name, e, _ in self.entries:
            if name == v:
                return e
        return _EXPONENT_ZERO

    def log_power(self, v: VarId) -> int:
        for name, _, k in self.entries:
            if name == v:
                return k
        return 0

    def variables(self) -> tuple[VarId, ...]:
        return tuple(v for v, _, _ in self.entries)

    def without(self, v: VarId) -> Monomial:
        return self._with(v, _EXPONENT_ZERO, 0)

    def _with(self, v: VarId, e: Exponent, k: int) -> Monomial:
        """This monomial with its entry for v replaced by v^e lg(v)^k (k >= 0)."""
        es, i = self.entries, 0
        while i < len(es) and es[i][0] < v:
            i += 1
        j = i + 1 if i < len(es) and es[i][0] == v else i
        return Monomial._trusted(es[:i] + ((v, e, k),) + es[j:] if k or e.a or e.b else es[:i] + es[j:])

    def __mul__(self, other: Monomial) -> Monomial:
        a, b = self.entries, other.entries
        if not b:
            return self
        if not a:
            return other
        # one merge of the two var-sorted entry tuples; an entry that cancels to v^0 lg^0 is dropped
        out, i, j = [], 0, 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            va, ea, ka = a[i]
            vb, eb, kb = b[j]
            if va < vb:
                out.append(a[i])
                i += 1
            elif vb < va:
                out.append(b[j])
                j += 1
            else:
                re, im, k = ea.a + eb.a, ea.b + eb.b, ka + kb
                if re or im or k:
                    out.append((va, Exponent._lattice(re, im), k))
                i += 1
                j += 1
        return Monomial._trusted(tuple(out) + a[i:] + b[j:])

    def sort_key(self) -> tuple:
        """Entries as flat (v, L re, L im, k): the order of (v, exponent sort key, k)."""
        return tuple((v, e.a, e.b, k) for v, e, k in self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __repr__(self) -> str:
        from .printer import monomial_str

        return f"Monomial({monomial_str(self)})"


Monomial.UNIT = Monomial()
_EXPONENT_ZERO = Exponent(0)


TruncMap = Mapping[VarId, int]


def _floor_val(f: LogSeries, v: VarId) -> int:
    """floor(Re val_v(f)), the least v-exponent of f rounded down.  With no terms
    it is f's v-bound, where its unknown tail starts (0 if f is exact in v)."""
    return min((m.exponent(v).a for m in f.terms), default=f.trunc.get(v, 0) * LATTICE) // LATTICE


def _merge_trunc(a: TruncMap, b: TruncMap) -> dict[VarId, int]:
    out = dict(a)
    for v, n in b.items():
        out[v] = min(out[v], n) if v in out else n
    return out


def _exp_table(n: Exponent, m: int, r: Exponent, cs: list) -> list[list[ExactScalar | None]]:
    """Row k (0 < k < len(cs)): c^k E_k[j] / (k! L^k) for j <= m, None for 0; cs[k] is c^k, or None for c = 1."""
    re, im, rows = [0] * m + [1, 0], [0] * (m + 2), [[]]
    for k, ck in enumerate(cs[1:], 1):
        a, b = n.a + (k - 1) * (r.a - LATTICE), n.b + (k - 1) * r.b  # L n_(k-1)
        re, im = ([a * re[j] - b * im[j] + (j + 1) * LATTICE * re[j + 1] for j in range(m + 1)] + [0],
                  [a * im[j] + b * re[j] + (j + 1) * LATTICE * im[j + 1] for j in range(m + 1)] + [0])
        row = [gaussian_rational(x, z, math.factorial(k) * LATTICE**k) if x or z else None for x, z in zip(re, im[:-1])]
        rows.append(row if ck is None else [None if s is None else s * ck for s in row])
    return rows


class LogSeries:
    """Finitely supported series with CoeffVector coefficients.

    Treat instances as immutable; all operations return new series.
    """

    __slots__ = ("space", "terms", "trunc")

    def __init__(
        self,
        space: CoeffSpace,
        terms: Mapping[Monomial, CoeffVector] | None = None,
        trunc: TruncMap | None = None,
    ):
        self.space = space
        self.trunc: dict[VarId, int] = dict(trunc) if trunc else {}
        clean: dict[Monomial, CoeffVector] = {}
        if terms:
            for m, vec in terms.items():
                if vec.space != space:
                    raise ValueError("coefficient vector over the wrong space")
                if vec.is_zero() or self._beyond_trunc(m):
                    continue
                clean[m] = vec
        self.terms = clean

    @staticmethod
    def _trusted(space: CoeffSpace, terms: dict[Monomial, CoeffVector], trunc: dict[VarId, int]) -> LogSeries:
        """A series from nonzero vectors over ``space`` already pruned to ``trunc``
        (both dicts are kept, not copied)."""
        f = object.__new__(LogSeries)
        f.space = space
        f.terms = terms
        f.trunc = trunc
        return f

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(space: CoeffSpace = SCALAR, trunc: TruncMap | None = None) -> LogSeries:
        return LogSeries(space, {}, trunc)

    @staticmethod
    def one() -> LogSeries:
        return LogSeries(SCALAR, {Monomial.UNIT: CoeffVector.scalar(1)})

    @staticmethod
    def monomial(m: Monomial, coeff: ScalarLike = 1, trunc: TruncMap | None = None) -> LogSeries:
        return LogSeries(SCALAR, {m: CoeffVector.scalar(coeff)}, trunc)

    @staticmethod
    def variable(v: VarId, exponent: Exponent | Fraction | int = 1) -> LogSeries:
        return LogSeries.monomial(Monomial.var(v, exponent))

    @staticmethod
    def log_variable(v: VarId, power: int = 1) -> LogSeries:
        return LogSeries.monomial(Monomial.log(v, power))

    @staticmethod
    def vector(vec: CoeffVector, m: Monomial = Monomial.UNIT) -> LogSeries:
        return LogSeries(vec.space, {m: vec})

    # -- bookkeeping ------------------------------------------------------------

    def _beyond_trunc(self, m: Monomial) -> bool:
        for v, bound in self.trunc.items():
            if m.exponent(v).a > bound * LATTICE:
                return True
        return False

    def is_zero(self) -> bool:
        return not self.terms

    def uses_variable(self, v: VarId) -> bool:
        return any(m.exponent(v) != 0 or m.log_power(v) != 0 for m in self.terms) or v in self.trunc

    def coeff(self, m: Monomial) -> CoeffVector:
        return self.terms.get(m, CoeffVector.zero(self.space))

    def with_trunc(self, trunc: TruncMap) -> LogSeries:
        return LogSeries(self.space, self.terms, _merge_trunc(self.trunc, trunc))

    def items(self) -> Iterable[tuple[Monomial, CoeffVector]]:
        return self.terms.items()

    def sorted_items(self) -> list[tuple[Monomial, CoeffVector]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other: LogSeries) -> LogSeries:
        if self.space != other.space:
            raise ValueError(f"adding series over {self.space!r} and {other.space!r}")
        out = dict(self.terms)
        for m, vec in other.terms.items():
            cur = out.get(m)
            s = vec if cur is None else cur + vec
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return self._summed(other, out)

    def _summed(self, other: LogSeries, out: dict[Monomial, CoeffVector]) -> LogSeries:
        """The series of the term map ``out`` of self +- other, under their merged truncation."""
        if self.trunc == other.trunc:
            return LogSeries._trusted(self.space, out, dict(self.trunc))
        return LogSeries(self.space, out, _merge_trunc(self.trunc, other.trunc))

    def __neg__(self) -> LogSeries:
        return LogSeries._trusted(self.space, {m: -v for m, v in self.terms.items()}, dict(self.trunc))

    def __sub__(self, other: LogSeries) -> LogSeries:
        """self + (-other) in one pass: equal coefficients cancel with no arithmetic,
        as canonical vectors are equal exactly when their values are."""
        if self.space != other.space:
            raise ValueError(f"adding series over {self.space!r} and {other.space!r}")
        out = dict(self.terms)
        for m, vec in other.terms.items():
            cur = out.get(m)
            if cur is None:
                out[m] = -vec
            elif cur == vec:
                del out[m]
            else:
                out[m] = cur + (-vec)
        return self._summed(other, out)

    def scale(self, s: ScalarLike) -> LogSeries:
        s = ExactScalar.coerce(s)
        if s.is_zero():
            return LogSeries.zero(self.space, self.trunc)
        return LogSeries._trusted(self.space, {m: v.scale(s) for m, v in self.terms.items()}, dict(self.trunc))

    def __mul__(self, other: LogSeries) -> LogSeries:
        if self.space != SCALAR and other.space != SCALAR:
            raise UndefinedProduct(
                "product of two vector-valued series over a space with no declared algebra structure"
            )
        if self.space == SCALAR:
            scal, vec = self, other
        else:
            scal, vec = other, self
        # a factor known below v^(N+1) times one of valuation val leaves v^(N + val) known
        trunc = _merge_trunc(
            {v: n + min(0, _floor_val(other, v)) for v, n in self.trunc.items()},
            {v: n + min(0, _floor_val(self, v)) for v, n in other.trunc.items()},
        )
        # a pair beyond the truncation is dropped before its monomial product is formed: the right
        # terms that fit are listed once per level (lattice ints ``a`` in the truncated variables)
        caps = [n * LATTICE for n in trunc.values()]
        right = [(m2, c2.components, tuple(m2.exponent(v).a for v in trunc)) for m2, c2 in vec.terms.items()]
        fitting: dict[tuple[int, ...], list[tuple[Monomial, dict[int, ExactScalar]]]] = {}
        acc: dict[Monomial, dict[int, ExactScalar]] = {}
        for m1, c1 in scal.terms.items():
            lv1 = tuple(m1.exponent(v).a for v in trunc)
            row = fitting.get(lv1)
            if row is None:
                room = [cap - a for a, cap in zip(lv1, caps)]
                row = fitting[lv1] = [(m2, comps2) for m2, comps2, lv2 in right if all(map(le, lv2, room))]
            s1 = c1.scalar_value()
            for m2, comps2 in row:
                m = m1 * m2
                comps = acc.get(m)
                if comps is None:
                    acc[m] = {i: v * s1 for i, v in comps2.items()}
                    continue
                for i, v in comps2.items():
                    p = v * s1
                    cur = comps.get(i)
                    if cur is None:
                        comps[i] = p
                    else:
                        p = cur + p
                        if p.is_zero():
                            del comps[i]
                        else:
                            comps[i] = p
                if not comps:
                    del acc[m]
        out = {m: CoeffVector._trusted(vec.space, comps) for m, comps in acc.items()}
        return LogSeries._trusted(vec.space, out, trunc)

    # -- differential structure ------------------------------------------------------

    def d_dx(self, v: VarId, r: Exponent | Fraction | int = 0) -> LogSeries:
        """v^r d/dv: the two-term rule acting on v^n lg(v)^m, each image times v^r."""
        r = Exponent.coerce(r)
        out: dict[Monomial, CoeffVector] = {}

        def put(m: Monomial, vec: CoeffVector) -> None:
            cur = out.get(m)
            s = vec if cur is None else cur + vec
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s

        trunc, cap = dict(self.trunc), None
        if v in trunc:
            # the bound drops by 1 - min(0, floor(Re r)) (by one at r = 1, where it
            # could stay); an image above it is dropped
            trunc[v] += min(0, r.a // LATTICE) - 1
            cap = trunc[v] * LATTICE
        for m, vec in self.terms.items():
            n, k = m.exponent(v), m.log_power(v)
            a = n.a + r.a - LATTICE
            if cap is not None and a > cap:
                continue
            n1 = Exponent._lattice(a, n.b + r.b)
            if n.a or n.b:
                put(m._with(v, n1, k), vec.scale(n.as_scalar()))
            if k:
                put(m._with(v, n1, k - 1), vec.scale(k))
        return LogSeries._trusted(self.space, out, trunc)

    def exp_diffop(self, y: VarId, p: LogSeries, v: VarId, order: int) -> LogSeries:
        """Truncated e^(y T) with T = c v^r d/dv: sum_{k<=order} y^k c^k (v^r d/dv)^k / k!.

        p = c v^r is one untruncated scalar term; y must be fresh; the result
        records trunc[y] = order.
        """
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if self.uses_variable(y) or p.uses_variable(y):
            raise VariableCollision(f"expansion variable {y!r} already occurs")
        if p.space != SCALAR or p.trunc or len(p.terms) != 1 or any(
            name != v or m.log_power(v) for m in p.terms for name in m.variables()
        ):
            raise UndefinedProduct("the operator coefficient must be one untruncated scalar term c v^r")
        ((mono, coeff),) = p.terms.items()
        c, r = coeff.scalar_value(), mono.exponent(v)
        step = r.a - LATTICE  # L (n_(k+1) - n_k), real part; the imaginary part is r.b
        trunc = {y: order, **self.trunc}
        caps = [(self.trunc.get(v, math.inf) + k * (min(0, r.a // LATTICE) - 1)) * LATTICE for k in range(order + 1)]
        trunc.update({v: caps[-1] // LATTICE} if v in self.trunc else {})
        cs = [None if c == 1 else c**k for k in range(order + 1)]
        out = {m: vec for m, vec in self.terms.items() if m.exponent(v).a <= caps[-1]}
        tables, groups = {}, {}  # a group: the terms that differ only in their power of lg(v)
        for m, vec in self.terms.items():
            n, lp = m.exponent(v), m.log_power(v)
            rows = tables.get((n, lp)) or tables.setdefault((n, lp), _exp_table(n, lp, r, cs))
            groups.setdefault((m.without(v), n), []).append((lp, vec.components, rows))
        ys = [Monomial.var(y, k) for k in range(1, order + 1)]
        # level k of a group sums rows[k][j] times each member's components, for j up to its top log power
        for (rest, n), members in groups.items():
            top = max(lp for lp, _, _ in members)
            for k, yk in enumerate(ys, 1):
                a, b = n.a + k * step, n.b + k * r.b  # L n_k
                if a > caps[k]:
                    break  # every later level lies above its bound too
                if a > caps[-1]:
                    continue
                head, nk = rest * yk, Exponent._lattice(a, b)
                for j in range(top + 1):
                    comps: dict[int, ExactScalar] = {}
                    for lp, comps1, rows in members:
                        s = rows[k][j] if j <= lp else None
                        for i, x in comps1.items() if s is not None else ():
                            comps[i] = comps[i] + x * s if i in comps else x * s
                    comps = {i: x for i, x in comps.items() if not x.is_zero()}
                    if comps:
                        out[head._with(v, nk, j)] = CoeffVector._trusted(self.space, comps)
        return LogSeries._trusted(self.space, out, trunc)

    # -- misc ----------------------------------------------------------------------

    def map_coeffs(self, f: Callable[[CoeffVector], CoeffVector], space: CoeffSpace | None = None) -> LogSeries:
        space = space or self.space
        out: dict[Monomial, CoeffVector] = {}
        for m, vec in self.terms.items():
            w = f(vec)
            if not w.is_zero():
                cur = out.get(m)
                out[m] = w if cur is None else cur + w
        return LogSeries(space, out, self.trunc)

    def apply_op(self, op: Callable[[CoeffVector], LogSeries], space: CoeffSpace) -> LogSeries:
        """Apply a series-valued operator coefficientwise: the sum of op(vec) * m
        over the terms vec * m, a series over ``space``."""
        out = LogSeries.zero(space, self.trunc)
        for m, vec in self.terms.items():
            out = out + op(vec) * LogSeries.monomial(m)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms and self.trunc == other.trunc

    def equal_terms(self, other: LogSeries) -> bool:
        """Equality of term maps, ignoring truncation metadata."""
        return self.space == other.space and self.terms == other.terms

    def __repr__(self) -> str:
        from .printer import series_str

        return f"LogSeries({series_str(self)})"


def cut_powers(u: LogSeries, v: VarId, order: int) -> list[LogSeries]:
    """[1, u, u^2, ...] for a scalar u of positive v-valuation, each cut at v-order
    ``order``, up to the last nonzero one.  Every v-exponent of u^k is at least k
    times the least one of u, so the first power the cut empties ends the list,
    however small val(u) is: the one rule for how many powers an expansion takes."""
    if u.space != SCALAR:
        raise ValueError("a truncated expansion acts on scalar series")
    for m in u.terms:
        if m.exponent(v).a <= 0:
            raise ValueError(f"series must have positive valuation in {v!r} (found {m!r})")
    powers = [LogSeries.one().with_trunc(_merge_trunc(u.trunc, {v: order}))]
    while not (power := powers[-1] * u).is_zero():
        powers.append(power)
    return powers


def kth_derivative_closed_form(n: Exponent, m: int, k: int) -> LogSeries:
    """(d/dx)^k [x^n lg(x)^m] as a scalar LogSeries, for a natural number m.

    The term in x^(n-k) lg(x)^(m-j) has the coefficient

        m(m-1)...(m-j+1) * e_{k-j}(n, n-1, ..., n-k+1),

    with e_i the elementary symmetric polynomial (the sum over descent
    positions of the word expansion of the derivative's two generators).
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("closed-form derivative needs a natural log power")
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    # elementary symmetric polynomials e_0..e_k of n, n-1, ..., n-k+1
    elem = [ExactScalar.from_rational(1)] + [ExactScalar.zero()] * k
    for t in range(k):
        value = (n - t).as_scalar()
        for i in range(k, 0, -1):
            elem[i] = elem[i] + elem[i - 1] * value
    terms: dict[Monomial, CoeffVector] = {}
    falling = 1
    for j in range(min(k, m) + 1):  # the falling factorial vanishes for j > m
        c = elem[k - j] * falling
        if not c.is_zero():
            terms[Monomial.var("x", n - k, m - j)] = CoeffVector.scalar(c)
        falling *= m - j
    return LogSeries(SCALAR, terms)
