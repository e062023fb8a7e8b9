"""Finite-dimensional graded modules with an sl(2)-flavoured action.

A :class:`MobiusModule` bundles a :class:`GradedSpace` (per-basis generalized
weight and abelian-group degree) with an :class:`Sl2Action` (matrices for
L(-1), L(0), L(1)).  Validation reports each structural relation separately:

* bracket relations [L(0), L(-1)] = L(-1), [L(0), L(1)] = -L(1) and the
  weight-shift / degree-preservation conditions are hard requirements;
* the pairing bracket [L(1), L(-1)] = 2 L(0) is reported but tolerated,
  because a finite-dimensional action with semisimple-plus-nilpotent L(0)
  and nonzero nilpotent part can never satisfy it (complete reducibility
  forces a diagonalizable L(0) when all three brackets hold), and
  Jordan-block L(0) is the entire point of the logarithmic theory.

Checkers that genuinely need the full bracket (the exponentiated conjugation
identities) are therefore run on honest semisimple actions, while the
logarithmic machinery runs on Jordan-block actions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .matrix import ExactMatrix
from .reports import Report
from .scalars import (
    ExactScalar,
    Exponent,
    LatticeViolation,
    root_of_unity,
)
from .series import SCALAR, CoeffSpace, CoeffVector, LogSeries, Monomial, VarId
from .substitution import pi_monomial_coefficient, series_exp, series_log1p


class GradingGroup:
    """Finitely generated abelian group Z^free_rank x prod Z/m_i."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: Sequence[int] = ()):
        if free_rank < 0 or any(m < 2 for m in torsion):
            raise ValueError("invalid grading group signature")
        self.free_rank = free_rank
        self.torsion = tuple(int(m) for m in torsion)

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    def element(self, coords: Sequence[int]) -> tuple[int, ...]:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise ValueError(f"need {self.rank} coordinates")
        free = coords[: self.free_rank]
        tors = tuple(c % m for c, m in zip(coords[self.free_rank :], self.torsion))
        return free + tors

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return self.element([x + y for x, y in zip(a, b)])

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return self.element([-x for x in a])

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradingGroup):
            return NotImplemented
        return (self.free_rank, self.torsion) == (other.free_rank, other.torsion)

    def __repr__(self) -> str:
        return f"GradingGroup(free_rank={self.free_rank}, torsion={list(self.torsion)})"


TRIVIAL_GROUP = GradingGroup(0, ())


class GradedSpace:
    """Finite-dimensional space with per-basis generalized weight and group degree."""

    __slots__ = ("name", "dim", "weights", "degrees", "group")

    def __init__(
        self,
        name: str,
        weights: Sequence[Exponent | Fraction | int],
        degrees: Sequence[Sequence[int]] | None = None,
        group: GradingGroup = TRIVIAL_GROUP,
    ):
        self.name = name
        self.weights = tuple(Exponent.coerce(w) for w in weights)
        self.dim = len(self.weights)
        if self.dim == 0:
            raise ValueError("graded space must be nonzero")
        self.group = group
        if degrees is None:
            degrees = [group.zero()] * self.dim
        self.degrees = tuple(group.element(d) for d in degrees)
        if len(self.degrees) != self.dim:
            raise ValueError("one degree per basis vector required")

    def __repr__(self) -> str:
        return f"GradedSpace({self.name!r}, dim={self.dim})"


class Sl2Action:
    __slots__ = ("Lm1", "L0", "L1")

    def __init__(self, Lm1: ExactMatrix, L0: ExactMatrix, L1: ExactMatrix):
        for m in (Lm1, L0, L1):
            if m.rows != m.cols or m.rows != Lm1.rows:
                raise ValueError("action matrices must be square and equally sized")
        self.Lm1 = Lm1
        self.L0 = L0
        self.L1 = L1

    def matrix(self, j: int) -> ExactMatrix:
        return {-1: self.Lm1, 0: self.L0, 1: self.L1}[j]


class MobiusModule:
    """GradedSpace + Sl2Action, with the derived semisimple/nilpotent split."""

    def __init__(self, space: GradedSpace, action: Sl2Action):
        if action.L0.rows != space.dim:
            raise ValueError("action dimension does not match the graded space")
        self.space = space
        self.action = action
        self.coeff_space = CoeffSpace(space.name, space.dim)
        self._dual_of: "MobiusModule | None" = None

    # -- basic accessors -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.space.name

    @property
    def dim(self) -> int:
        return self.space.dim

    def weight(self, i: int) -> Exponent:
        return self.space.weights[i]

    def degree(self, i: int) -> tuple[int, ...]:
        return self.space.degrees[i]

    def L(self, j: int) -> ExactMatrix:
        return self.action.matrix(j)

    def weight_diagonal(self) -> ExactMatrix:
        return ExactMatrix(
            [
                [self.weight(i).as_scalar() if i == j else 0 for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )

    def nilpotent_part(self) -> ExactMatrix:
        return self.action.L0 - self.weight_diagonal()

    def nilpotency_index(self) -> int:
        """Least K with (L(0) - L(0)_s)^K = 0 (the log-depth bound of the module)."""
        n = self.nilpotent_part()
        return max(len(exp_nilpotent_terms(self, n, self.basis_vector(j))) for j in range(self.dim))

    def basis_vector(self, i: int) -> CoeffVector:
        return CoeffVector.basis(self.coeff_space, i)

    def apply_matrix(self, m: ExactMatrix, vec: CoeffVector) -> CoeffVector:
        out: dict[int, ExactScalar] = {}
        for j, c in vec.components.items():
            for i in range(self.dim):
                a = m.entries[i][j]
                if not a.is_zero():
                    s = out.get(i)
                    p = a * c
                    out[i] = p if s is None else s + p
        return CoeffVector(self.coeff_space, out)

    def apply_L(self, j: int, vec: CoeffVector) -> CoeffVector:
        return self.apply_matrix(self.L(j), vec)

    def weight_components(self, vec: CoeffVector) -> dict[Exponent, CoeffVector]:
        """Split into generalized-weight-homogeneous parts (basis-aligned)."""
        out: dict[Exponent, dict[int, ExactScalar]] = {}
        for i, c in vec.components.items():
            out.setdefault(self.weight(i), {})[i] = c
        return {w: CoeffVector(self.coeff_space, comp) for w, comp in out.items()}

    def weight_projection(self, vec: CoeffVector, w: Exponent) -> CoeffVector:
        return CoeffVector(
            self.coeff_space,
            {i: c for i, c in vec.components.items() if self.weight(i) == w},
        )

    def __repr__(self) -> str:
        return f"MobiusModule({self.name!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# validation

def validate_sl2(module: MobiusModule) -> Report:
    """Structural report: brackets, weight shifts, degree preservation, nilpotence.

    ``bracket-L1-Lm1`` (the [L(1), L(-1)] = 2 L(0) relation) is informational:
    it cannot hold on a finite-dimensional action whose L(0) has a nonzero
    nilpotent part, and such actions are exactly the logarithmic ones.
    """
    r = Report(f"sl2-structure({module.name})")
    a = module.action
    r.add("bracket-L0-Lm1", a.L0.commutator(a.Lm1) == a.Lm1)
    r.add("bracket-L0-L1", a.L0.commutator(a.L1) == (-a.L1))
    pairing_ok = a.L1.commutator(a.Lm1) == a.L0.scale(2)
    r.add("bracket-L1-Lm1", pairing_ok, "2L(0) bracket fails (tolerated for Jordan actions)")
    n = module.nilpotent_part()
    d = module.weight_diagonal()
    r.add("nilpotent-part", n.is_nilpotent() and (n @ d) == (d @ n))
    # each witness names the first bad entry, scanning column by column
    for j in (-1, 1):
        witness = None
        for row, col in module.L(j).nonzero_positions():
            if module.weight(row) != module.weight(col) - j:
                witness = f"L({j})[{row}][{col}] shifts weight {module.weight(col)!r} badly"
            elif module.degree(row) != module.degree(col):
                witness = f"L({j})[{row}][{col}] changes group degree"
            if witness:
                break
        r.add(f"weight-shift-L({j})", witness is None, witness)
    bad = [(row, col) for row, col in a.L0.nonzero_positions() if module.degree(row) != module.degree(col)]
    witness = f"L(0)[{bad[0][0]}][{bad[0][1]}] changes group degree" if bad else None
    r.add("degree-preservation-L(0)", witness is None, witness)
    return r


INFORMATIONAL_CHECKS = frozenset({"bracket-L1-Lm1"})


def module_valid(report: Report) -> bool:
    """Hard validity: every check except the informational pairing bracket."""
    return all(c.passed for c in report.checks if c.check_id not in INFORMATIONAL_CHECKS)


# ---------------------------------------------------------------------------
# operator series

def exp_nilpotent_terms(module: MobiusModule, m: ExactMatrix, vec: CoeffVector) -> list[CoeffVector]:
    """The y^p coefficients [vec, m vec, m^2 vec / 2!, ...] of e^(y m) vec, up
    to the last nonzero one.

    This is the one terminating exponential of the library: each caller
    attaches its own coefficient (y^p, lg(x)^p, a^p or (-1)^p) to the p-th
    term.  Raises ``ValueError`` when m^dim vec != 0, i.e. when m is not
    nilpotent on vec.
    """
    terms: list[CoeffVector] = []
    cur = vec
    while not cur.is_zero():
        if len(terms) == module.dim:
            raise ValueError("exponential does not terminate: the operator is not nilpotent on the vector")
        terms.append(cur)
        cur = module.apply_matrix(m, cur).scale(Fraction(1, len(terms)))
    return terms


def x_pm_L0(module: MobiusModule, vec: CoeffVector, sign: int, var: VarId = "x") -> LogSeries:
    """x^(±L(0)) applied to a vector: x^(±n) e^(±lg(x)(L(0)-n)) per weight part.

    The nilpotence of L(0)-n on each generalized-weight component makes the
    exponential a terminating polynomial in lg(x).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = LogSeries.zero(module.coeff_space)
    n_mat = module.nilpotent_part()
    for w, part in module.weight_components(vec).items():
        exp = w if sign > 0 else -w
        for k, term in enumerate(exp_nilpotent_terms(module, n_mat, part)):
            if sign < 0 and k % 2:
                term = -term
            out = out + LogSeries.vector(term, Monomial.var(var, exp, k))
    return out


def e_aL0(module: MobiusModule, vec: CoeffVector, a: ExactScalar) -> CoeffVector:
    """e^(a L(0)) vec for a = q*Pi: e^(qh*Pi) is an exact root of unity on each
    generalized-weight-h part and the nilpotent factor terminates."""
    q = pi_monomial_coefficient(a)
    out = CoeffVector.zero(module.coeff_space)
    n_mat = module.nilpotent_part()
    for w, part in module.weight_components(vec).items():
        if not w.is_real():
            raise LatticeViolation("e^(aL(0)) needs real weights for exact root-of-unity values")
        terms = exp_nilpotent_terms(module, n_mat, part)
        acc = terms[0]
        apow = a
        for term in terms[1:]:
            acc = acc + term.scale(apow)
            apow = apow * a
        out = out + acc.scale(root_of_unity(q * w.re))
    return out


def e_aL0_matrix(module: MobiusModule, a: ExactScalar) -> ExactMatrix:
    cols = [e_aL0(module, module.basis_vector(j), a) for j in range(module.dim)]
    return ExactMatrix(
        [[cols[j].get(i) for j in range(module.dim)] for i in range(module.dim)]
    )


# ---------------------------------------------------------------------------
# matrices of scalar series (for conjugation identities)

SeriesMatrix = list  # list[list[LogSeries]] with scalar entries


def series_matrix_from(m: ExactMatrix) -> SeriesMatrix:
    return [[LogSeries.constant(a) for a in row] for row in m.entries]


def series_matrix_mul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    n, mid, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(cols):
            acc = LogSeries.zero(SCALAR)
            for k in range(mid):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def series_matrix_scale(a: SeriesMatrix, f: LogSeries) -> SeriesMatrix:
    return [[f * entry for entry in row] for row in a]


def series_matrix_add(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def series_matrix_eq(a: SeriesMatrix, b: SeriesMatrix) -> tuple[bool, str | None]:
    for i, (r1, r2) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(r1, r2)):
            if not (x - y).is_zero():
                from .printer import series_str

                return False, f"entry [{i}][{j}]: {series_str(x)} != {series_str(y)}"
    return True, None


def series_matrix_identity(n: int) -> SeriesMatrix:
    return [[LogSeries.one() if i == j else LogSeries.zero(SCALAR) for j in range(n)] for i in range(n)]


def x_L0_series_matrix(module: MobiusModule, sign: int, var: VarId = "x", power: int = 1) -> SeriesMatrix:
    """Matrix of x^(±L(0)) (applied ``power`` times) as scalar series entries."""
    cols = []
    for j in range(module.dim):
        v = module.basis_vector(j)
        series = LogSeries.vector(v)
        for _ in range(power):
            # apply x^{sign L0} to a vector-valued series coefficientwise
            acc = LogSeries.zero(module.coeff_space)
            for mono, vec in series.items():
                acc = acc + (x_pm_L0(module, vec, sign, var) * LogSeries.monomial(mono))
            series = acc
        cols.append(series)
    return [
        [
            LogSeries(
                SCALAR,
                {m: CoeffVector.scalar(vec.get(i)) for m, vec in cols[j].items()},
            )
            for j in range(module.dim)
        ]
        for i in range(module.dim)
    ]


def exp_L_series_matrix(
    module: MobiusModule,
    j: int,
    coeff: LogSeries,
    order: int | None = None,
    order_var: VarId | None = None,
) -> SeriesMatrix:
    """e^(coeff * L(j)) as a matrix of scalar series.

    Terminates when L(j) is nilpotent; otherwise a truncation order in
    ``order_var`` must be supplied.
    """
    m = module.L(j)
    nilpotent = m.is_nilpotent()
    if not nilpotent and order is None:
        raise ValueError("exponential of a non-nilpotent operator needs a truncation order")
    bound = module.dim if nilpotent else order
    trunc = {order_var: order} if (order is not None and order_var is not None) else {}
    out = series_matrix_identity(module.dim)
    if trunc:
        out = [[e.with_trunc(trunc) for e in row] for row in out]
    mat_series = series_matrix_from(m)
    cur = series_matrix_identity(module.dim)
    power = LogSeries.one().with_trunc(coeff.trunc)  # coeff**k, one product per step
    for k in range(1, bound + 1):
        cur = series_matrix_mul(mat_series, cur)
        power = power * coeff
        term = series_matrix_scale(cur, power)
        term = [[e.scale(Fraction(1, math.factorial(k))).with_trunc(trunc) for e in row] for row in term]
        out = series_matrix_add(out, term)
        if nilpotent and all(e.is_zero() for row in cur for e in row):
            break
    return out


def matrix_binomials(m: ExactMatrix, order: int) -> list[ExactMatrix]:
    """C(m, k) = m (m-1) ... (m-k+1) / k! for k = 0..order."""
    out = [ExactMatrix.identity(m.rows)]
    for k in range(1, order + 1):
        shift = m - ExactMatrix.identity(m.rows).scale(k - 1)
        out.append((out[-1] @ shift).map(lambda s: s.divided_by_rational(k)))
    return out


def one_minus_x_L0_binomial(module: MobiusModule, var: VarId, order: int) -> SeriesMatrix:
    """(1-x)^(L(0)) = sum_k C(L(0), k) (-x)^k with matrix binomials, truncated."""
    out = series_matrix_identity(module.dim)
    out = [[e.with_trunc({var: order}) for e in row] for row in out]
    for k, binom in enumerate(matrix_binomials(module.action.L0, order)[1:], 1):
        term = series_matrix_scale(series_matrix_from(binom), LogSeries.monomial(Monomial.var(var, k), Fraction((-1) ** k)))
        term = [[e.with_trunc({var: order}) for e in row] for row in term]
        out = series_matrix_add(out, term)
    return out


# ---------------------------------------------------------------------------
# conjugation identity checks

def conj_identity_check(
    module: MobiusModule,
    which: str,
    j: int | None = None,
    r: int = 0,
    order: int | None = None,
    var: VarId = "x",
) -> Report:
    """Check one of the exponentiated sl(2) conjugation identities on a module.

    which:
      * ``xL0_Lj``    x^L(0) L(j) x^-L(0) = x^-j L(j)                  (exact)
      * ``xL0_expLj`` x^L(0) e^(yL(j)) x^-L(0) = e^(y x^-j L(j))       (exact for j = ±1)
      * ``expLm1`` / ``expL0`` / ``expL1``   the 3x3 triangular conjugation tables
      * ``one_minus_x``  binomial (1-x)^L(0) vs e^(L(0) log(1-x))      (order needed)
      * ``inverse_rel``  the x -> -1/x relation and its exponentiated form
    """
    rep = Report(f"conjugation({module.name}:{which})")
    dim = module.dim
    if which == "xL0_Lj":
        js = [j] if j is not None else [-1, 0, 1]
        for jj in js:
            lhs = series_matrix_mul(
                x_L0_series_matrix(module, 1, var),
                series_matrix_mul(series_matrix_from(module.L(jj)), x_L0_series_matrix(module, -1, var)),
            )
            rhs = series_matrix_scale(series_matrix_from(module.L(jj)), LogSeries.variable(var, -jj))
            ok, wit = series_matrix_eq(lhs, rhs)
            rep.add(f"xL0-conjugate-L({jj})", ok, wit)
    elif which == "xL0_expLj":
        js = [j] if j is not None else [-1, 1]
        for jj in js:
            y = "y"
            needs_order = not module.L(jj).is_nilpotent()
            e_inner = exp_L_series_matrix(module, jj, LogSeries.variable(y), order if needs_order else None, y)
            lhs = series_matrix_mul(
                x_L0_series_matrix(module, 1, var),
                series_matrix_mul(e_inner, x_L0_series_matrix(module, -1, var)),
            )
            coeff = LogSeries.variable(y) * LogSeries.variable(var, -jj)
            rhs = exp_L_series_matrix(module, jj, coeff, order if needs_order else None, y)
            ok, wit = series_matrix_eq(lhs, rhs)
            rep.add(f"xL0-conjugate-exp-L({jj})", ok, wit)
    elif which in ("expLm1", "expL0", "expL1"):
        jj = {"expLm1": -1, "expL0": 0, "expL1": 1}[which]
        if jj == 0 and order is None:
            raise ValueError("expL0 conjugation is series-valued; supply a truncation order")
        x = LogSeries.variable(var)
        left = exp_L_series_matrix(module, jj, x, order, var)
        right = exp_L_series_matrix(module, jj, -x, order, var)
        table = {
            -1: [[_c(1), _c(0), _c(0)], [-x, _c(1), _c(0)], [x * x, x.scale(-2), _c(1)]],
            0: None,
            1: [[_c(1), x.scale(2), x * x], [_c(0), _c(1), x], [_c(0), _c(0), _c(1)]],
        }[jj]
        if jj == 0:
            ex = series_exp(x, var, order)
            emx = series_exp(-x, var, order)
            table = [[ex, _c(0), _c(0)], [_c(0), _c(1), _c(0)], [_c(0), _c(0), emx]]
        for row_idx, jjj in enumerate((-1, 0, 1)):
            lhs = series_matrix_mul(left, series_matrix_mul(series_matrix_from(module.L(jjj)), right))
            rhs_acc = None
            for col_idx, jcol in enumerate((-1, 0, 1)):
                term = series_matrix_scale(series_matrix_from(module.L(jcol)), table[row_idx][col_idx])
                rhs_acc = term if rhs_acc is None else series_matrix_add(rhs_acc, term)
            if order is not None:
                lhs = [[e.with_trunc({var: order}) for e in rrow] for rrow in lhs]
                rhs_acc = [[e.with_trunc({var: order}) for e in rrow] for rrow in rhs_acc]
            ok, wit = series_matrix_eq(lhs, rhs_acc)
            rep.add(f"{which}-row-L({jjj})", ok, wit)
    elif which == "one_minus_x":
        if order is None:
            raise ValueError("one_minus_x needs a truncation order")
        direct = one_minus_x_L0_binomial(module, var, order)
        log_part = series_log1p(LogSeries.variable(var, 1).scale(-1), var, order)
        via_exp = exp_L_series_matrix(module, 0, log_part, order, var)
        ok, wit = series_matrix_eq(direct, via_exp)
        rep.add("one-minus-x-two-routes", ok, wit)
    elif which == "inverse_rel":
        # e^((2r+1)Pi L(0)) (x^L0)^2 [xL(1)] (x^-L0)^2 e^-((2r+1)Pi L(0)) = -x^-1 L(1)
        a = ExactScalar.pi_power(1, 2 * r + 1)
        phase = series_matrix_from(e_aL0_matrix(module, a))
        phase_inv = series_matrix_from(e_aL0_matrix(module, -a))
        x2 = x_L0_series_matrix(module, 1, var, power=2)
        x2inv = x_L0_series_matrix(module, -1, var, power=2)
        core = series_matrix_scale(series_matrix_from(module.L(1)), LogSeries.variable(var))
        lhs = series_matrix_mul(phase, series_matrix_mul(x2, series_matrix_mul(core, series_matrix_mul(x2inv, phase_inv))))
        rhs = series_matrix_scale(series_matrix_from(module.L(1)), LogSeries.variable(var, -1).scale(-1))
        ok, wit = series_matrix_eq(lhs, rhs)
        rep.add(f"x-to-minus-inverse-x(r={r})", ok, wit)
        # exponentiated form: conjugate of e^(xL(1)) equals e^(-x^-1 L(1))
        exl1 = exp_L_series_matrix(module, 1, LogSeries.variable(var))
        lhs2 = series_matrix_mul(phase, series_matrix_mul(x2, series_matrix_mul(exl1, series_matrix_mul(x2inv, phase_inv))))
        rhs2 = exp_L_series_matrix(module, 1, LogSeries.variable(var, -1).scale(-1))
        ok2, wit2 = series_matrix_eq(lhs2, rhs2)
        rep.add(f"exp-conjugation(r={r})", ok2, wit2)
    else:
        raise ValueError(f"unknown conjugation identity {which!r}")
    return rep


def _c(q: int) -> LogSeries:
    return LogSeries.constant(Fraction(q))


# ---------------------------------------------------------------------------
# contragredient

def contragredient(module: MobiusModule) -> MobiusModule:
    """Dual-basis module: L'(j) = transpose of L(-j); degrees are negated so
    that only components of opposite degree pair nontrivially.

    The double contragredient is the original module object itself (the
    natural identification of W'' with W at finite dimension).
    """
    if module._dual_of is not None:
        return module._dual_of
    space = GradedSpace(
        module.name + "'",
        module.space.weights,
        [module.space.group.neg(d) for d in module.space.degrees],
        module.space.group,
    )
    action = Sl2Action(
        module.action.L1.transpose(),
        module.action.L0.transpose(),
        module.action.Lm1.transpose(),
    )
    dual = MobiusModule(space, action)
    dual._dual_of = module
    return dual


def pairing_value(wprime: CoeffVector, w: CoeffVector) -> ExactScalar:
    """Standard dual pairing <w', w> = sum_i w'_i w_i in the chosen bases."""
    out = ExactScalar.zero()
    for i, c in wprime.components.items():
        d = w.components.get(i)
        if d is not None:
            out = out + c * d
    return out


def pairing_series(fprime: LogSeries, f: LogSeries) -> LogSeries:
    """<f'(x), f(x)> for vector-valued series over dual spaces (scalar result)."""
    out = LogSeries.zero(SCALAR)
    for m1, v1 in fprime.items():
        for m2, v2 in f.items():
            c = pairing_value(v1, v2)
            if not c.is_zero():
                out = out + LogSeries.monomial(m1 * m2, c)
    return out
