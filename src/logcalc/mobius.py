"""Finite-dimensional generalized modules for a Mobius vertex algebra.

A :class:`MobiusModule` is the one module object: a name, a generalized
L(0)-weight and an abelian-group degree per basis vector, and the matrices of
L(-1), L(0) and L(1).  Validation reports each structural relation separately:

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

Every operator here acts on a vector or on a W-valued series: x^(+-L(0)),
e^(aL(0)) and e^(c L(j)) for a series coefficient c, each summed from the
one orbit of :func:`exp_nilpotent_terms`.  The conjugation identities compare
their two sides as such operators on every basis vector; an exponential that
cannot be summed exactly makes a failing row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .matrix import ExactMatrix
from .printer import series_str
from .reports import Report
from .scalars import (
    ExactScalar,
    Exponent,
    LatticeViolation,
    root_of_unity,
)
from .series import SCALAR, CoeffSpace, CoeffVector, LogSeries, Monomial, VarId, _floor_val, cut_powers
from .substitution import pi_monomial_coefficient, series_exp


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


class MobiusModule:
    """Per-basis generalized weights and group degrees, the matrices of L(-1),
    L(0) and L(1), and the derived semisimple/nilpotent split of L(0)."""

    def __init__(
        self,
        name: str,
        weights: Sequence[Exponent | Fraction | int],
        Lm1: ExactMatrix,
        L0: ExactMatrix,
        L1: ExactMatrix,
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
        for m in (Lm1, L0, L1):
            if m.rows != m.cols or m.rows != Lm1.rows:
                raise ValueError("action matrices must be square and equally sized")
        if L0.rows != self.dim:
            raise ValueError("action dimension does not match the graded space")
        self._L = {-1: Lm1, 0: L0, 1: L1}
        self.coeff_space = CoeffSpace(name, self.dim)
        self._dual_of: "MobiusModule | None" = None
        self._nilpotent: ExactMatrix | None = None
        self._nilpotency: int | None = None

    def L(self, j: int) -> ExactMatrix:
        return self._L[j]

    def weight_diagonal(self) -> ExactMatrix:
        n, zero = self.dim, ExactScalar.zero()
        w = [e.as_scalar() for e in self.weights]
        return ExactMatrix._trusted([[w[i] if i == j else zero for j in range(n)] for i in range(n)])

    def nilpotent_part(self) -> ExactMatrix:
        if self._nilpotent is None:  # built on first use: modules are immutable
            self._nilpotent = self._L[0] - self.weight_diagonal()
        return self._nilpotent

    def nilpotency_index(self) -> int:
        """Least K with (L(0) - L(0)_s)^K = 0 (the log-depth bound of the module)."""
        if self._nilpotency is None:  # a solve needs only K: N stays uncached for modules that never use it
            n = self._L[0] - self.weight_diagonal()
            self._nilpotency = max(len(exp_nilpotent_terms(self, n, self.basis_vector(j))) for j in range(self.dim))
        return self._nilpotency

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
            out.setdefault(self.weights[i], {})[i] = c
        return {w: CoeffVector(self.coeff_space, comp) for w, comp in out.items()}

    def weight_projection(self, vec: CoeffVector, w: Exponent) -> CoeffVector:
        return CoeffVector(
            self.coeff_space,
            {i: c for i, c in vec.components.items() if self.weights[i] == w},
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
    Lm1, L0, L1 = (module.L(j) for j in (-1, 0, 1))
    r.add("bracket-L0-Lm1", L0.commutator(Lm1) == Lm1)
    r.add("bracket-L0-L1", L0.commutator(L1) == (-L1))
    pairing_ok = L1.commutator(Lm1) == L0.scale(2)
    r.add("bracket-L1-Lm1", pairing_ok, "2L(0) bracket fails (tolerated for Jordan actions)")
    # N commutes with diag(w) iff it links only equal weights: (ND - DN)[i][j] = N[i][j] (w_j - w_i)
    n, w = module.nilpotent_part(), module.weights
    r.add("nilpotent-part", n.is_nilpotent() and all(w[i] == w[j] for i, j in n.nonzero_positions()))
    # each witness names the first bad entry, scanning column by column
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


INFORMATIONAL_CHECKS = frozenset({"bracket-L1-Lm1"})


def module_valid(report: Report) -> bool:
    """Hard validity: every check except the informational pairing bracket."""
    return all(c.passed for c in report.checks if c.check_id not in INFORMATIONAL_CHECKS)


# ---------------------------------------------------------------------------
# operator series

class NonTerminating(ValueError):
    """An operator exponential that has no exact finite sum: the operator is
    not nilpotent and no truncation order cuts the series."""


def exp_nilpotent_terms(module: MobiusModule, m: ExactMatrix, f: CoeffVector | LogSeries, count: int | None = None) -> list:
    """The y^p coefficients [f, m f, m^2 f / 2!, ...] of e^(y m) f for a vector
    or a W-valued series f (acted on coefficientwise), up to the last nonzero
    one or the first ``count``.

    This is the one terminating exponential of the library: every operator
    exponential sums c^p times its p-th term (see :func:`_exp_sum`).  Without
    a ``count``, raises :class:`NonTerminating` when m^dim f != 0, i.e. when m
    is not nilpotent on f.
    """
    terms: list = []
    cur = f
    while not cur.is_zero() and (count is None or len(terms) < count):
        if count is None and len(terms) == module.dim:
            raise NonTerminating("exponential does not terminate: the operator is not nilpotent on the vector")
        terms.append(cur)
        step = Fraction(1, len(terms))
        if isinstance(cur, LogSeries):
            cur = cur.map_coeffs(lambda vec: module.apply_matrix(m, vec).scale(step))
        else:
            cur = module.apply_matrix(m, cur).scale(step)
    return terms


def _exp_sum(f, terms: list, c):
    """f + c terms[1] + c^2 terms[2] + ...: an exponential at y = c read off
    its orbit ``terms`` (terms[0] is f).  c is a scalar series, or a scalar
    when the terms are vectors."""
    power = None
    for term in terms[1:]:
        power = c if power is None else power * c
        f = f + (term.scale(power) if isinstance(term, CoeffVector) else power * term)
    return f


def x_pm_L0(module: MobiusModule, vec: CoeffVector, sign: int, var: VarId = "x") -> LogSeries:
    """x^(±L(0)) applied to a vector: e^(±lg(x)(L(0)-L(0)_s)) applied to the
    sum of x^(±w) times the weight-w parts.

    The nilpotence of L(0)-L(0)_s makes the exponential a terminating
    polynomial in lg(x).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    f = LogSeries(module.coeff_space, {
        Monomial.var(var, w if sign > 0 else -w): part for w, part in module.weight_components(vec).items()
    })
    terms = exp_nilpotent_terms(module, module.nilpotent_part(), f)
    return _exp_sum(f, terms, LogSeries.monomial(Monomial.log(var), sign))


def e_aL0(module: MobiusModule, vec: CoeffVector, a: ExactScalar) -> CoeffVector:
    """e^(a L(0)) vec for a = q*Pi: e^(qh*Pi) is an exact root of unity on each
    generalized-weight-h part and the nilpotent factor terminates."""
    q = pi_monomial_coefficient(a)
    out = CoeffVector.zero(module.coeff_space)
    n_mat = module.nilpotent_part()
    for w, part in module.weight_components(vec).items():
        if not w.is_real():
            raise LatticeViolation("e^(aL(0)) needs real weights for exact root-of-unity values")
        out = out + _exp_sum(part, exp_nilpotent_terms(module, n_mat, part), a).scale(root_of_unity(q * w.re))
    return out


def e_aL0_matrix(module: MobiusModule, a: ExactScalar) -> ExactMatrix:
    cols = [e_aL0(module, module.basis_vector(j), a) for j in range(module.dim)]
    return ExactMatrix(
        [[cols[j].get(i) for j in range(module.dim)] for i in range(module.dim)]
    )


def _tail_orbit(f: LogSeries, terms: list, count: int) -> list:
    """The orbit ``terms`` of f padded to ``count`` with zeros bounded like f: the
    orbit of f's unknown tail need not end with f's, so every power of the
    coefficient it would meet charges the bound."""
    return terms + [LogSeries.zero(f.space, f.trunc)] * (count - len(terms)) if f.trunc else terms


def exp_L(
    module: MobiusModule, j: int, coeff: LogSeries, f: LogSeries, order: int | None = None, var: VarId = "x"
) -> LogSeries:
    """e^(coeff L(j)) f = sum_k coeff^k L(j)^k f / k! for a W-valued series f.

    Exact when the matrix L(j) is nilpotent; an ``order`` then only truncates.
    Otherwise ``order`` must be given and the sum takes one term per power of
    ``coeff`` that :func:`~logcalc.series.cut_powers` keeps at ``order - min(0, val(f))``
    (so ``coeff`` needs positive ``var``-valuation): exact modulo ``var``-exponents above ``order``.
    """
    m = module.L(j)
    if m.is_nilpotent():
        terms = _tail_orbit(f, exp_nilpotent_terms(module, m, f), module.dim)
        return _exp_sum(f.with_trunc({var: order}) if order is not None else f, terms, coeff)
    if order is None:
        raise NonTerminating("exponential of a non-nilpotent operator needs a truncation order")
    powers = cut_powers(coeff, var, order - min(0, _floor_val(f, var)))
    terms = _tail_orbit(f, exp_nilpotent_terms(module, m, f, len(powers)), len(powers))
    out = f.with_trunc({var: order})
    for power, term in zip(powers[1:], terms[1:]):
        out = out + power * term
    return out


# ---------------------------------------------------------------------------
# conjugation identity checks

Operator = Callable[[CoeffVector], LogSeries]


def _compare_operators(rep: Report, check_id: str, module: MobiusModule, lhs: Operator, rhs: Operator) -> None:
    """Add one row: lhs and rhs agree on every basis vector.  A failure names
    the first differing matrix entry [i][j], component i of the image of e_j,
    in row-major order, or the exponential that has no exact sum."""
    basis = [module.basis_vector(j) for j in range(module.dim)]
    try:
        left = [lhs(v) for v in basis]
        right = [rhs(v) for v in basis]
    except NonTerminating as exc:
        rep.add(check_id, False, str(exc))
        return
    for i in range(module.dim):
        def entry(f: LogSeries) -> LogSeries:
            return f.map_coeffs(lambda vec: CoeffVector.scalar(vec.get(i)), SCALAR)

        for j in range(module.dim):
            a, b = entry(left[j]), entry(right[j])
            if not (a - b).is_zero():
                rep.add(check_id, False, f"entry [{i}][{j}]: {series_str(a)} != {series_str(b)}")
                return
    rep.add(check_id, True)


def conj_identity_check(module: MobiusModule, which: str, r: int = 0, order: int | None = None) -> Report:
    """Check one of the exponentiated sl(2) conjugation identities on a module.

    Both sides act as operators on W-valued series in x (and y) and are
    compared on every basis vector.

    which:
      * ``xL0_Lj``    x^L(0) L(j) x^-L(0) = x^-j L(j)                  (exact)
      * ``xL0_expLj`` x^L(0) e^(yL(j)) x^-L(0) = e^(y x^-j L(j))       (exact for j = ±1)
      * ``expLm1`` / ``expL0`` / ``expL1``   the 3x3 triangular conjugation tables
      * ``inverse_rel``  the x -> -1/x relation and its exponentiated form
    """
    rep = Report(f"conjugation({module.name}:{which})")
    space = module.coeff_space
    x = LogSeries.variable("x")

    def x_L0(sign: int, f: LogSeries) -> LogSeries:
        return f.apply_op(lambda v: x_pm_L0(module, v, sign), space)

    def L(j: int, f: LogSeries) -> LogSeries:
        return f.map_coeffs(lambda v: module.apply_L(j, v))

    if which == "xL0_Lj":
        for jj in (-1, 0, 1):
            _compare_operators(
                rep,
                f"xL0-conjugate-L({jj})",
                module,
                lambda v: x_L0(1, L(jj, x_pm_L0(module, v, -1))),
                lambda v: LogSeries.vector(module.apply_L(jj, v), Monomial.var("x", -jj)),
            )
    elif which == "xL0_expLj":
        y = LogSeries.variable("y")
        for jj in (-1, 1):
            cut = None if module.L(jj).is_nilpotent() else order
            _compare_operators(
                rep,
                f"xL0-conjugate-exp-L({jj})",
                module,
                lambda v: x_L0(1, exp_L(module, jj, y, x_pm_L0(module, v, -1), cut, "y")),
                lambda v: exp_L(module, jj, y * LogSeries.variable("x", -jj), LogSeries.vector(v), cut, "y"),
            )
    elif which in ("expLm1", "expL0", "expL1"):
        jj = {"expLm1": -1, "expL0": 0, "expL1": 1}[which]
        one, zero = LogSeries.one(), LogSeries.zero()
        if jj == -1:
            table = [[one, zero, zero], [-x, one, zero], [x * x, x.scale(-2), one]]
        elif jj == 1:
            table = [[one, x.scale(2), x * x], [zero, one, x], [zero, zero, one]]
        elif order is None:
            raise ValueError("expL0 conjugation is series-valued; supply a truncation order")
        else:
            ex, emx = series_exp(x, "x", order), series_exp(-x, "x", order)
            table = [[ex, zero, zero], [zero, one, zero], [zero, zero, emx]]
        trunc = {"x": order} if order is not None else {}

        for row, jrow in zip(table, (-1, 0, 1)):

            def conjugated(v: CoeffVector) -> LogSeries:
                inner = exp_L(module, jj, -x, LogSeries.vector(v), order)
                return exp_L(module, jj, x, L(jrow, inner), order).with_trunc(trunc)

            def combination(v: CoeffVector) -> LogSeries:
                out = LogSeries.zero(space)
                for c, jcol in zip(row, (-1, 0, 1)):
                    out = out + c * LogSeries.vector(module.apply_L(jcol, v))
                return out.with_trunc(trunc)

            _compare_operators(rep, f"{which}-row-L({jrow})", module, conjugated, combination)
    elif which == "inverse_rel":
        # e^((2r+1)Pi L(0)) (x^L0)^2 [xL(1)] (x^-L0)^2 e^-((2r+1)Pi L(0)) = -x^-1 L(1)
        a = ExactScalar.pi_power(1, 2 * r + 1)
        minus_x_inv = LogSeries.variable("x", -1).scale(-1)

        def conjugate(core: Callable[[LogSeries], LogSeries]) -> Operator:
            def op(v: CoeffVector) -> LogSeries:
                f = x_L0(-1, x_pm_L0(module, e_aL0(module, v, -a), -1))
                return x_L0(1, x_L0(1, core(f))).map_coeffs(lambda w: e_aL0(module, w, a))

            return op

        _compare_operators(
            rep,
            f"x-to-minus-inverse-x(r={r})",
            module,
            conjugate(lambda f: L(1, f) * x),
            lambda v: LogSeries.vector(module.apply_L(1, v)) * minus_x_inv,
        )
        # exponentiated form: conjugate of e^(xL(1)) equals e^(-x^-1 L(1))
        _compare_operators(
            rep,
            f"exp-conjugation(r={r})",
            module,
            conjugate(lambda f: exp_L(module, 1, x, f)),
            lambda v: exp_L(module, 1, minus_x_inv, LogSeries.vector(v)),
        )
    else:
        raise ValueError(f"unknown conjugation identity {which!r}")
    return rep


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
    dual = MobiusModule(
        module.name + "'",
        module.weights,
        module.L(1).transpose(),
        module.L(0).transpose(),
        module.L(-1).transpose(),
        [module.group.neg(d) for d in module.degrees],
        module.group,
    )
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
