"""Every row family of `check all --quick` and of `check intertwiner` can fail.

A family is a row id cut at its first bracket, less a trailing ``-N`` index
(``L(-1)-derivative(0,1)`` is family ``L``).  ``AUDIT`` gives each family the
suite that owns it and one planted defect: bad data, or one library function
replaced through monkeypatch.  The defect runs that suite alone at its
`--quick` sizes and must turn at least one row of the family to FAIL; a
raised exception does not count.  A family without an entry fails
`test_every_family_is_audited`, so a new row brings its defect with it.

The six row families inside each ``weight-formulas-N`` row are flipped one by
one by ``test_every_formula_can_fail`` in test_intertwiner.py.
"""

from __future__ import annotations

import inspect
import math
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from logcalc import catalog, checks, cli, combinatorics, intertwiner, jsonio, substitution
from logcalc.checks import SUITES, honest_fixture_table
from logcalc.intertwiner import IntertwinerTable, VertexTable
from logcalc.jsonio import dump_object
from logcalc.matrix import ExactMatrix
from logcalc.mobius import GradingGroup, MobiusModule
from logcalc.scalars import ExactScalar, Exponent
from logcalc.series import LogSeries


def family(check_id: str) -> str:
    return re.sub(r"-\d+$", "", check_id.split("(")[0])


def _run(suite: str, **kwargs):
    fn, quick = SUITES[suite]
    args = dict(quick or {})
    if "seed" in inspect.signature(fn).parameters:
        args["seed"] = 0
    return fn(**args, **kwargs)


# ---------------------------------------------------------------------------
# defects: each takes the monkeypatch fixture and a scratch directory and
# returns the extra arguments of its suite


def _wrap(owner, name: str, make):
    """Replace ``owner.name`` by ``make(original)``."""

    def defect(mp, tmp_path):
        mp.setattr(owner, name, make(getattr(owner, name)))

    return defect


def _without(f: LogSeries, drop) -> LogSeries:
    return LogSeries(f.space, {m: v for m, v in f.items() if not drop(m)}, f.trunc)


def _seeded_modules(change):
    """The sl(2) suite's seeded modules with ``change(L(-1), L(0), L(1))``."""

    def make(orig):
        def seeded(name, seed, *args):
            m = orig(name, seed, *args)
            mats = [[list(row) for row in m.L(j).entries] for j in (-1, 0, 1)]
            change(*mats)
            return MobiusModule(m.name, m.weights, *map(ExactMatrix, mats))

        return seeded

    return _wrap(catalog, "seeded_semisimple_module", make)


def _scale_l1(lm1, l0, l1):  # breaks [L(1), L(-1)] = 2 L(0) only
    for row in l1:
        row[:] = [2 * e for e in row]


def _bump_l0(lm1, l0, l1):  # an off-diagonal L(0) entry between basis vectors 0 and 1
    if len(l0) > 1:
        l0[0][1] = l0[0][1] + 1


def _solver_plants_wrong_weight(orig):
    """The solver returns each table with one extra mode on a component of
    the wrong weight, where W3 has one."""

    def solve(*args, **kwargs):
        out = []
        for t in orig(*args, **kwargs):
            (i, j, n, _k), _ = t.canonical_items()[0]
            want = t.w1.weights[i] + t.w2.weights[j] - n - 1
            wrong = [b for b in range(t.w3.dim) if t.w3.weights[b] != want]
            if wrong:
                t = t + IntertwinerTable(t.w1, t.w2, t.w3, {(i, j, n, 0): t.w3.basis_vector(wrong[0])})
            out.append(t)
        return out

    return solve


def _solver_plants_half_step(orig):
    """The solver returns each table with its first mode copied to exponent
    n + 1/2, which is not congruent to the others."""

    def solve(*args, **kwargs):
        out = []
        for t in orig(*args, **kwargs):
            (i, j, n, _k), vec = t.canonical_items()[0]
            out.append(t + IntertwinerTable(t.w1, t.w2, t.w3, {(i, j, n + Fraction(1, 2), 0): vec}))
        return out

    return solve


def _freshmans_binomial(mp, tmp_path):
    """The one image builder of x -> e^zeta x expands (lg(x) + zeta)^m as
    lg(x)^m + zeta^m, seen by the series route and the table route alike."""

    def image(x, zeta, q, n, m):
        c = substitution.root_of_unity(q * n.re)
        return [(m - j, c * zeta**j) for j in sorted({0, m})]

    for owner in (substitution, intertwiner):
        mp.setattr(owner, "_scaled_image", image)


def _wrong_inverse(mp, tmp_path):
    """ExactMatrix.inverse is off by one in entry [0][0]; the Vandermonde
    cache starts empty so that it sees the defect."""
    orig = ExactMatrix.inverse

    def inverse(self):
        rows = [list(row) for row in orig(self).entries]
        rows[0][0] = rows[0][0] + 1
        return ExactMatrix(rows)

    mp.setattr(ExactMatrix, "inverse", inverse)
    mp.setattr(combinatorics, "_vandermonde_rows", lru_cache(maxsize=16)(combinatorics._vandermonde_rows.__wrapped__))


def _wrong_pascal_entry(mp, tmp_path):
    """math.comb, as the Pascal pair reads it, is off by one at C(2, 1)."""

    class BadMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def comb(n, k):
            return math.comb(n, k) + ((n, k) == (2, 1))

    mp.setattr(combinatorics, "math", BadMath())


def _epsilon_table_mode(orig):
    def instance():
        table, vt = orig()
        modes = dict(table.modes)
        modes[(1, 1, Exponent(-1), 0)] = table.w3.basis_vector(0)
        return IntertwinerTable(table.w1, table.w2, table.w3, modes), vt

    return instance


def _vacuum_in_mode_zero(orig):
    def vertex(w1, w2, w3):
        mods = {1: w1, 2: w2, 3: w3}
        return VertexTable(w1, w2, w3, [Exponent(0)], {(s, 0, 0): ExactMatrix.identity(m.dim) for s, m in mods.items()})

    return vertex


def _loader_drops_last_mode(mp, tmp_path):
    orig = jsonio._KIND_LOADERS["intertwiner"]

    def load(data):
        t = orig(data)
        return IntertwinerTable(t.w1, t.w2, t.w3, dict(t.canonical_items()[:-1]))

    mp.setitem(jsonio._KIND_LOADERS, "intertwiner", load)


def _table_file(tmp_path, table: IntertwinerTable) -> dict:
    path = tmp_path / "table.json"
    path.write_text(dump_object(table))
    return {"file": str(path)}


def _honest_with(change):
    """`check intertwiner` on the full-axiom fixture with ``change(modes, key)``
    for the key of its first mode."""

    def defect(mp, tmp_path):
        t = honest_fixture_table()
        modes = dict(t.modes)
        change(modes, t.canonical_items()[0][0])
        return _table_file(tmp_path, IntertwinerTable(t.w1, t.w2, t.w3, modes))

    return defect


def _double_mode(modes, key):
    modes[key] = modes[key].scale(2)


def _copy_mode_to_next_exponent(modes, key):
    i, j, n, k = key
    modes[(i, j, n + 1, k)] = modes[key]


def _wrong_degree(mp, tmp_path):
    z = GradingGroup(1)
    w1 = catalog.jordan_module("W1", 0, size=1, degrees=[[1]], group=z)
    w2 = catalog.jordan_module("W2", 0, size=1, group=z)
    w3 = catalog.jordan_module("W3", 0, size=1, group=z)
    return _table_file(tmp_path, IntertwinerTable(w1, w2, w3, {(0, 0, -1, 0): w3.basis_vector(0)}))


def _minus_to_plus(orig):
    return lambda f: orig(f).replace(" - ", " + ")


def _euler_minus_a_keeps_exponent_a(orig):
    return lambda f, var, a: _without(orig(f, var, a), lambda m: m.exponent(var) != a)


def _d_dx_adds_its_input(orig):  # linear, but not a derivation
    return lambda self, v, r=0: orig(self, v, r) + self


def _exp_diffop_adds_its_input(orig):  # e^(yT) f + f at order >= 1: not multiplicative
    return lambda self, y, p, v, order: orig(self, y, p, v, order) + (self if order else LogSeries.zero(self.space))


def _d_dx_skips_last_term(orig):  # not linear
    return lambda self, v, r=0: orig(LogSeries(self.space, dict(self.sorted_items()[:-1]), self.trunc), v, r)


def _third_delta_negated(orig):
    def delta_terms(a, b):
        first, second, third = orig(a, b)
        return first, second, third and (third[0], -third[1])

    return delta_terms


def _dual_reads_y_at_x(orig):
    """a_r reads each mode n of Y(v, .) as -n - 2: its exponent map loses the x -> x^(-1) step."""

    def a_r(t, r):
        read = IntertwinerTable(t.w1, t.w2, t.w3, t.modes)
        read.mode_map = lambda v1, v2: {(-n - 2, k): vec for (n, k), vec in t.mode_map(v1, v2).items()}
        return orig(read, r)

    return a_r


def _log_slices_from_one(orig):
    return lambda t, which: orig(t, which)[1:] if which == "by_logpower" else orig(t, which)


def _flow_drops_top_order(orig):
    def flow(f, x, y, order, e):
        return _without(orig(f, x, y, order, e), lambda m: m.exponent(y) == order)

    return flow


# family -> (suite, defect)
AUDIT = {
    # scalars
    "field-axioms-random": ("scalars", _wrap(ExactScalar, "inverse", lambda orig: lambda self: self)),
    "root-of-unity-homomorphism": ("scalars", _wrap(checks, "root_of_unity", lambda orig: lambda q: orig(q % 1))),
    "binomial-pascal-rule": ("scalars", _wrap(checks, "binom_general", lambda orig: lambda m, k: orig(m, k) * k)),
    "pi-transcendence-roundtrip": ("scalars", _wrap(checks, "scalar_str", lambda orig: lambda s: orig(s).replace("Pi^2", "Pi"))),
    # series: d_dx or exp_diffop accumulates onto its input, or d_dx skips the last term
    "leibniz-rule": ("series", _wrap(LogSeries, "d_dx", _d_dx_adds_its_input)),
    "derivative-linearity": ("series", _wrap(LogSeries, "d_dx", _d_dx_skips_last_term)),
    "log-of-exp": ("series", _wrap(checks, "series_log1p", lambda orig: lambda h, v, order: orig(-h, v, order).scale(-1))),
    "exp-derivation-multiplicative": ("series", _wrap(LogSeries, "exp_diffop", _exp_diffop_adds_its_input)),
    "integral-scale-identity": ("series", _wrap(
        checks, "subst_scaled_exp", lambda orig: lambda f, x, zeta: orig(f, x, zeta.divided_by_rational(2))
    )),
    # the formal theorems: the flow loses its top y-order
    "taylor-sample": ("taylor", _wrap(substitution, "_flow", _flow_drops_top_order)),
    "scaling-sample": ("scaling", _wrap(substitution, "_flow", _flow_drops_top_order)),
    "yx-substitution-differs": ("taylor-negative", _wrap(
        checks, "subst_x_plus_y", lambda orig: lambda f, x, y, order: substitution._flow(f, x, y, order, 0)
    )),
    # combinatorics
    "comb": ("comb", _wrap(combinatorics, "_compositions", lambda orig: lambda total, parts: (
        c for c in orig(total, parts) if not c or c[0] != total - parts + 1
    ))),
    "lubell": ("lubell", _wrap(checks, "lubell_sides", lambda orig: lambda n, j: (
        orig(n, j)[0], orig(n, j)[1] + (Fraction(1, n**j) if j > 1 else 0)
    ))),
    "lubell-refinement": ("lubell", _wrap(checks, "lubell_refinement", lambda orig: lambda n, j: [
        (a, b + (k == n - 1)) for k, (a, b) in enumerate(orig(n, j))
    ])),
    "pascal": ("matrices", _wrong_pascal_entry),
    "vandermonde": ("matrices", _wrong_inverse),
    "multinomial": ("multinomial", _wrap(checks, "_compositions", lambda orig: lambda t, s: list(orig(t, s))[:-1])),
    # the Euler ODE
    "ode-sample": ("ode", _wrap(
        intertwiner, "euler_minus_a", lambda orig: lambda f, var, a: f.d_dx(var, 1) + f.scale(a.as_scalar())
    )),
    "ode-perturbed": ("ode", _wrap(checks, "euler_minus_a", _euler_minus_a_keeps_exponent_a)),
    "truncated-exponential-escapes": ("ode", _wrap(checks, "euler_minus_a", _euler_minus_a_keeps_exponent_a)),
    # sl(2) modules: a broken bracket, an off-weight L(0) entry, a shifted x^L(0)
    "validate": ("sl2", _seeded_modules(_scale_l1)),
    "xL0_Lj": ("sl2", _seeded_modules(_bump_l0)),
    "xL0_expLj": ("sl2", _seeded_modules(_bump_l0)),
    "expLm1": ("sl2", _seeded_modules(_scale_l1)),
    "expL0": ("sl2", _seeded_modules(_bump_l0)),
    "expL1": ("sl2", _seeded_modules(_scale_l1)),
    "inverse_rel": ("sl2", _seeded_modules(_bump_l0)),
    "derivative-of-x-L0": ("sl2", _seeded_modules(_bump_l0)),
    "x-L0-solves-euler-ode": ("sl2", _wrap(
        checks, "x_pm_L0", lambda orig: lambda mod, vec, sign, var="x": orig(mod, vec, sign, var) * LogSeries.variable(var)
    )),
    # fusion suite
    "log-depths": ("fusion", _wrap(checks, "solve_fusion_space", lambda orig: lambda *a, **kw: orig(*a, **kw, max_log=2))),
    "euler-axiom": ("fusion", _wrap(checks, "solve_fusion_space", _solver_plants_wrong_weight)),
    "weights-axiom": ("fusion", _wrap(checks, "solve_fusion_space", _solver_plants_wrong_weight)),
    "omega-involution": ("fusion", _wrap(checks, "omega_r", lambda orig: lambda t, r: orig(t, r + 1))),
    "dual-involution": ("fusion", _wrap(checks, "a_r", _dual_reads_y_at_x)),
    "omega-composition": ("fusion", _freshmans_binomial),
    "dual-composition": ("fusion", _wrap(checks, "shift_s1s2s3", lambda orig: lambda t, s1, s2, s3: orig(t, s2, s1, s3))),
    "mode-recovery": ("fusion", _wrap(
        MobiusModule, "weight_projection", lambda orig: lambda self, vec, w: orig(self, vec, w).scale(2)
    )),
    "weight-formulas": ("fusion", _wrap(MobiusModule, "nilpotency_index", lambda orig: lambda self: orig(self) - 1)),
    "omega-preserves-euler": ("fusion", _freshmans_binomial),
    "formal-invariance": ("fusion", _freshmans_binomial),
    "power-congruence": ("fusion", _wrap(checks, "solve_fusion_space", _solver_plants_half_step)),
    "congruence-partition": ("fusion", _wrap(checks, "decompose", lambda orig: lambda t, which: orig(t, which)[:-1])),
    "logpower-slices": ("fusion", _wrap(intertwiner, "decompose", _log_slices_from_one)),
    "xt-zero-beyond-depth": ("fusion", _wrap(checks, "x_t", lambda orig: lambda t, tt: orig(t, min(tt, t.max_log_power())))),
    "xt-identity-at-zero": ("fusion", _wrap(checks, "x_t", lambda orig: lambda t, tt: orig(t, tt + 1))),
    "xt-vandermonde-route": ("fusion", _wrong_inverse),
    # Jacobi suite
    "delta-three-term": ("jacobi", _wrap(intertwiner, "_delta_terms", _third_delta_negated)),
    "vertex-operator-is-intertwiner": ("jacobi", _wrap(
        catalog, "trivial_module", lambda orig: lambda name="V", weight=0: orig(name, weight + 1)
    )),
    "trivial-vacuum-instance": ("jacobi", _wrap(checks, "identity_vertex_table", _vacuum_in_mode_zero)),
    "nilpotent-multiplication-instance": ("jacobi", _wrap(checks, "epsilon_instance", _epsilon_table_mode)),
    "solver-dimension": ("jacobi", _wrap(intertwiner, "nullspace", lambda orig: lambda rows, n: orig(rows, n)[:-1])),
    "solver-tables-pass": ("jacobi", _wrap(intertwiner, "_delta_terms", _third_delta_negated)),
    "perturbation-detected": ("jacobi", _wrap(
        intertwiner, "_jacobi_window", lambda orig: lambda exps, vt, v: (range(0), range(0), range(0))
    )),
    # parser fuzz and file round trips
    "fuzz": ("fuzz", _wrap(checks, "series_str", _minus_to_plus)),
    "byte-roundtrip": ("file-roundtrip", _loader_drops_last_mode),
    # `check intertwiner` on a table file
    "L": ("intertwiner", _honest_with(_double_mode)),
    "sl2-bracket": ("intertwiner", _honest_with(_double_mode)),
    "sl2-bracket-alt": ("intertwiner", _honest_with(_double_mode)),
    "euler-identity": ("intertwiner", _honest_with(_copy_mode_to_next_exponent)),
    "grading-compatibility": ("intertwiner", _wrong_degree),
    "generalized-weight-purity": ("intertwiner", _honest_with(_copy_mode_to_next_exponent)),
}


def _families(rep) -> set[str]:
    return {family(c.check_id) for c in rep.checks}


def test_every_family_is_audited(tmp_path):
    """The families that `check all --quick` and `check intertwiner` emit are
    exactly the audited ones, and both pass on undamaged code and data."""
    everything = checks.check_all(0, quick=True)
    table = _run("intertwiner", **_table_file(tmp_path, honest_fixture_table()))
    assert everything.passed and table.passed
    assert _families(everything) | _families(table) == set(AUDIT)


@pytest.mark.parametrize("fam", sorted(AUDIT))
def test_planted_defect_fails_the_family(fam, monkeypatch, tmp_path):
    suite, defect = AUDIT[fam]
    rep = _run(suite, **(defect(monkeypatch, tmp_path) or {}))
    assert fam in {family(c.check_id) for c in rep.failures}, rep.to_text()[:2000]


def test_non_congruent_mode_fails_mode_recovery(monkeypatch, capsys):
    """A recovery expression that keeps a power of x fails its mode-recovery row,
    naming (i, j, n) and the residual monomials, instead of raising out of the suite."""
    monkeypatch.setattr(checks, "solve_fusion_space", _solver_plants_half_step(checks.solve_fusion_space))
    assert cli.main(["check", "fusion"]) == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines() if line.startswith("  FAIL")}
    residual = "recovery expression failed to collapse: residual monomials [Monomial(x^(-1/2))"
    assert all(residual in rows[f"mode-recovery-{idx}"] for idx in range(3))
    assert rows["mode-recovery-0"].startswith("  FAIL  mode-recovery-0  [mode(0,0,Exponent(-1)): ")
