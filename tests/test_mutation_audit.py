"""Every row family of `check all --quick` and of `check intertwiner` can fail.

A family is a row id cut at its first bracket, less a trailing ``-N`` index
(``L(-1)-derivative(0,1)`` is family ``L``).  ``AUDIT`` gives each family the
suite that owns it and one planted defect: bad data, or one library function
replaced through monkeypatch.  The defect runs that suite alone at its
`--quick` sizes and must turn at least one row of the family to FAIL; a
raised exception does not count.  A family without an entry fails
`test_every_family_is_audited`, so a new row brings its defect with it.

Each family can also fail alone, as far as that is possible: for every pair of
families of one suite, some defect (``AUDIT``'s or one of ``SPLITTERS``) fails
one and passes the other, or ``IMPLIED`` names the tier-1 test of an
implication between them.  Each distinct defect runs once, and both tests read
its report.

The five row families inside each ``weight-formulas-N`` row are flipped one by
one by ``test_every_formula_can_fail`` in test_intertwiner.py.
"""

from __future__ import annotations

import inspect
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from logcalc import catalog, checks, cli, combinatorics, intertwiner, jsonio, mobius, substitution
from logcalc.checks import SUITES, honest_fixture_table
from logcalc.intertwiner import IntertwinerTable, VertexTable
from logcalc.jsonio import dump_object
from logcalc.matrix import ExactMatrix
from logcalc.mobius import GradingGroup, MobiusModule
from logcalc.scalars import ExactScalar, Exponent
from logcalc.series import LogSeries, Monomial


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
    """The closed-form Vandermonde inverse is off by one in entry [0][0]: the
    Lagrange polynomial of the node 0 gains 1 in its constant coefficient."""
    orig = combinatorics._lagrange

    def lagrange(p, S):
        num, den = orig(p, S)
        return ([num[0] + den, *num[1:]] if p == 0 else num), den

    mp.setattr(combinatorics, "_lagrange", lagrange)


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


def _graded_by_index(orig):
    """The seeded modules graded over Z by basis index: L(+-1) change the degree, and no conjugation
    identity reads degrees."""

    def seeded(name, seed, *args):
        m = orig(name, seed, *args)
        return MobiusModule(m.name, m.weights, m.L(-1), m.L(0), m.L(1), [[i] for i in range(m.dim)], GradingGroup(1))

    return seeded


def _exp_doubles_l1(orig):
    """exp_L computes e^(2c L(1)) for e^(c L(1)), which holds wherever both sides exponentiate L(1)."""
    return lambda module, j, coeff, f, order=None, var="x": orig(
        module, j, coeff.scale(2) if j == 1 else coeff, f, order, var
    )


def _apply_op_reads_only_x(mp, tmp_path):
    """LogSeries.apply_op multiplies op(vec) by the x part of each monomial only, which is all of it on a
    series in x alone."""

    def apply_op(self, op, space):
        out = LogSeries.zero(space, self.trunc)
        for m, vec in self.terms.items():
            out = out + op(vec) * LogSeries.monomial(Monomial.var("x", m.exponent("x"), m.log_power("x")))
        return out

    mp.setattr(LogSeries, "apply_op", apply_op)


def _even_turns_freshmans_binomial(orig):
    """The image builder of x -> e^zeta x expands (lg(x) + zeta)^m as lg(x)^m + zeta^m when zeta is a nonzero
    even multiple of Pi: Omega_r, which scales by odd multiples, never sees it."""

    def image(x, zeta, q, n, m):
        if q == 0 or q % 2:
            return orig(x, zeta, q, n, m)
        c = substitution.root_of_unity(q * n.re)
        return [(m - j, c * zeta**j) for j in sorted({0, m})]

    return image


def _solver_bumps_every_unknown(orig):  # each solved basis vector gets 1 added to every coefficient
    return lambda rows, n: [[c + 1 for c in v] for v in orig(rows, n)]


def _solver_bumps_last_unknown(orig):  # each solved basis vector gets 1 added to its last coefficient
    return lambda rows, n: [v[:-1] + [v[-1] + 1] for v in orig(rows, n)]


def _euler_minus_a_drops_high_logs(orig):
    return lambda f, var, a: _without(orig(f, var, a), lambda m: m.log_power(var) >= 3)


# one object per distinct defect: a defect that several families share runs once
_BUMP_L0 = _seeded_modules(_bump_l0)
_SCALE_L1 = _seeded_modules(_scale_l1)
_WRONG_WEIGHT = _wrap(checks, "solve_fusion_space", _solver_plants_wrong_weight)
_THIRD_DELTA = _wrap(intertwiner, "_delta_terms", _third_delta_negated)
_ODE_KEEPS_A = _wrap(checks, "euler_minus_a", _euler_minus_a_keeps_exponent_a)
_FLOW_DROPS_TOP = _wrap(substitution, "_flow", _flow_drops_top_order)
_HONEST_DOUBLED = _honest_with(_double_mode)
_HONEST_COPIED = _honest_with(_copy_mode_to_next_exponent)
# an extra mode (1, 1, -1, 0) -> e_1 in every solved table, which the basis pair (1, 1) cannot see
_SOLVER_BUMPS_LAST = _wrap(intertwiner, "nullspace", _solver_bumps_last_unknown)

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
    "taylor-sample": ("taylor", _FLOW_DROPS_TOP),
    "scaling-sample": ("scaling", _FLOW_DROPS_TOP),
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
    "ode-perturbed": ("ode", _ODE_KEEPS_A),
    "truncated-exponential-escapes": ("ode", _ODE_KEEPS_A),
    # sl(2) modules: a broken bracket, an off-weight L(0) entry, a shifted x^L(0)
    "validate": ("sl2", _SCALE_L1),
    "xL0_Lj": ("sl2", _BUMP_L0),
    "xL0_expLj": ("sl2", _BUMP_L0),
    "expLm1": ("sl2", _SCALE_L1),
    "expL0": ("sl2", _BUMP_L0),
    "expL1": ("sl2", _SCALE_L1),
    "inverse_rel": ("sl2", _BUMP_L0),
    "derivative-of-x-L0": ("sl2", _BUMP_L0),
    "x-L0-solves-euler-ode": ("sl2", _wrap(
        checks, "x_pm_L0", lambda orig: lambda mod, vec, sign, var="x": orig(mod, vec, sign, var) * LogSeries.variable(var)
    )),
    # fusion suite
    "log-depths": ("fusion", _wrap(checks, "solve_fusion_space", lambda orig: lambda *a, **kw: orig(*a, **kw, max_log=2))),
    "euler-axiom": ("fusion", _WRONG_WEIGHT),
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
    "delta-three-term": ("jacobi", _THIRD_DELTA),
    "vertex-operator-is-intertwiner": ("jacobi", _wrap(
        catalog, "trivial_module", lambda orig: lambda name="V", weight=0: orig(name, weight + 1)
    )),
    "trivial-vacuum-instance": ("jacobi", _wrap(checks, "identity_vertex_table", _vacuum_in_mode_zero)),
    "nilpotent-multiplication-instance": ("jacobi", _wrap(checks, "epsilon_instance", _epsilon_table_mode)),
    "solver-dimension": ("jacobi", _wrap(intertwiner, "nullspace", lambda orig: lambda rows, n: orig(rows, n)[:-1])),
    "solver-tables-pass": ("jacobi", _THIRD_DELTA),
    "perturbation-detected": ("jacobi", _wrap(
        intertwiner, "_jacobi_window", lambda orig: lambda exps, vt, v: (range(0), range(0), range(0))
    )),
    # parser fuzz and file round trips
    "fuzz": ("fuzz", _wrap(checks, "series_str", _minus_to_plus)),
    "byte-roundtrip": ("file-roundtrip", _loader_drops_last_mode),
    # `check intertwiner` on a table file
    "L": ("intertwiner", _HONEST_DOUBLED),
    "sl2-bracket": ("intertwiner", _HONEST_DOUBLED),
    "euler-identity": ("intertwiner", _HONEST_COPIED),
    "grading-compatibility": ("intertwiner", _wrong_degree),
    "generalized-weight-purity": ("intertwiner", _HONEST_COPIED),
}

# (suite, defect) beyond AUDIT's, for families that AUDIT's defects only fail together; each comment
# names the families of its suite that the defect fails
SPLITTERS = [
    ("sl2", _wrap(catalog, "seeded_semisimple_module", _graded_by_index)),  # validate
    ("sl2", _wrap(mobius, "exp_L", _exp_doubles_l1)),  # expL1
    ("sl2", _apply_op_reads_only_x),  # xL0_expLj
    ("sl2", _wrap(mobius, "series_exp", lambda orig: lambda f, v, order: orig(f, v, order).scale(2))),  # expL0
    ("sl2", _wrap(mobius, "e_aL0", lambda orig: lambda module, vec, a: vec)),  # inverse_rel
    ("jacobi", _wrap(intertwiner, "nullspace", _solver_bumps_every_unknown)),  # solver-tables-pass
    ("ode", _wrap(checks, "euler_minus_a", _euler_minus_a_drops_high_logs)),  # truncated-exponential-escapes
    # omega-composition, formal-invariance and xt-vandermonde-route
    ("fusion", _wrap(intertwiner, "_scaled_image", _even_turns_freshmans_binomial)),
]

# (family, a family it implies) -> the tier-1 test of the implication, which no defect can split one
# way.  An implied family that no suite emits was dropped from its suite for the implication.
IMPLIED = {
    ("euler-axiom", "weights-axiom"): "test_intertwiner.py::TestImplications::test_a_wrong_weight_component_fails_euler",
    ("euler-identity", "generalized-weight-purity"): "test_intertwiner.py::TestImplications::test_a_wrong_weight_component_fails_euler",
}


@pytest.fixture(scope="module")
def run_defect(tmp_path_factory):
    """``run_defect(suite, defect)`` is the report of ``suite`` at its `--quick` sizes under ``defect``,
    run once per distinct (suite, defect)."""
    reports = {}

    def run(suite: str, defect):
        if (suite, defect) not in reports:
            with pytest.MonkeyPatch.context() as mp:
                reports[(suite, defect)] = _run(suite, **(defect(mp, tmp_path_factory.mktemp("defect")) or {}))
        return reports[(suite, defect)]

    return run


def _families(rep) -> set[str]:
    return {family(c.check_id) for c in rep.checks}


def _failing(rep) -> set[str]:
    return {family(c.check_id) for c in rep.failures}


def test_every_family_is_audited(tmp_path):
    """The families that `check all --quick` and `check intertwiner` emit are
    exactly the audited ones, and both pass on undamaged code and data."""
    everything = checks.check_all(0, quick=True)
    table = _run("intertwiner", **_table_file(tmp_path, honest_fixture_table()))
    assert everything.passed and table.passed
    assert _families(everything) | _families(table) == set(AUDIT)


@pytest.mark.parametrize("fam", sorted(AUDIT))
def test_planted_defect_fails_the_family(fam, run_defect):
    rep = run_defect(*AUDIT[fam])
    assert fam in _failing(rep), rep.to_text()[:2000]


@pytest.mark.parametrize("suite", sorted({suite for suite, _ in AUDIT.values()}))
def test_every_family_pair_is_split_or_implied(suite, run_defect):
    """For each pair of one suite's families, some defect fails one and passes the other, or
    :data:`IMPLIED` names the tested implication between them."""
    fams = sorted(fam for fam, (s, _) in AUDIT.items() if s == suite)
    defects = dict.fromkeys([AUDIT[fam][1] for fam in fams] + [d for s, d in SPLITTERS if s == suite])
    fail_sets = [_failing(run_defect(suite, d)) for d in defects]
    unsplit = [
        (a, b) for a, b in itertools.combinations(fams, 2)
        if all((a in fails) == (b in fails) for fails in fail_sets) and not {(a, b), (b, a)} & set(IMPLIED)
    ]
    assert not unsplit


def test_solver_tables_are_checked_at_every_basis_pair(run_defect):
    """Solved tables that are wrong only away from the basis pair (1, 1) fail `solver-tables-pass`."""
    assert _failing(run_defect("jacobi", _SOLVER_BUMPS_LAST)) == {"solver-tables-pass"}


def test_implications_name_their_tests():
    here = Path(__file__).parent
    for (fam, implied), ref in IMPLIED.items():
        path, *_, name = ref.split("::")
        assert f"def {name}(" in (here / path).read_text(), ref
        # the implied family is audited in the same suite, or no suite emits it any more
        assert implied not in AUDIT or AUDIT[implied][0] == AUDIT[fam][0]


def test_non_congruent_mode_fails_mode_recovery(monkeypatch, capsys):
    """A recovery expression that keeps a power of x fails its mode-recovery row,
    naming (i, j, n) and the residual monomials, instead of raising out of the suite."""
    monkeypatch.setattr(checks, "solve_fusion_space", _solver_plants_half_step(checks.solve_fusion_space))
    assert cli.main(["check", "fusion"]) == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines() if line.startswith("  FAIL")}
    residual = "recovery expression failed to collapse: residual monomials [Monomial(x^(-1/2))"
    assert all(residual in rows[f"mode-recovery-{idx}"] for idx in range(3))
    assert rows["mode-recovery-0"].startswith("  FAIL  mode-recovery-0  [mode(0,0,Exponent(-1)): ")
