"""The Jacobi identity's per-mode rows against the unit-table probe they replaced.

The reference below expands the three terms of the Jacobi identity for
whole vectors of a table (``_jacobi_defect``), on the window the checker
derives (``default_jacobi_window``), and builds the solver's rows by probing
one unit table per unknown and basis pair.  Every defect (keys and values),
every report (verdict and witness) and every solver row must agree with the
library, on random tables and random vertex tables over the epsilon, vacuum
and Jordan triples.  One difference is deliberate: the reference solver gives
each algebra vector its own window, as the checker always did, where the
solver once took vector 0's window for every vector.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc import catalog, intertwiner
from logcalc.checks import epsilon_instance, jordan_fixture_tables
from logcalc.intertwiner import (
    IntertwinerTable,
    VertexTable,
    _jacobi_defect,
    _jacobi_mode_rows,
    _jacobi_window,
    _rat_binom,
    identity_vertex_table,
    jacobi_check_window,
    solve_fusion_space,
)
from logcalc.matrix import ExactMatrix, nullspace
from logcalc.reports import Report
from logcalc.scalars import ExactScalar, Exponent, pi_scalar, root_of_unity
from logcalc.series import CoeffVector

# ---------------------------------------------------------------------------
# reference: whole-vector expansion on an explicit window


@dataclass(frozen=True)
class JacobiWindow:
    x0: tuple[int, int]
    x1: tuple[int, int]
    x2_offset: tuple[int, int]
    log_max: int


def default_jacobi_window(t, vt, v):
    exps = [int(n.re) if n.re.denominator == 1 else 0 for n in t.exponents()] or [0]
    p_all = (vt.support(1, v) or [0]) + (vt.support(2, v) or [0]) + (vt.support(3, v) or [0])
    spread = max(p_all) - min(p_all) + max(exps) - min(exps) + 4
    a = (-spread - max(p_all) - 2, spread + 2)
    b = (-spread - 2, spread + max(p_all) + 2)
    return JacobiWindow(a, b, (-spread, spread), t.max_log_power() + 1)


def reference_defect(t, vt, v, v1, v2, window):
    x0 = range(window.x0[0], window.x0[1] + 1)
    x1 = range(window.x1[0], window.x1[1] + 1)
    product, reverse, iterate = {}, {}, {}

    def reach(term, a, b, s, q, k, mode, coeff):
        if k <= window.log_max and coeff and window.x2_offset[0] <= s + math.floor(-q.re) <= window.x2_offset[1]:
            key = (a, b, s - q, k)
            cur = term.get(key)
            term[key] = mode.scale(coeff) if cur is None else cur + mode.scale(coeff)

    # product: x0^-1 delta((x1-x2)/x0) Y3(v,x1) Y(w1,x2) w2
    base_modes = t.mode_map(v1, v2)
    for p in vt.support(3, v):
        for (q, k), mode in base_modes.items():
            moved = vt.modules[3].apply_matrix(vt.matrix(3, v, p), mode)
            for a in x0:
                n = -a - 1
                for b in x1:
                    m = n - b - 1 - p
                    if m >= 0:
                        reach(product, a, b, m - 1, q, k, moved, _rat_binom(n, m) * Fraction((-1) ** m))
    # reversed product: x0^-1 delta((x2-x1)/(-x0)) Y(w1,x2) Y2(v,x1) w2
    for p in vt.support(2, v):
        for (q, k), mode in t.mode_map(v1, vt.modules[2].apply_matrix(vt.matrix(2, v, p), v2)).items():
            for a in x0:
                n = -a - 1
                for b in x1:
                    m = b + p + 1
                    if m >= 0:
                        reach(reverse, a, b, n - m - 1, q, k, mode, Fraction((-1) ** (n + m)) * _rat_binom(n, m))
    # iterate: x2^-1 delta((x1-x0)/x2) Y(Y1(v,x0)w1, x2) w2
    for p in vt.support(1, v):
        for (q, k), mode in t.mode_map(vt.modules[1].apply_matrix(vt.matrix(1, v, p), v1), v2).items():
            for a in x0:
                m = a + p + 1
                if m < 0:
                    continue
                for b in x1:
                    nn = b + m
                    reach(iterate, a, b, -nn - 2, q, k, mode, _rat_binom(nn, m) * Fraction((-1) ** m))
    zero = CoeffVector.zero(t.w3.coeff_space)
    out = {}
    for key in {**product, **reverse, **iterate}:
        d = product.get(key, zero) + -reverse.get(key, zero) + -iterate.get(key, zero)
        if not d.is_zero():
            out[key] = d
    return out


def reference_check(t, vt, v, v1, v2):
    rep = Report(f"jacobi{t.type_signature()}")
    window = default_jacobi_window(t, vt, v)
    defect = reference_defect(t, vt, v, v1, v2, window)
    witness = None
    if defect:
        classes = len({(n.re % 1, n.im) for n in t.exponents()}) or 1
        checked = classes * (window.log_max + 1)
        for lo, hi in (window.x0, window.x1, window.x2_offset):
            checked *= hi - lo + 1
        a, b, c, k = min(defect, key=lambda p: (p[0], p[1], p[2].sort_key(), p[3]))
        first = f"x0^{a} x1^{b} x2^({c!r}) lg^{k}: {defect[(a, b, c, k)]!r}"
        witness = f"{len(defect)}/{checked} coefficients differ; first: {first}"
    rep.add(f"jacobi-window(v={v})", not defect, witness)
    return rep


def _unknowns(w1, w2, w3, exps, kmax, enforce_weights):
    out = []
    for i in range(w1.dim):
        for j in range(w2.dim):
            for n in exps:
                want_wt = w1.weights[i] + w2.weights[j] - n - 1
                for b in range(w3.dim):
                    if enforce_weights and w3.weights[b] != want_wt:
                        continue
                    if w3.degrees[b] != w3.group.add(w1.degrees[i], w2.degrees[j]):
                        continue
                    out.extend((i, j, n, k, b) for k in range(kmax))
    return out


def reference_rows(w1, w2, w3, vertex, unknowns, shared_window=False):
    """The Jacobi rows of the solver: one unit table per unknown, probed on
    every basis pair and algebra vector, on that vector's envelope window (on
    vector 0's for every vector if ``shared_window``)."""
    envelope = IntertwinerTable(
        w1, w2, w3, {(i, j, n, k): CoeffVector.basis(w3.coeff_space, b) for (i, j, n, k, b) in unknowns}
    )
    windows = [
        default_jacobi_window(envelope, vertex, 0 if shared_window else v) for v in range(len(vertex.vector_weights))
    ]
    rows = {}
    for col, (i0, j0, n, k, b) in enumerate(unknowns):
        table = IntertwinerTable(w1, w2, w3, {(i0, j0, n, k): CoeffVector.basis(w3.coeff_space, b)})
        for v, jw in enumerate(windows):
            for i in range(w1.dim):
                for j in range(w2.dim):
                    d = reference_defect(table, vertex, v, w1.basis_vector(i), w2.basis_vector(j), jw)
                    for point, vec in d.items():
                        for bb, c in vec.components.items():
                            rows.setdefault(("jacobi", v, i, j, *point, bb), {})[col] = c
    return rows


def _modes(w3, unknowns, coeffs):
    modes = {}
    for (i, j, n, k, b), c in zip(unknowns, coeffs):
        if not c.is_zero():
            modes[(i, j, n, k)] = modes.get((i, j, n, k), CoeffVector.zero(w3.coeff_space)) + CoeffVector(
                w3.coeff_space, {b: c}
            )
    return modes


# ---------------------------------------------------------------------------
# random draws


def _triples():
    mult, evt = epsilon_instance()
    v = catalog.trivial_module("V")
    w = catalog.jordan_module("W", Fraction(1, 2), size=2)
    out = {"epsilon": (mult.w1, mult.w2, mult.w3), "vacuum": (v, w, w)}
    for idx, t in enumerate(jordan_fixture_tables()):
        out[f"jordan{idx}"] = (t.w1, t.w2, t.w3)
    return out


TRIPLES = _triples()
EXPONENTS = (-2, -1, 0, 1, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6))


def _scalar(rng: random.Random) -> ExactScalar:
    q = Fraction(rng.randint(-4, 4) or 1, rng.choice((1, 2, 3)))
    kind = rng.randrange(3)
    if kind == 0:
        return ExactScalar.from_rational(q)
    if kind == 1:
        return root_of_unity(Fraction(rng.randint(1, 23), 12)) * q
    return pi_scalar(q) + 1


def _vector(rng, space, density=0.6):
    return CoeffVector(space, {b: _scalar(rng) for b in range(space.dim) if rng.random() < density})


def _table(rng, w1, w2, w3):
    modes = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randrange(w1.dim), rng.randrange(w2.dim), Exponent(rng.choice(EXPONENTS)), rng.randint(0, 2))
        modes[key] = _vector(rng, w3.coeff_space)
    return IntertwinerTable(w1, w2, w3, modes)


def _vertex(rng, w1, w2, w3):
    count = rng.randint(1, 2)
    modes = {}
    for slot, mod in ((1, w1), (2, w2), (3, w3)):
        for v in range(count):
            for p in rng.sample(range(-3, 2), rng.randint(0, 2)):
                modes[(slot, v, p)] = ExactMatrix(
                    [[rng.choice((0, 0, 1, -1, 2, Fraction(1, 2))) for _ in range(mod.dim)] for _ in range(mod.dim)]
                )
    return VertexTable(w1, w2, w3, [Exponent(0)] * count, modes)


def _draw(seed, kind):
    rng = random.Random(seed)
    w1, w2, w3 = TRIPLES[kind]
    t = _table(rng, w1, w2, w3)
    vt = _vertex(rng, w1, w2, w3)
    v = rng.randrange(len(vt.vector_weights))
    if rng.random() < 0.5:
        v1, v2 = w1.basis_vector(rng.randrange(w1.dim)), w2.basis_vector(rng.randrange(w2.dim))
    else:
        v1, v2 = _vector(rng, w1.coeff_space, 0.8), _vector(rng, w2.coeff_space, 0.8)
    return t, vt, v, v1, v2


# ---------------------------------------------------------------------------
# the comparisons


def _as_exponent(key, at):
    """A library key with its x2 exponent, the lattice ints L Re c and L Im c at
    ``at`` and ``at + 1``, read as one Exponent, as the reference keys it."""
    return (*key[:at], Exponent._lattice(key[at], key[at + 1]), *key[at + 2:])


class TestAgainstReference:
    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(sorted(TRIPLES)))
    @settings(max_examples=80, deadline=None)
    def test_defect_and_report_match(self, seed, kind):
        t, vt, v, v1, v2 = _draw(seed, kind)
        ref_window = default_jacobi_window(t, vt, v)
        window = _jacobi_window(t.exponents(), vt, v)
        assert [(r[0], r[-1]) for r in window] == [ref_window.x0, ref_window.x1, ref_window.x2_offset]
        want = reference_defect(t, vt, v, v1, v2, ref_window)
        got = _jacobi_defect(t, vt, v, v1, v2, window)
        assert {_as_exponent(point, 2): vec for point, vec in got.items()} == want
        assert jacobi_check_window(t, vt, v, v1, v2).to_json() == reference_check(t, vt, v, v1, v2).to_json()

    @given(seed=st.integers(0, 2**32), kind=st.sampled_from(sorted(TRIPLES)))
    @settings(max_examples=30, deadline=None)
    def test_mode_rows_match_unit_tables(self, seed, kind):
        rng = random.Random(seed)
        w1, w2, w3 = TRIPLES[kind]
        vt = _vertex(rng, w1, w2, w3)
        exps = [Exponent(n) for n in rng.sample(EXPONENTS, rng.randint(1, 2))]
        kmax = rng.randint(1, 2)
        unknowns = _unknowns(w1, w2, w3, exps, kmax, enforce_weights=False)
        unknowns = rng.sample(unknowns, min(len(unknowns), 6))
        want = reference_rows(w1, w2, w3, vt, unknowns)
        used = dict.fromkeys(n for (_, _, n, _, _) in unknowns)
        got = {}
        for col, (i0, j0, n, k, b) in enumerate(unknowns):
            for v in range(len(vt.vector_weights)):
                window = _jacobi_window(used, vt, v)
                for key, c in _jacobi_mode_rows(vt, v, window, i0, j0, n, k, b, range(w1.dim), range(w2.dim)).items():
                    got.setdefault(("jacobi", v, *_as_exponent(key, 4)), {})[col] = c
        assert got == want


EPSILON_SOLVES = [
    {},
    {"window": [-1, Fraction(1, 2)]},
]


class TestSolver:
    @pytest.mark.parametrize("max_log", [None, 1])
    @pytest.mark.parametrize("opts", EPSILON_SOLVES, ids=["default", "half"])
    def test_epsilon_basis_matches_reference(self, epsilon_pair, opts, max_log):
        table, vt = epsilon_pair
        w1, w2, w3 = table.w1, table.w2, table.w3
        exps = [Exponent(n) for n in opts["window"]] if "window" in opts else intertwiner.candidate_exponents(w1, w2, w3)
        kmax = max_log if max_log is not None else max(w1.dim + w2.dim + w3.dim - 2, 1)
        unknowns = _unknowns(w1, w2, w3, exps, kmax, True)
        basis = nullspace(list(reference_rows(w1, w2, w3, vt, unknowns).values()), len(unknowns))
        want = [
            IntertwinerTable(w1, w2, w3, _modes(w3, unknowns, coeffs)) for coeffs in basis
        ]
        got = solve_fusion_space(w1, w2, w3, constraints=("jacobi",), vertex=vt, max_log=max_log, **opts)
        assert got == [t for t in want if not t.is_zero()]

    def test_each_vector_gets_its_own_window(self):
        # vector 1 acts through modes -8 and 4, vector 0 only through mode -1
        v, w = catalog.trivial_module("V"), catalog.jordan_module("W", Fraction(1, 2), size=2)
        modes = {(slot, 0, -1): ExactMatrix.identity(mod.dim) for slot, mod in ((1, v), (2, w), (3, w))}
        modes[(2, 1, -8)] = ExactMatrix([[0, 1], [0, 0]])
        modes[(3, 1, 4)] = ExactMatrix([[0, 0], [1, 0]])
        vt = VertexTable(v, w, w, [Exponent(0), Exponent(0)], modes)
        sols = solve_fusion_space(v, w, w, constraints=("jacobi",), vertex=vt, window=[-1, Fraction(1, 2)], max_log=1)
        assert len(sols) == 1

        def passes(t):
            return all(
                jacobi_check_window(t, vt, vv, v.basis_vector(0), w.basis_vector(j)).passed
                for vv in (0, 1) for j in range(w.dim)
            )

        assert all(passes(t) for t in sols)
        # on vector 0's window for both vectors, one more table passes the rows
        # but fails vector 1's own check
        unknowns = _unknowns(v, w, w, [Exponent(-1), Exponent(Fraction(1, 2))], 1, True)
        rows = reference_rows(v, w, w, vt, unknowns, shared_window=True)
        shared = [IntertwinerTable(v, w, w, _modes(w, unknowns, c)) for c in nullspace(list(rows.values()), len(unknowns))]
        assert len(shared) == 2 and sum(not passes(t) for t in shared) == 1

    def test_vacuum_basis_matches_reference(self):
        v, w = catalog.trivial_module("V"), catalog.jordan_module("W", Fraction(1, 2), size=2)
        vt = identity_vertex_table(v, w, w)
        unknowns = _unknowns(v, w, w, intertwiner.candidate_exponents(v, w, w), 3, True)
        basis = nullspace(list(reference_rows(v, w, w, vt, unknowns).values()), len(unknowns))
        want = [IntertwinerTable(v, w, w, _modes(w, unknowns, coeffs)) for coeffs in basis]
        assert solve_fusion_space(v, w, w, constraints=("jacobi",), vertex=vt) == [t for t in want if not t.is_zero()]


def test_planted_sign_error_fails_the_oracle(monkeypatch, epsilon_pair):
    # the reversed product read with the iterate's sign: the oracle must see it
    table, vt = epsilon_pair
    real = intertwiner._delta_terms

    def planted(a, b):
        first, second, third = real(a, b)
        return first, None if second is None else (second[0], -second[1]), third

    monkeypatch.setattr(intertwiner, "_delta_terms", planted)
    window = _jacobi_window(table.exponents(), vt, 1)
    v1, v2 = table.w1.basis_vector(0), table.w2.basis_vector(0)
    assert not reference_defect(table, vt, 1, v1, v2, default_jacobi_window(table, vt, 1))
    assert _jacobi_defect(table, vt, 1, v1, v2, window)
