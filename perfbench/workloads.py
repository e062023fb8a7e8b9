"""The benchmark's three seeded workloads over the public API of `logcalc`.

Each workload is a fixed cyclic `pattern` of item classes, so every run
has the same mix of cheap and expensive items whatever the seed.  Each class
has a universe of `size` items; item `index` of a class is generated from
its own seeded random stream, so a golden digest recorded once per
(class, index) covers every benchmark seed.  The benchmark seed only picks
which universe items a run visits and in which order.

`Workload.run` returns an `Outcome`: whether the verdict matched the item's
known answer, and the canonical output whose digest must equal the golden
one.

Why these workloads:

* `theorems` - formal Taylor and scaling theorems at order 8 on seeded
  random log series; all scalars are rational; the work is in series,
  substitution and scalars.
* `fusion` - exact fusion-space solves on Jordan and honest sl(2) modules
  followed by axiom checks, involutions, the X_t Vandermonde route and
  windowed Jacobi checks; the work is in matrix.nullspace and the Jacobi
  probing.
* `roundtrip` - parser/printer round trips of generated expressions and
  byte-identical load/save of logcalc/1 files, about half of whose scalars
  are cyclotomic or carry Pi; nothing here touches the solver.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from logcalc import (
    catalog,
    combinatorics,
    intertwiner,
    jsonio,
    matrix,
    parser,
    printer,
    scalars,
    series,
    substitution,
)
from logcalc.checks import epsilon_instance
from logcalc.reports import Report


@dataclass(frozen=True)
class Outcome:
    ok: bool  # verdict equals the known answer
    output: str  # canonical output; its digest is compared with the golden one
    detail: str = ""  # why the verdict is wrong, when it is

    def digest(self) -> str:
        return hashlib.sha256(self.output.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: tuple[str, ...]  # item classes, visited cyclically
    sizes: dict[str, int]  # universe size per class
    make: Callable[[str, int, random.Random], object]  # class, index, item stream -> input
    run: Callable[[str, object], Outcome]
    tail_pct: int  # percentile reported as item_ms_tail
    pool: int  # inputs generated at set-up; the timed loop cycles over them
    trace_items: int  # fixed item count of the traced run
    warmup: int  # items run at set-up before timing


def schedule(wl: Workload, seed: int, count: int) -> list[tuple[str, int]]:
    """The first `count` (class, universe index) pairs visited under `seed`.

    Each class walks its universe along i -> (a*i + b) mod size with a
    stride a coprime to size, so no index repeats before the whole universe
    is used.
    """
    steps = {}
    for cls, size in wl.sizes.items():
        rng = random.Random(f"{wl.name}:{seed}:{cls}")
        stride = rng.randrange(1, size)
        while math.gcd(stride, size) != 1:
            stride = rng.randrange(1, size)
        steps[cls] = (stride, rng.randrange(size), size)
    seen = dict.fromkeys(wl.sizes, 0)
    out = []
    for j in range(count):
        cls = wl.pattern[j % len(wl.pattern)]
        a, b, size = steps[cls]
        out.append((cls, (a * seen[cls] + b) % size))
        seen[cls] += 1
    return out


def make_item(wl: Workload, cls: str, index: int):
    return wl.make(cls, index, random.Random(f"{wl.name}/{cls}/{index}"))


# ---------------------------------------------------------------------------
# shared helpers

LATTICE_FRACTIONS = tuple(Fraction(p, q) for q in (1, 2, 3, 4, 6) for p in range(-q, q + 1))
NONZERO_RATIONALS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(5, 3), Fraction(1, 4))


def random_scalar(rng: random.Random):
    """A nonzero scalar: rational or, as often, cyclotomic or with Pi."""
    q = rng.choice(NONZERO_RATIONALS)
    if rng.random() >= 0.5:
        return scalars.ExactScalar.from_rational(q)
    kind = rng.randrange(3)
    if kind == 0:
        return scalars.root_of_unity(Fraction(rng.randint(1, 23), 12)) * q
    if kind == 1:
        return scalars.pi_scalar(q) + scalars.root_of_unity(Fraction(rng.randint(1, 5), 6))
    return scalars.ExactScalar.pi_power(rng.choice((-2, -1, 2)), q) * scalars.root_of_unity(Fraction(1, 4))


def first_coefficient_witness(diff) -> str | None:
    if diff.is_zero():
        return None
    mono, vec = diff.sorted_items()[0]
    return f"first nonzero coefficient at {printer.monomial_str(mono)}: {printer.scalar_str(vec.scalar_value())}"


# ---------------------------------------------------------------------------
# theorems

ORDER = 8
# Both theorems cost about in proportion to the log weight sum_terms (k+1) of
# the input (k the log power of a term); series whose weight lies outside
# this band are drawn again, so that items cost about the same.
LOG_WEIGHT_BAND = (8, 16)


def make_theorem(cls: str, index: int, rng: random.Random):
    lo, hi = LOG_WEIGHT_BAND
    while True:
        f = catalog.random_log_series(rng)
        if lo <= sum(m.log_power("x") + 1 for m in f.terms) <= hi:
            return f, rng.randrange(1 << 30), rng.choice(NONZERO_RATIONALS)


def run_theorem(cls: str, data) -> Outcome:
    f, pick, c = data
    kind, _, polarity = cls.partition("_")
    LogSeries = series.LogSeries
    if kind == "taylor":
        lhs = f.exp_diffop("y", LogSeries.one(), "x", ORDER)
        rhs = substitution.subst_x_plus_y(f, "x", "y", ORDER)
    else:
        lhs = f.exp_diffop("y", LogSeries.variable("x"), "x", ORDER)
        rhs = substitution.subst_x_exp_y(f, "x", "y", ORDER)
    planted = None
    if polarity == "neg":
        # perturb one existing coefficient of the substitution side
        mono = rhs.sorted_items()[pick % len(rhs.terms)][0]
        planted = LogSeries.monomial(mono, c)
        rhs = rhs + planted
    passed = lhs == rhs
    rep = Report(f"{kind}-theorem(order={ORDER})")
    rep.add("two-routes-agree", passed, None if passed else first_coefficient_witness(lhs - rhs))
    if planted is None:
        ok, detail = passed, "" if passed else "identity failed on an unperturbed input"
    else:
        ok = (not passed) and (lhs - rhs).equal_terms(-planted) and rep.failures[0].witness is not None
        detail = "" if ok else "planted perturbation not reported as the only differing coefficient"
    return Outcome(ok, printer.series_str(lhs) + "\n" + rep.to_json(), detail)


THEOREMS = Workload(
    name="theorems",
    pattern=("taylor", "scaling", "taylor", "scaling", "taylor", "scaling", "taylor_neg", "scaling_neg"),
    sizes={"taylor": 512, "scaling": 512, "taylor_neg": 256, "scaling_neg": 256},
    make=make_theorem,
    run=run_theorem,
    tail_pct=90,
    pool=640,
    trace_items=16,
    warmup=2,
)


# ---------------------------------------------------------------------------
# fusion

HONEST_TRIPLES = ((2, 2, 1), (1, 2, 2), (2, 1, 2))
HONEST_AXIOMS = ("lminus1", "sl2_m1", "sl2_0", "sl2_1")
# (v, i, j) of the epsilon instance: Jacobi coefficient windows of similar cost
JACOBI_POINTS = ((1, 0, 1), (1, 1, 0))
# A perturbation of Y(eps, x)eps by c*e0 shows at these (v, i, j), by linearity
# in the table: the unperturbed terms cancel and the remainder is c*eps or c*1.
JACOBI_DETECTING = ((1, 1, 0), (1, 0, 1))


def make_fusion(cls: str, index: int, rng: random.Random):
    jm = catalog.jordan_module
    # an integral weight offset keeps the exponents n = h1 + h2 - h3 - 1
    # integral, where the X_t Vandermonde route holds
    h1, h2, d = rng.choice(LATTICE_FRACTIONS), rng.choice(LATTICE_FRACTIONS), rng.randint(-2, 1)
    common = (rng.randrange(1 << 30), rng.choice((-2, -1, 0, 1)), random_scalar(rng))
    if cls == "jordan2":
        mods = (catalog.trivial_module("W1", h1), jm("W2", h2, size=2), jm("W3", h1 + h2 + d, size=2))
    elif cls == "jordan6":
        mods = (catalog.trivial_module("W1", h1), catalog.trivial_module("W2", h2), jm("W3", h1 + h2 + d, size=3, blocks=2))
    elif cls == "jordan8":
        mods = (catalog.trivial_module("W1", h1), catalog.trivial_module("W2", h2), jm("W3", h1 + h2 + d, size=4, blocks=2))
    elif cls == "honest":
        # by index, so that every run draws the three triples equally often
        a, b, c = HONEST_TRIPLES[index % len(HONEST_TRIPLES)]
        mods = (catalog.sl2_irreducible("U", a), catalog.sl2_irreducible("W", b), catalog.sl2_irreducible("M", c))
    else:  # the nilpotent-multiplication instance with its vertex table
        mods = epsilon_instance()
    return mods + common


def _perturbation(t, pick: int, c):
    """A single mode c*e_b at log power >= 1: the x d/dx (resp. d/dx) term of
    the euler (resp. L(-1)-derivative) identity leaves k*c*e_b at log power
    k-1, where no other term reaches, so every such table fails the axiom."""
    i, j = pick % t.w1.dim, (pick >> 4) % t.w2.dim
    n = t.exponents()[(pick >> 8) % len(t.exponents())]
    k = 1 + (pick >> 12) % 2
    b = (pick >> 16) % t.w3.dim
    vec = series.CoeffVector.basis(t.w3.coeff_space, b).scale(c)
    return t + intertwiner.IntertwinerTable(t.w1, t.w2, t.w3, {(i, j, n, k): vec})


def _xt_vandermonde(t) -> bool:
    """X_t from scaled substitutions Y(., e^(2 pi i p) x) and the inverse
    Vandermonde matrix, against the direct log-power lowering."""
    smax = t.max_log_power() + 1
    _, vinv = combinatorics.vandermonde_pair(smax)
    shifted = [intertwiner.subst_table_scaled(t, scalars.pi_scalar(2 * p)) for p in range(smax + 1)]
    for tt in range(smax + 1):
        acc = None
        for p in range(smax + 1):
            term = shifted[p].scale(vinv.entries[tt][p])
            acc = term if acc is None else acc + term
        if acc != intertwiner.x_t(t, tt):
            return False
    return True


def run_solve(cls: str, data) -> Outcome:
    w1, w2, w3, pick, r, c = data
    honest = cls == "honest"
    sols = intertwiner.solve_fusion_space(w1, w2, w3, constraints=HONEST_AXIOMS if honest else ("euler",))
    rep = Report(f"fusion-{cls}")
    rep.add("nonzero-space", bool(sols))
    texts = []
    for idx, t in enumerate(sols):
        texts.append(jsonio.dump_object(t))
        sub = intertwiner.axiom_check(t, "all" if honest else "euler")
        rep.add(f"axioms-{idx}", sub.passed, None if sub.passed else sub.to_text()[:300])
    if sols:
        t = max(sols, key=lambda s: (s.max_log_power(), len(s.modes)))
        rep.add(f"omega-involution(r={r})", intertwiner.omega_r(intertwiner.omega_r(t, r), -r - 1) == t)
        rep.add(f"dual-involution(r={r})", intertwiner.a_r(intertwiner.a_r(t, r), -r - 1) == t)
        rep.add("xt-vandermonde-route", _xt_vandermonde(t))
        bad = intertwiner.axiom_check(_perturbation(t, pick, c), "lminus1" if honest else "euler")
        rep.add(
            "perturbation-detected",
            (not bad.passed) and bad.failures[0].witness is not None,
            None if not bad.passed else "perturbed table passed",
        )
        texts.append(bad.to_json())
    detail = "" if rep.passed else "; ".join(f.check_id for f in rep.failures)
    return Outcome(rep.passed, "".join(texts) + rep.to_json(), detail)


def run_jacobi(cls: str, data) -> Outcome:
    mult, vt, pick, _, c = data
    if cls == "jacobi":
        v, i, j = JACOBI_POINTS[pick % len(JACOBI_POINTS)]
        table = mult.scale(c)
    else:
        v, i, j = JACOBI_DETECTING[pick % len(JACOBI_DETECTING)]
        key = (1, 1, scalars.Exponent(-1), 0)
        delta = intertwiner.IntertwinerTable(
            mult.w1, mult.w2, mult.w3, {key: mult.w3.basis_vector(0).scale(c)}
        )
        table = mult + delta
    sub = intertwiner.jacobi_check_window(table, vt, v, mult.w1.basis_vector(i), mult.w2.basis_vector(j))
    if cls == "jacobi":
        ok = sub.passed
    else:
        ok = (not sub.passed) and sub.failures[0].witness is not None
    return Outcome(ok, sub.to_json(), "" if ok else f"jacobi verdict {sub.passed} at {(v, i, j)}")


def run_fusion(cls: str, data) -> Outcome:
    return run_jacobi(cls, data) if cls.startswith("jacobi") else run_solve(cls, data)


# The mix sets where the percentiles fall: half the items are 2-dim Jordan
# solves of similar cost, so the median lies inside their cluster, and the
# Jacobi windows, the costliest items, are 1/6 of the items, so the 90th
# percentile lies inside their cluster rather than at the edge of one.
FUSION = Workload(
    name="fusion",
    pattern=("honest", "jordan2", "jordan6", "jordan2", "jacobi", "jordan2",
             "honest", "jordan2", "jordan8", "jordan2", "jacobi_neg", "jordan2"),
    sizes={"honest": 96, "jordan2": 256, "jordan6": 64, "jordan8": 64, "jacobi": 64, "jacobi_neg": 64},
    make=make_fusion,
    run=run_fusion,
    tail_pct=90,
    pool=324,
    trace_items=12,
    warmup=2,
)


# ---------------------------------------------------------------------------
# roundtrip

VARIABLES = ("x", "y", "z")


def _random_expression(rng: random.Random, depth: int) -> tuple[str, int]:
    """Text and an upper bound on the number of terms it expands to."""
    if depth > 2:
        kind = rng.randrange(8)
        if kind == 0:
            return str(rng.randint(0, 9)), 1
        if kind == 1:
            return f"{rng.randint(1, 9)}/{rng.choice((2, 3, 4, 6, 12))}", 1
        if kind == 2:
            return rng.choice(VARIABLES), 1
        if kind == 3:
            return f"{rng.choice(VARIABLES)}^({rng.randint(-6, 6)}/{rng.choice((1, 2, 3, 4, 6))})", 1
        if kind == 4:
            return f"lg({rng.choice(VARIABLES)})^{rng.randint(0, 4)}", 1
        if kind == 5:
            return "Pi", 1
        if kind == 6:
            return "i", 1
        return f"e({rng.randint(-12, 12)}/{rng.choice((1, 2, 3, 4, 6, 12))})", 1
    text, size = _random_expression(rng, depth + 1)
    for _ in range(rng.randint(0, 3)):
        op = rng.choice((" + ", " - ", "*"))
        part, part_size = _random_expression(rng, depth + 1)
        text += op + part
        size = size * part_size if op == "*" else size + part_size
    if rng.random() < 0.3:
        text = f"({text})"
        if rng.random() < 0.3:
            power = rng.randint(0, 3)
            text += f"^{power}"
            size = size**power
    return text, size


MIN_EXPANSION = 24
MAX_EXPANSION = 256


def random_expression(rng: random.Random) -> str:
    """A well-formed expression of the logcalc grammar (no division): sums
    and products nested three deep, sometimes raised to a small power.
    Expressions whose expansion bound lies outside [MIN_EXPANSION,
    MAX_EXPANSION] terms are drawn again, so that items cost about the same
    and no single item dominates a run's time."""
    while True:
        text, size = _random_expression(rng, 0)
        if MIN_EXPANSION <= size <= MAX_EXPANSION:
            return text


# corruptions that the parser must reject with ParseError
def _corrupt(text: str, rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return text + " +"
    if kind == 1:
        return "(" + text
    if kind == 2:
        return text + ")"
    if kind == 3:
        pos = rng.randrange(len(text) + 1)
        return text[:pos] + "#" + text[pos:]
    if kind == 4:
        return text + " / (x + 1)"
    return text + "^"


def _random_module(rng: random.Random, name: str, mixed_basis: bool = False):
    """A Jordan-block module or an honest sl(2) representation; with
    `mixed_basis`, sometimes a direct sum in a randomly mixed basis (whose
    set-up inverts a matrix, so only standalone module files use it)."""
    kind = rng.randrange(4 if mixed_basis else 3)
    if kind < 2:
        return catalog.jordan_module(
            name, rng.choice(LATTICE_FRACTIONS), size=rng.randint(1, 3), blocks=rng.randint(1, 2)
        )
    if kind == 2:
        return catalog.sl2_irreducible(name, rng.randint(1, 3))
    return catalog.seeded_semisimple_module(name, rng.randrange(1 << 20), max_dim=3)


def _random_vector(rng: random.Random, space):
    comps = {b: random_scalar(rng) for b in range(space.dim) if rng.random() < 0.7}
    return series.CoeffVector(space, comps or {0: random_scalar(rng)})


def _random_object(rng: random.Random, kind: str):
    if kind == "module":
        return _random_module(rng, "M", mixed_basis=True)
    w1, w2, w3 = (_random_module(rng, n) for n in ("W1", "W2", "W3"))
    if kind == "table":
        modes = {}
        for _ in range(rng.randint(2, 6)):
            i, j = rng.randrange(w1.dim), rng.randrange(w2.dim)
            key = (i, j, scalars.Exponent(rng.choice(LATTICE_FRACTIONS)), rng.randint(0, 2))
            modes[key] = _random_vector(rng, w3.coeff_space)
        return intertwiner.IntertwinerTable(w1, w2, w3, modes)
    modes = {}
    for _ in range(rng.randint(1, 4)):
        slot = rng.randint(1, 3)
        dim = (w1, w2, w3)[slot - 1].dim
        entries = [[random_scalar(rng) if rng.random() < 0.4 else 0 for _ in range(dim)] for _ in range(dim)]
        entries[0][0] = random_scalar(rng)
        modes[(slot, rng.randrange(2), rng.randint(-3, 1))] = matrix.ExactMatrix(entries)
    return intertwiner.VertexTable(w1, w2, w3, [0, 1], modes)


# schema mutations that load_text must reject with SchemaError
def _mutate(data: dict, rng: random.Random) -> dict:
    module = data
    if data["kind"] == "intertwiner":
        module = data["type"]["w" + str(rng.randint(1, 3))]
    elif data["kind"] == "vertex":
        module = data["modules"]["w" + str(rng.randint(1, 3))]
    kind = rng.randrange(6)
    if kind == 0:
        data["schema"] = "logcalc/0"
    elif kind == 1:
        data["kind"] = "bogus"
    elif kind == 2:
        module["dim"] += 1
    elif kind == 3:
        row = rng.randrange(module["dim"])
        module["L0"][row][rng.randrange(module["dim"])] = "1 +"
    elif kind == 4:
        module["weights"][rng.randrange(module["dim"])] = "1/5"
    else:
        module["name"] = ""
    return data


def make_roundtrip(cls: str, index: int, rng: random.Random):
    if cls == "expr":
        return random_expression(rng)
    if cls == "expr_bad":
        return _corrupt(random_expression(rng), rng)
    if cls == "json_bad":
        return _random_object(rng, rng.choice(("module", "table", "vertex"))), rng.randrange(1 << 30)
    return _random_object(rng, cls)


def run_roundtrip(cls: str, data) -> Outcome:
    if cls == "expr":
        f = parser.parse_expr(data)
        printed = printer.series_str(f)
        back = parser.parse_expr(printed)
        ok = back.equal_terms(f) and printer.series_str(back) == printed
        return Outcome(ok, printed, "" if ok else f"{data!r} -> {printed!r} is not a fixed point")
    if cls == "expr_bad":
        try:
            f = parser.parse_expr(data)
        except parser.ParseError as exc:
            return Outcome(True, str(exc))
        return Outcome(False, printer.series_str(f), f"malformed {data!r} was accepted")
    if cls == "json_bad":
        obj, mutation_seed = data
        text = json.dumps(_mutate(json.loads(jsonio.dump_object(obj)), random.Random(mutation_seed)))
        try:
            jsonio.load_text(text)
        except jsonio.SchemaError as exc:
            return Outcome(True, str(exc))
        return Outcome(False, text, "mutated file was accepted")
    text = jsonio.dump_object(data)
    again = jsonio.dump_object(jsonio.load_text(text))
    ok = again == text
    return Outcome(ok, text, "" if ok else "load -> dump is not byte-identical")


ROUNDTRIP = Workload(
    name="roundtrip",
    pattern=("expr", "module", "expr", "expr_bad", "expr", "table", "expr", "json_bad", "expr", "vertex"),
    sizes={"expr": 2048, "expr_bad": 512, "module": 512, "table": 512, "vertex": 512, "json_bad": 512},
    make=make_roundtrip,
    run=run_roundtrip,
    tail_pct=95,
    pool=1000,
    trace_items=200,
    warmup=10,
)

WORKLOADS = {wl.name: wl for wl in (THEOREMS, FUSION, ROUNDTRIP)}
