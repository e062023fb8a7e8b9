"""Canned modules, seeded random generators, and standard small fixtures.

Two families of modules matter:

* honest sl(2) representations (direct sums of irreducibles, optionally
  conjugated by a weight-preserving basis change) satisfy every bracket,
  including [L(1), L(-1)] = 2 L(0); they carry the exponentiated
  conjugation identities but can never be logarithmic;
* Jordan-block actions (L(+-1) = 0, L(0) = weight + nilpotent) are the
  logarithmic toys; the pairing bracket fails on them by necessity.

Random series and modules take an explicit seed everywhere: reruns are
byte-reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .matrix import ExactMatrix
from .mobius import GradingGroup, MobiusModule, TRIVIAL_GROUP
from .scalars import Exponent
from .series import LogSeries, Monomial


# ---------------------------------------------------------------------------
# modules

def jordan_module(name: str, weight: Fraction | int = 0, size: int = 2, blocks: int = 1,
                  degrees: list[list[int]] | None = None, group: GradingGroup = TRIVIAL_GROUP,
                  weight_step: int = 1) -> MobiusModule:
    """Direct sum of `blocks` Jordan blocks of the given size; the b-th block
    sits at generalized weight `weight + b*weight_step`.  L(+-1) = 0."""
    dim = size * blocks
    weights = []
    l0 = [[Fraction(0)] * dim for _ in range(dim)]
    for b in range(blocks):
        w = Fraction(weight) + b * weight_step
        base = b * size
        for s in range(size):
            weights.append(w)
            l0[base + s][base + s] = w
            if s + 1 < size:
                # N maps the (s+1)-st basis vector onto the s-th
                l0[base + s][base + s + 1] = Fraction(1)
    zero = ExactMatrix.zeros(dim, dim)
    return MobiusModule(name, weights, zero, ExactMatrix(l0), zero, degrees, group)


def trivial_module(name: str = "V", weight: Fraction | int = 0) -> MobiusModule:
    return jordan_module(name, weight, size=1, blocks=1)


def sl2_irreducible(name: str, dim: int) -> MobiusModule:
    """The honest irreducible sl(2) representation of dimension d.

    Weights are -(d-1)/2 + j (symmetric around zero, halves for even d);
    L(-1) raises the weight by one, L(1) lowers it, and all three brackets
    hold exactly.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    h0 = -Fraction(dim - 1, 2)
    weights = [h0 + j for j in range(dim)]
    lm1 = [[Fraction(0)] * dim for _ in range(dim)]
    l1 = [[Fraction(0)] * dim for _ in range(dim)]
    l0 = [[Fraction(0)] * dim for _ in range(dim)]
    for j in range(dim):
        l0[j][j] = weights[j]
        if j + 1 < dim:
            lm1[j + 1][j] = Fraction(1)
            # [L(1), L(-1)] = 2L(0) fixes the lowering coefficients b_{j+1} = (j+1)(j+1-d)
            l1[j][j + 1] = Fraction((j + 1) * (j + 1 - dim))
    return MobiusModule(name, weights, ExactMatrix(lm1), ExactMatrix(l0), ExactMatrix(l1))


def direct_sum(name: str, *modules: MobiusModule) -> MobiusModule:
    dim = sum(m.dim for m in modules)
    weights: list[Exponent] = []
    degrees: list[tuple[int, ...]] = []
    group = modules[0].group
    mats = {j: [[Fraction(0)] * dim for _ in range(dim)] for j in (-1, 0, 1)}
    off = 0
    for m in modules:
        if m.group != group:
            raise ValueError("direct summands must share the grading group")
        weights.extend(m.weights)
        degrees.extend(m.degrees)
        for j in (-1, 0, 1):
            src = m.L(j).entries
            for a in range(m.dim):
                for b in range(m.dim):
                    mats[j][off + a][off + b] = src[a][b]
        off += m.dim
    return MobiusModule(name, weights, *(ExactMatrix(mats[j]) for j in (-1, 0, 1)), degrees, group)


def conjugate_basis(module: MobiusModule, rng: random.Random) -> MobiusModule:
    """Random weight-preserving integer change of basis (determinant +-1)."""
    dim = module.dim
    # unipotent upper/lower triangular factors supported on equal-weight pairs
    def unipotent(upper: bool) -> ExactMatrix:
        m = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if i != j and (i < j) == upper and module.weights[i] == module.weights[j] \
                        and module.degrees[i] == module.degrees[j]:
                    m[i][j] = Fraction(rng.randint(-2, 2))
        return ExactMatrix(m)

    q = unipotent(True) @ unipotent(False)
    qinv = q.inverse()
    return MobiusModule(
        module.name, module.weights, *(q @ module.L(j) @ qinv for j in (-1, 0, 1)), module.degrees, module.group
    )


def seeded_semisimple_module(name: str, seed: int, max_dim: int = 4) -> MobiusModule:
    """Random direct sum of honest irreducibles, then a random basis mix."""
    rng = random.Random(seed)
    dims = []
    budget = max_dim
    while budget > 0:
        d = rng.randint(1, min(3, budget))
        dims.append(d)
        budget -= d
        if rng.random() < 0.35:
            break
    parts = [sl2_irreducible(f"{name}_{k}", d) for k, d in enumerate(dims)]
    total = direct_sum(name, *parts)
    return conjugate_basis(total, rng)


# ---------------------------------------------------------------------------
# random series

def random_exponent(rng: random.Random) -> Exponent:
    d = rng.choice((1, 2, 3, 4, 6, 12))
    return Exponent(Fraction(rng.randint(-4, 4), d))


def random_log_series(rng: random.Random, max_terms: int = 6, max_log_power: int = 4) -> LogSeries:
    """Random scalar series in x: <= max_terms monomials with lattice
    exponents and bounded log powers; never the zero series."""
    out = LogSeries.zero()
    n_terms = rng.randint(1, max_terms)
    for _ in range(n_terms):
        e = random_exponent(rng)
        k = rng.randint(0, max_log_power)
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 2, 3)))
        out = out + LogSeries.monomial(Monomial.var("x", e, k), c)
    if out.is_zero():
        out = LogSeries.variable("x")
    return out
