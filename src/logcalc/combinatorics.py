"""Combinatorial identities and exact Pascal/Vandermonde matrix pairs.

Both sides of each identity are computed by exhaustive enumeration with
exact rationals; these are the trust anchors behind the formal Taylor theorem
and the log-power projection machinery, so no closed-form shortcuts are taken
on either side.  The matrix pairs are returned unchecked: their identities
are rows of `check matrices`, which a wrong inverse fails.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .matrix import ExactMatrix
from .scalars import ExactScalar


def comb_identity_sides(k: int, j: int) -> tuple[Fraction, Fraction]:
    """Both sides of the word-expansion identity behind the Taylor theorem.

    left  = (j!/k!) * sum over 0 < t_1 < ... < t_{k-j} < k of t_1 ... t_{k-j}
    right = sum over compositions i_1 + ... + i_j = k (i_s >= 1) of 1/(i_1 ... i_j)

    The empty product (j = k) counts as 1 on the left; the empty composition
    (j = 0, k = 0) counts as 1 on the right.
    """
    if not 0 <= j <= k:
        raise ValueError("need 0 <= j <= k")
    left = Fraction(0)
    for ts in itertools.combinations(range(1, k), k - j):
        left += math.prod(ts)
    left *= Fraction(math.factorial(j), math.factorial(k))
    right = Fraction(0)
    for parts in _compositions(k, j):
        right += Fraction(1, math.prod(parts))
    return left, right


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def lubell_sides(N: int, j: int) -> tuple[Fraction, Fraction]:
    """Sum of 1/(w_1...w_j) over bounded-sum tuples vs distinct-bounded tuples.

    S = {w in Z_+^j : 0 < w_1 + ... + w_j <= N},
    T = {w in Z_+^j : the w_i are distinct and bounded by N}.
    """
    if N < 1 or j < 1:
        raise ValueError("N and j must be positive")
    s_total = Fraction(0)
    t_total = Fraction(0)
    for w in itertools.product(range(1, N + 1), repeat=j):
        p = Fraction(1, math.prod(w))
        if sum(w) <= N:
            s_total += p
        if len(set(w)) == j:
            t_total += p
    return s_total, t_total


def lubell_refinement(N: int, j: int) -> list[tuple[Fraction, Fraction]]:
    """Per-k refinement: tuples with sum exactly k vs distinct tuples with max exactly k.

    Summing either column over k = 1..N reproduces the corresponding
    :func:`lubell_sides` total, and the columns agree termwise.
    """
    out = []
    for k in range(1, N + 1):
        s_k = Fraction(0)
        t_k = Fraction(0)
        for w in itertools.product(range(1, k + 1), repeat=j):
            p = Fraction(1, math.prod(w))
            if sum(w) == k:
                s_k += p
            if len(set(w)) == j and max(w) == k:
                t_k += p
        out.append((s_k, t_k))
    return out


def pascal_pair(K: int) -> tuple[ExactMatrix, ExactMatrix]:
    """The upper-triangular Pascal matrix of size K and its signed inverse.

    P[i][j] = C(j, i) and Pinv[i][j] = (-1)^(i+j) C(j, i) (0-indexed); the
    ``pascal(K)`` rows of `check matrices` verify the product.
    """
    if K < 1:
        raise ValueError("K must be positive")
    p = ExactMatrix([[math.comb(j, i) for j in range(K)] for i in range(K)])
    pinv = ExactMatrix([[(-1) ** (i + j) * math.comb(j, i) for j in range(K)] for i in range(K)])
    return p, pinv


def vandermonde_pair(S: int) -> tuple[ExactMatrix, ExactMatrix]:
    """Vandermonde matrix on the nodes 2p*Pi (p = 0..S) and its exact inverse.

    V[p][t] = (2p*Pi)^t = p^t (2*Pi)^t, so V^-1[t][p] = (2*Pi)^(-t) [x^t] l_p(x)
    with the Lagrange polynomial l_p(x) = prod_{q != p} (x - q)/(p - q) of the
    integer nodes 0..S; the ``vandermonde(S)`` rows of `check matrices` verify
    the inverse.
    """
    if S < 0:
        raise ValueError("S must be nonnegative")
    v = [[ExactScalar.pi_power(t, (2 * p) ** t) for t in range(S + 1)] for p in range(S + 1)]
    columns = [_lagrange(p, S) for p in range(S + 1)]
    vinv = [[ExactScalar.pi_power(-t, Fraction(num[t], den << t)) for num, den in columns] for t in range(S + 1)]
    return ExactMatrix(v), ExactMatrix(vinv)


def _lagrange(p: int, S: int) -> tuple[list[int], int]:
    """prod_{q != p} (x - q)/(p - q) over q = 0..S, as the integer coefficients of
    x^0..x^S of its numerator and its denominator."""
    num = [1]
    for q in range(S + 1):
        if q != p:
            num = [lo - q * hi for lo, hi in zip([0, *num], [*num, 0])]
    return num, math.prod(p - q for q in range(S + 1) if q != p)
