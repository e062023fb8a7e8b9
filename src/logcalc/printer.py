"""Canonical text rendering of scalars, exponents, monomials and series.

The formats here are the bit-exact canonical serializations: terms sorted by
monomial key, scalars sorted by Pi-power then root-of-unity index.  The
parser inverts these exactly (parse . print = identity on canonical form).
"""

from __future__ import annotations

import math

from .scalars import _RATIONAL, LATTICE, ExactScalar, Exponent
from .series import LogSeries, Monomial


def _ratio_str(n: int, d: int) -> str:
    """The rational n/d in lowest terms, for d > 0."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def exponent_str(e: Exponent) -> str:
    if not e.b:
        return _ratio_str(e.a, LATTICE)
    im = _ratio_str(e.b, LATTICE) + "*i"
    return f"{_ratio_str(e.a, LATTICE)}{'+' if e.b > 0 else ''}{im}" if e.a else im


def _zeta_summand(k: int, n: int, d: int) -> str:
    """One summand r or r*e(q), r = n/d and q = k/L, of a cyclotomic coefficient."""
    if k == 0:
        return _ratio_str(n, d)
    root = f"e({_ratio_str(k, LATTICE)})"
    if n == d:
        return root
    if n == -d:
        return f"-{root}"
    return f"{_ratio_str(n, d)}*{root}"


def _joined(texts: list[str]) -> str:
    """Summands joined by " + ", or by " - " before one that starts with a minus sign."""
    out = [texts[0]]
    for text in texts[1:]:
        out.append(f" - {text[1:]}" if text.startswith("-") else f" + {text}")
    return "".join(out)


def scalar_str(s: ExactScalar) -> str:
    if s.is_zero():
        return "0"
    groups: dict[int, list[str]] = {}
    for (k, j), n in sorted(s.num.items()):
        groups.setdefault(k, []).append(_zeta_summand(j, n, s.den))
    parts: list[str] = []
    for k, factors in groups.items():
        if k == 0:
            body = " + ".join(factors) if len(factors) > 1 else factors[0]
            if len(factors) > 1:
                body = f"({body})"
        else:
            pi = "Pi" if k == 1 else f"Pi^{k}"
            if len(factors) == 1 and factors[0] == "1":
                body = pi
            elif len(factors) == 1 and factors[0] == "-1":
                body = f"-{pi}"
            elif len(factors) == 1:
                body = f"{factors[0]}*{pi}"
            else:
                body = f"({' + '.join(factors)})*{pi}"
        parts.append(body)
    return _joined(parts)


def _coeff_prefix(s: ExactScalar) -> str:
    """Coefficient rendering in front of a monomial (may need parentheses)."""
    if s.is_rational():
        n = next(iter(s.num.values()), 0)
        if s.den == 1:
            return str(n)
        return f"({n}/{s.den})" if n > 0 else f"-({-n}/{s.den})"
    text = scalar_str(s)
    simple = all(ch not in text for ch in "+- ") or (
        text.startswith("-") and all(ch not in text[1:] for ch in "+- ")
    )
    return text if simple else f"({text})"


def monomial_str(m: Monomial) -> str:
    factors = []
    for v, e, k in m.entries:
        if e.a or e.b:
            factors.append(v if e.a == LATTICE and not e.b else f"{v}^({exponent_str(e)})")
        if k:
            factors.append(f"lg({v})" if k == 1 else f"lg({v})^{k}")
    return "*".join(factors) if factors else "1"


def series_str(f: LogSeries) -> str:
    if f.is_zero():
        return "0"
    if f.space.dim != 1:
        # vector-valued: render componentwise, deterministic basis order
        parts = []
        for m, vec in f.sorted_items():
            comp = ", ".join(f"[{i}]={scalar_str(v)}" for i, v in sorted(vec.components.items()))
            parts.append(f"({comp})*{monomial_str(m)}")
        return " + ".join(parts)
    texts = []
    for m, vec in f.sorted_items():
        c = vec.components[0]
        mono = monomial_str(m)
        # c = +-1 is {(0, 0): +-1} over 1: read off the coefficient, with no scalar built
        unit = c.num.get(_RATIONAL) if c.den == 1 and len(c.num) == 1 else None
        if mono == "1":
            texts.append(_coeff_prefix(c))
        elif unit == 1:
            texts.append(mono)
        elif unit == -1:
            texts.append(f"-{mono}")
        else:
            texts.append(f"{_coeff_prefix(c)}*{mono}")
    return _joined(texts)
