"""Float evaluation of exact scalars and scalar series, Pi -> pi*i.

A smoke-test backend only: exactness claims never rest on it.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping

from logcalc.scalars import LATTICE, ExactScalar
from logcalc.series import SCALAR, LogSeries

ZETA = cmath.exp(1j * math.pi / LATTICE)


def scalar_value(s: ExactScalar) -> complex:
    return sum(n / s.den * ZETA**k * (1j * math.pi) ** p for (p, k), n in s.num.items())


def series_value(f: LogSeries, point: Mapping[str, complex], log_point: Mapping[str, complex] | None = None) -> complex:
    """The value of a scalar series at the point; lg(v) defaults to log(point[v])."""
    if f.space != SCALAR:
        raise ValueError("series_value is for scalar series")
    log_point = dict(log_point or {})
    total = 0j
    for m, vec in f.terms.items():
        val = scalar_value(vec.scalar_value())
        for v, e, k in m.entries:
            z = point[v]
            ev = complex(e.re) + 1j * complex(e.im)
            val *= z**ev if ev != 0 else 1
            if k:
                val *= log_point.get(v, cmath.log(z)) ** k
        total += val
    return total
