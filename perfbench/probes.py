"""Micro-op probes: fixed inputs, timed outside the workload loop.

Each probe times batches of calls and reports the median batch divided by
the batch size, so one slow batch does not move it, in reference units (see
`speedref.py`).
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

import speedref
from logcalc import matrix, parser, scalars

BATCHES = 7
FIXED_EXPRESSION = "(x^(1/2) + 2*lg(x) - e(1/3)*y)^2 * (Pi + 3/4*x^(-1)*lg(x)^2 + i*z)"


def _per_call(fn, calls: int) -> float:
    def batch():
        for _ in range(calls):
            fn()

    timer = speedref.Timer()
    for _ in range(BATCHES):
        timer.time(batch)
    return statistics.median(timer.normalized()) / calls


def _fixed_system(rows: int = 12, cols: int = 16):
    """A fixed rational system with small integer entries."""
    rng = random.Random(20100417)
    return [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)], cols


def run_probes() -> dict:
    ExactScalar = scalars.ExactScalar
    ra, rb = ExactScalar.from_rational(Fraction(3, 7)), ExactScalar.from_rational(Fraction(-5, 11))
    ca = scalars.root_of_unity(Fraction(1, 3)) * 2 + scalars.root_of_unity(Fraction(1, 4))
    cb = scalars.root_of_unity(Fraction(5, 6)) - scalars.root_of_unity(Fraction(1, 12)) * Fraction(3, 2)
    f = parser.parse_expr("x + 2*lg(x) - 1/2*x^(1/2) + 3*x^(-1)*lg(x)^2")
    g = parser.parse_expr("3 + x^(-1)*lg(x)^2 - 5/6*x^(2/3) + lg(x)")
    rows, cols = _fixed_system()
    return {
        "scalars.mul_rational_us": {"value": 1e6 * _per_call(lambda: ra * rb, 2000), "unit": "us"},
        "scalars.mul_cyclotomic_us": {"value": 1e6 * _per_call(lambda: ca * cb, 300), "unit": "us"},
        "series.mul_us": {"value": 1e6 * _per_call(lambda: f * g, 100), "unit": "us"},
        "matrix.nullspace_fixed_ms": {"value": 1e3 * _per_call(lambda: matrix.nullspace(rows, cols), 1), "unit": "ms"},
        "parser.parse_fixed_us": {"value": 1e6 * _per_call(lambda: parser.parse_expr(FIXED_EXPRESSION), 20), "unit": "us"},
    }
