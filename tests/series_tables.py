"""Mode tables read back from per-pair series: the route of the series oracles.

``table_from_series(w1, w2, w3, fn)`` is the table whose pair (i, j) has the
series ``fn(i, j)`` in x, modes in (i, j) order and each pair's in series order.
"""

from __future__ import annotations

from typing import Callable

from logcalc.intertwiner import IntertwinerTable
from logcalc.mobius import MobiusModule
from logcalc.series import LogSeries


def table_from_series(
    w1: MobiusModule, w2: MobiusModule, w3: MobiusModule, fn: Callable[[int, int], LogSeries]
) -> IntertwinerTable:
    modes = {}
    for i in range(w1.dim):
        for j in range(w2.dim):
            for mono, vec in fn(i, j).items():
                if mono.variables() not in ((), ("x",)):
                    raise ValueError(f"series for ({i},{j}) involves variables besides 'x'")
                modes[(i, j, -mono.exponent("x") - 1, mono.log_power("x"))] = vec
    return IntertwinerTable(w1, w2, w3, modes)
