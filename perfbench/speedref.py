"""Machine-speed reference for timing on a shared machine.

On a machine whose cores are shared with other tenants the same Python code
runs up to 1.8x slower for stretches that last from under a second to tens
of seconds, as long as many items or a whole run.  So every timing is taken
in reference units: a fixed piece of stdlib-only work
(`reference_work`, Fraction arithmetic and dict inserts, like the package's
own inner loops) is timed just before and just after the interval, and

    normalized = measured * NOMINAL_S / mean(reference before, reference after)

is the interval's length on a machine that runs the reference work in
NOMINAL_S seconds.  Intervals are kept short (one step: an item, an input
or an import) so that the samples around them see the same machine state.
The reference does not import `logcalc`, so no change to the package can
change it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.001  # reference work time that normalized timings assume
REFRESH_S = 0.1  # re-measure the reference when the last sample is older


def reference_work() -> Fraction:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 100):
        q = Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, i)
        acc += q
        seen[(i, q)] = acc
    return acc


def measure() -> float:
    """Median of three back-to-back runs of the reference work, in seconds."""
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        reference_work()
        samples.append(perf_counter() - t0)
    return sorted(samples)[1]


class Timer:
    """Times steps in reference units.

    Before a step the reference is measured again if its last sample is
    older than REFRESH_S; a step is normalized by the samples just before and
    just after it.  Reference measurements fall between steps, never inside.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.taken_at = 0.0
        self.steps: list[tuple[float, int]] = []  # (seconds, index of the sample before)
        self._sample()

    def _sample(self) -> None:
        self.samples.append(measure())
        self.taken_at = perf_counter()

    def time(self, fn, *args):
        """Call fn(*args) as one step and return its result."""
        if perf_counter() - self.taken_at >= REFRESH_S:
            self._sample()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.steps.append((perf_counter() - t0, len(self.samples) - 1))

    def normalized(self) -> list[float]:
        """Every step so far in reference units (closes the last interval)."""
        self._sample()
        return [normalize(sec, self.samples[i], self.samples[i + 1]) for sec, i in self.steps]

    def measured(self) -> list[float]:
        return [sec for sec, _ in self.steps]


def normalize(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * NOMINAL_S * 2 / (ref_before + ref_after)
