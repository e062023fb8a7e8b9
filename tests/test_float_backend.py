"""Floating smoke tests: the exact results, evaluated numerically, agree with
direct complex arithmetic to 1e-9.  Exactness claims never rest on these."""

import cmath
import random
from fractions import Fraction

from logcalc import catalog
from logcalc.scalars import pi_scalar, root_of_unity
from logcalc.series import LogSeries
from logcalc.substitution import subst_x_plus_y

from float_eval import scalar_value, series_value

TOL = 1e-9


def test_scalar_evaluation():
    s = pi_scalar(2) + root_of_unity(Fraction(1, 3))
    expected = 2j * cmath.pi + cmath.exp(1j * cmath.pi / 3)
    assert abs(scalar_value(s) - expected) < TOL


def test_series_evaluation_matches_closed_form():
    f = LogSeries.variable("x", Fraction(1, 2)) + LogSeries.log_variable("x").scale(3)
    z = 2.7 + 0.3j
    expected = z ** 0.5 + 3 * cmath.log(z)
    assert abs(series_value(f, {"x": z}) - expected) < TOL


def test_shift_substitution_numerically():
    rng = random.Random(5)
    for _ in range(5):
        f = catalog.random_log_series(rng, max_terms=3, max_log_power=2)
        out = subst_x_plus_y(f, "x", "y", 24)
        z, dz = 1.9, 0.01  # small shift: the truncated tail is < 1e-12
        direct = series_value(f, {"x": z + dz})
        via_series = series_value(out, {"x": z, "y": dz})
        assert abs(direct - via_series) < TOL
