"""Finite graded modules: Jordan blocks, operator exponentials, conjugations.

Two families of finite-dimensional actions appear throughout:

* honest sl(2) representations (all brackets hold; L(0) semisimple), which
  carry the exponentiated conjugation identities;
* Jordan-block actions (L(0) = weight + nilpotent, L(+-1) = 0), which are
  the logarithmic toys.  The bracket [L(1), L(-1)] = 2L(0) cannot hold for
  them: a finite-dimensional action satisfying all three brackets is
  completely reducible, forcing a diagonalizable L(0).  validate_sl2
  reports that bracket separately for exactly this reason.

Run:  python demos/03_modules_and_operators.py
"""

from fractions import Fraction

from logcalc import (
    LogSeries,
    conj_identity_check,
    e_aL0,
    pi_scalar,
    series_str,
    validate_sl2,
    x_pm_L0,
)
from logcalc.catalog import jordan_module, sl2_irreducible

print("== validation reports ==")
honest = sl2_irreducible("V3", 3)
print(validate_sl2(honest).to_text())
print()
jordan = jordan_module("J", Fraction(1, 2), size=2)
print(validate_sl2(jordan).to_text())

print()
print("== x^L(0) on a Jordan pair produces a log ==")
w = jordan.basis_vector(1)
s = x_pm_L0(jordan, w, +1)
print("x^L(0) w =", series_str(s))
back = s.apply_op(lambda vec: x_pm_L0(jordan, vec, -1), jordan.coeff_space)
print("x^-L(0) x^L(0) w = w:", back == LogSeries.vector(w))

print()
print("== e^(a L(0)) for a = Pi: an exact root of unity times a Pi-polynomial ==")
out = e_aL0(jordan, w, pi_scalar(1))
print("e^(Pi L(0)) w =", out)
print("round trip:", e_aL0(jordan, out, -pi_scalar(1)) == w)

print()
print("== conjugation identities on the honest module ==")
for which, kwargs in [
    ("xL0_Lj", {}),
    ("expLm1", {}),
    ("expL0", {"order": 6}),
    ("expL1", {}),
    ("inverse_rel", {"r": 0}),
]:
    rep = conj_identity_check(honest, which, **kwargs)
    print(f"  {which:12s}: {'PASS' if rep.passed else 'FAIL'}")
