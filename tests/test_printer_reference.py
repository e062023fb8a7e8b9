"""The printer and the series difference against the code they replaced.

The reference below is the printer that tested ``c == 1`` and ``c == -1`` by
building scalars, grew its text one summand at a time and sorted terms by the
nested key (v, (L re, L im), k) per monomial entry.  The library reads a
coefficient of +-1 off its numerators, joins its summands once and sorts by
the flat key (v, L re, L im, k); its text must equal the reference's byte for
byte.  ``a - b`` cancels equal coefficients with no arithmetic and must equal
``a + (-b)`` in terms, in their insertion order and in truncation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcalc.printer import _coeff_prefix, _zeta_summand, exponent_str, monomial_str, scalar_str, series_str
from logcalc.scalars import ExactScalar, Exponent, pi_scalar, root_of_unity
from logcalc.series import SCALAR, CoeffSpace, CoeffVector, LogSeries, Monomial

# ---------------------------------------------------------------------------
# the reference printer


def ref_sort_key(m: Monomial) -> tuple:
    return tuple((v, e.sort_key(), k) for v, e, k in m.entries)


def ref_scalar_str(s: ExactScalar) -> str:
    # the pre-change scalar_str, whose summands the library now joins once
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
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


def ref_monomial_str(m: Monomial) -> str:
    factors = []
    for v, e, k in m.entries:
        if not e.is_zero():
            factors.append(v if e == 1 else f"{v}^({exponent_str(e)})")
        if k:
            factors.append(f"lg({v})" if k == 1 else f"lg({v})^{k}")
    return "*".join(factors) if factors else "1"


def ref_series_str(f: LogSeries) -> str:
    if f.is_zero():
        return "0"
    items = sorted(f.terms.items(), key=lambda kv: ref_sort_key(kv[0]))
    if f.space.dim != 1:
        parts = []
        for m, vec in items:
            comp = ", ".join(f"[{i}]={ref_scalar_str(v)}" for i, v in sorted(vec.components.items()))
            parts.append(f"({comp})*{ref_monomial_str(m)}")
        return " + ".join(parts)
    out = ""
    for m, vec in items:
        c = vec.scalar_value()
        mono = ref_monomial_str(m)
        if mono == "1":
            text = _coeff_prefix(c)
        elif c == ExactScalar.from_rational(1):
            text = mono
        elif c == ExactScalar.from_rational(-1):
            text = f"-{mono}"
        else:
            text = f"{_coeff_prefix(c)}*{mono}"
        if not out:
            out = text
        elif text.startswith("-"):
            out += f" - {text[1:]}"
        else:
            out += f" + {text}"
    return out


# ---------------------------------------------------------------------------
# inputs

VARS = ("x", "y", "z")
# x^(a+b*i) with negative, fractional and imaginary parts, and x^0 (a pure lg power)
EXPONENTS = st.builds(
    lambda a, b, d: Exponent(Fraction(a, d), Fraction(b, d)),
    st.integers(-4, 4),
    st.sampled_from((0, 0, 0, 1, -1, 5)),
    st.sampled_from((1, 1, 2, 3, 4, 6, 12)),
)
MONOMIALS = st.one_of(
    st.just(Monomial.UNIT),
    st.dictionaries(st.sampled_from(VARS), st.tuples(EXPONENTS, st.integers(0, 3)), min_size=1, max_size=3).map(
        Monomial
    ),
)
# +-1 and other rationals, roots of unity, Pi-powers of both signs and mixed sums
SCALARS = st.one_of(
    st.sampled_from((1, -1, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 6))).map(ExactScalar.from_rational),
    st.builds(lambda k, q: root_of_unity(Fraction(k, 12)) * q, st.integers(1, 23), st.sampled_from((1, -1, 3))),
    st.builds(lambda p, q: ExactScalar.pi_power(p, q), st.integers(-3, 3), st.sampled_from((1, -1, Fraction(2, 3)))),
    st.builds(lambda q, k: pi_scalar(q) + root_of_unity(Fraction(k, 6)), st.sampled_from((1, -1)), st.integers(1, 5)),
)
TRUNCS = st.dictionaries(st.sampled_from(VARS), st.integers(-1, 4), max_size=2)
SPACES = st.sampled_from((CoeffSpace("W", 2), CoeffSpace("W", 3)))


@st.composite
def scalar_series(draw):
    terms = draw(st.dictionaries(MONOMIALS, SCALARS.map(CoeffVector.scalar), max_size=6))
    return LogSeries(SCALAR, terms, draw(TRUNCS))


def vectors(space):
    comps = st.dictionaries(st.integers(0, space.dim - 1), SCALARS, min_size=1, max_size=space.dim)
    return comps.map(lambda c: CoeffVector(space, c))


@st.composite
def vector_series(draw, space=None):
    space = space or draw(SPACES)
    return LogSeries(space, draw(st.dictionaries(MONOMIALS, vectors(space), max_size=4)), draw(TRUNCS))


# ---------------------------------------------------------------------------
# the printer


class TestSortKey:
    @given(MONOMIALS, MONOMIALS)
    @example(Monomial.var("x"), Monomial.var("x") * Monomial.var("y"))  # entry counts differ
    @example(Monomial.var("x", Exponent(0, 1)), Monomial.var("x", Exponent(0, -1)))  # imaginary parts
    @example(Monomial.var("x", -2), Monomial.log("x", 2))  # a negative exponent below x^0
    @example(Monomial.var("x", -1, 1), Monomial.var("x", -1))  # equal exponents, log powers differ
    @settings(max_examples=300, deadline=None)
    def test_flat_key_orders_as_the_nested_key(self, m1, m2):
        assert (m1.sort_key() < m2.sort_key()) == (ref_sort_key(m1) < ref_sort_key(m2))
        assert (m1.sort_key() == m2.sort_key()) == (m1 == m2)

    @given(st.lists(MONOMIALS, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_sorted_lists_agree(self, ms):
        assert sorted(ms, key=Monomial.sort_key) == sorted(ms, key=ref_sort_key)


class TestPrinterAgainstReference:
    @given(scalar_series())
    @settings(max_examples=300, deadline=None)
    def test_scalar_series(self, f):
        assert series_str(f) == ref_series_str(f)

    @given(vector_series())
    @settings(max_examples=150, deadline=None)
    def test_vector_series(self, f):
        assert series_str(f) == ref_series_str(f)

    @given(MONOMIALS)
    @settings(max_examples=200, deadline=None)
    def test_monomials(self, m):
        assert monomial_str(m) == ref_monomial_str(m)

    @given(SCALARS, SCALARS)
    @settings(max_examples=200, deadline=None)
    def test_scalars(self, a, b):
        assert scalar_str(a + b) == ref_scalar_str(a + b)

    @pytest.mark.parametrize(
        "terms, text",
        [
            ({Monomial.UNIT: 1}, "1"),
            ({Monomial.UNIT: -1, Monomial.var("x"): -1}, "-1 - x"),
            ({Monomial.log("x", 2): 1, Monomial.var("x", Exponent(Fraction(1, 2), -1)): -1}, "lg(x)^2 - x^(1/2-1*i)"),
            ({Monomial.var("x", Exponent(0, Fraction(1, 3))): Fraction(-1, 2)}, "-(1/2)*x^(1/3*i)"),
            ({Monomial.var("y", -1, 1): ExactScalar.pi_power(-2, -1)}, "(-Pi^-2)*y^(-1)*lg(y)"),
            ({Monomial.var("x"): pi_scalar(1) + root_of_unity(Fraction(1, 6))}, "(e(1/6) + Pi)*x"),
        ],
    )
    def test_examples(self, terms, text):
        f = LogSeries(SCALAR, {m: CoeffVector.scalar(c) for m, c in terms.items()})
        assert series_str(f) == ref_series_str(f) == text


# ---------------------------------------------------------------------------
# the series difference


def _same(got: LogSeries, want: LogSeries) -> None:
    assert got.space == want.space and got.trunc == want.trunc
    assert list(got.terms.items()) == list(want.terms.items())


class TestDifferenceAgainstSumOfNegative:
    @given(scalar_series(), scalar_series())
    @settings(max_examples=200, deadline=None)
    def test_scalar_series(self, a, b):
        _same(a - b, a + (-b))

    @given(st.data(), SPACES)
    @settings(max_examples=150, deadline=None)
    def test_vector_series(self, data, space):
        a, b = data.draw(vector_series(space)), data.draw(vector_series(space))
        _same(a - b, a + (-b))

    @given(st.one_of(scalar_series(), vector_series()), TRUNCS)
    @settings(max_examples=100, deadline=None)
    def test_full_cancellation(self, a, trunc):
        _same(a - a, a + (-a))
        assert (a - a).is_zero()
        b = LogSeries(a.space, a.terms, trunc)
        _same(a - b, a + (-b))

    @given(scalar_series(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_shared_terms_cancel_or_subtract(self, a, data):
        # b keeps some of a's terms, changes others and adds its own
        terms = {m: data.draw(st.sampled_from((vec, vec.scale(2), -vec))) for m, vec in a.terms.items()}
        b = LogSeries(SCALAR, {**terms, **data.draw(scalar_series()).terms}, data.draw(TRUNCS))
        _same(a - b, a + (-b))

    def test_space_mismatch(self):
        a, b = LogSeries.one(), LogSeries.vector(CoeffVector.basis(CoeffSpace("W", 2), 0))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError) as got:
                x - y
            with pytest.raises(ValueError) as want:
                x + (-y)
            assert str(got.value) == str(want.value)
