import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc import catalog, cli, parser
from logcalc.parser import MAX_INT_POWER, MAX_PARSE_PAIRS, ParseError, parse_expr, parse_exponent, parse_scalar
from logcalc.printer import exponent_str, scalar_str, series_str
from logcalc.scalars import ExactScalar, Exponent, LatticeViolation, imaginary_unit, pi_scalar, root_of_unity
from logcalc.series import LogSeries, Monomial


class TestParseExamples:
    def test_single_term(self):
        f = parse_expr("x^(1/2)*lg(x)^2")
        assert f == LogSeries.monomial(Monomial.var("x", Fraction(1, 2), 2))

    def test_two_terms_canonical_order(self):
        # sorted by (variable, exponent, log power): the lg term has x-exponent 0
        f = parse_expr("2*x + lg(x)")
        assert series_str(f) == "lg(x) + 2*x"
        assert parse_expr(series_str(f)) == f

    def test_lattice_violation(self):
        with pytest.raises(LatticeViolation):
            parse_expr("x^(1/7)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x^")
        assert "column" in str(err.value)

    @pytest.mark.parametrize("text, column", [("e(1/0)", 5), ("x^(1/0)", 6), ("x^(1/2+3/0*i)", 10)])
    def test_zero_denominator_is_a_parse_error(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert "zero denominator" in str(err.value) and err.value.position == column - 1

    def test_scalar_literals(self):
        assert parse_scalar("3/4") == ExactScalar.from_rational(Fraction(3, 4))
        assert parse_scalar("i") == imaginary_unit()
        assert parse_scalar("Pi^2") == pi_scalar() * pi_scalar()
        assert parse_scalar("e(1/2)") == imaginary_unit()
        assert parse_scalar("1/2+1/3*i") == ExactScalar.from_rational(Fraction(1, 2)) + imaginary_unit() * Fraction(1, 3)

    def test_gaussian_exponent(self):
        e = parse_exponent("1/2-2/3*i")
        assert e == Exponent(Fraction(1, 2), Fraction(-2, 3))
        assert parse_exponent(exponent_str(e)) == e

    def test_division_by_monomial(self):
        assert parse_expr("x/2") == LogSeries.variable("x").scale(Fraction(1, 2))
        assert parse_expr("1/x") == LogSeries.variable("x", -1)

    @pytest.mark.parametrize("text, column", [("1/0", 3), ("x/(x-x)", 3), ("x + 2/ -0", 8), ("1/(0*x)", 3)])
    def test_division_by_zero_names_the_divisor(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert str(err.value).startswith("division by zero at column") and err.value.position == column - 1

    def test_division_by_sum_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("1/(x+1)")

    def test_negative_monomial_power(self):
        assert parse_expr("(x*y)^-2") == LogSeries.monomial(
            Monomial.var("x", -2) * Monomial.var("y", -2)
        )

    @pytest.mark.parametrize(
        "text, column",
        [("(x+1)^100000", 7), ("(x + y)^(65)", 9), ("(x*y)^-65", 7), ("Pi^-100", 4), ("(2*x)^1000", 7)],
    )
    def test_integer_power_bound(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert "exceeds the bound" in str(err.value) and err.value.position == column - 1

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("x + lg(x)^-2", "log powers must be nonnegative", 11),
            ("x + lg(x)^(-2)", "log powers must be nonnegative", 11),
            ("x + (x+1)^-2", "negative powers are only defined for invertible monomials", 11),
            ("(2*x + 1)^(-1)", "negative powers are only defined for invertible monomials", 11),
            ("(1+Pi)^-1", "cannot invert", 8),
            ("x + (Pi - 1)^(-2)", "cannot invert", 14),
        ],
    )
    def test_bad_power_reports_the_exponent_column(self, text, message, column):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert message in str(err.value) and err.value.position == column - 1

    def test_integer_power_at_the_bound(self):
        n = MAX_INT_POWER
        assert len(parse_expr(f"(x+1)^{n}").terms) == n + 1
        assert parse_expr(f"(x*y)^-{n}") == LogSeries.monomial(Monomial.var("x", -n) * Monomial.var("y", -n))
        # powers of a bare variable or lg(variable) are single terms: not bounded
        assert parse_expr("x^100000") == LogSeries.variable("x", 100000)
        assert parse_expr("lg(x)^100") == LogSeries.log_variable("x", 100)


SUMS = st.lists(
    st.sampled_from(("x", "y", "z", "w", "x^(1/2)", "lg(x)", "Pi", "2", "e(1/3)", "x*y", "y^(-1)")),
    min_size=2, max_size=6, unique=True,
).map(lambda terms: "(" + " + ".join(terms) + ")")


@st.composite
def expansions(draw) -> str:
    """Powers, powers of powers and products of sums: a few terms to millions."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return f"{draw(SUMS)}^{draw(st.integers(0, MAX_INT_POWER))}"
    if kind == 1:
        return f"({draw(SUMS)}^{draw(st.integers(1, 24))})^{draw(st.integers(1, 24))}"
    return "*".join(draw(SUMS) for _ in range(draw(st.integers(2, 8))))


class TestParseBudget:
    HOSTILE = [("(x+y+z+w+u+v+a+b)^64", 17), ("(((x+y)^64)^64)^64", 11)]

    @pytest.mark.parametrize("text, caret", HOSTILE)
    def test_hostile_expansions_exit_2_fast(self, text, caret, capsys):
        start = time.perf_counter()
        assert cli.main(["eval", text]) == 2
        assert time.perf_counter() - start < 1
        assert f"expansion exceeds the bound of {MAX_PARSE_PAIRS} term pairs per parse at column {caret + 1}" in (
            capsys.readouterr().err
        )

    def test_a_product_is_charged_before_it_is_formed(self):
        big = "(" + " + ".join(f"x^({k}/12)" for k in range(1001)) + ")"
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_expr(f"{big}*{big}")
        assert time.perf_counter() - start < 1 and err.value.position == len(big)

    @given(expansions())
    @settings(max_examples=200, deadline=None)
    def test_near_the_budget_a_result_or_exit_2(self, text):
        """Under a budget of 2000 pairs (the bound scales the work, not the rule), an expansion
        parses within the budget or exits 2 at a product's operator, never runs on."""
        budget, formed = 2000, []
        product = parser._mul_terms

        def counted(a, b):
            formed.append(len(a) * len(b))
            return product(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parser, "MAX_PARSE_PAIRS", budget)
            mp.setattr(parser, "_mul_terms", counted)
            try:
                f = parse_expr(text)
            except ParseError as exc:
                assert sum(formed) <= budget
                assert f"bound of {budget} term pairs" in str(exc) and text[exc.position] in "*^"
                assert cli.main(["eval", text]) == 2
            else:
                assert sum(formed) <= budget
                mp.setattr(parser, "MAX_PARSE_PAIRS", 10**9)
                assert parse_expr(text) == f


class TestRoundTrip:
    def test_spec_format_example(self):
        text = "(1/2)*x^(-1/2) + 3*x^(1/2)*lg(x)^2"
        f = parse_expr(text)
        assert series_str(f) == text

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_parse_after_print_random_series(self, seed):
        rng = random.Random(seed)
        f = catalog.random_log_series(rng, max_terms=5)
        assert parse_expr(series_str(f)).equal_terms(f)

    def test_print_is_canonical_fixed_point(self):
        texts = [
            "x + lg(y)*y^(-1/3) - (5/7)*z^(2+1/2*i)",
            "Pi*x - e(5/6)*lg(x)^3",
            "(1 + Pi)*x",
        ]
        for text in texts:
            once = series_str(parse_expr(text))
            assert series_str(parse_expr(once)) == once


class TestScalarPrinting:
    def test_zero(self):
        assert scalar_str(ExactScalar.zero()) == "0"

    def test_mixed_pi_terms_sorted(self):
        s = pi_scalar() ** 2 + root_of_unity(Fraction(1, 6)) - pi_scalar(3)
        text = scalar_str(s)
        assert parse_scalar(text) == s

    def test_pure_root(self):
        assert scalar_str(root_of_unity(Fraction(1, 6))) == "e(1/6)"
