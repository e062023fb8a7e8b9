"""The one-pass parser against the reference parser it replaced.

The reference below evaluates every factor as a full LogSeries: each product
is a series product, each division a `_divide_series` call and each `+` a
rebuilt accumulator.  The one-pass parser must agree with it on every value,
on the order of the terms, and on every ParseError message and column.  The
reference gained one rule since: a zero divisor is "division by zero" at the
divisor's column, where both parsers once said "division only by constants or
monomials" at the column of the slash.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcalc.parser import MAX_INT_POWER, MAX_NESTING, ParseError, parse_expr, parse_exponent, parse_scalar
from logcalc.scalars import (
    ExactScalar,
    Exponent,
    LatticeViolation,
    UnsupportedDivision,
    imaginary_unit,
    pi_scalar,
    root_of_unity,
)
from logcalc.series import LogSeries, Monomial

# ---------------------------------------------------------------------------
# reference: the series-by-series parser

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[()+\-*/^]))")
_RESERVED = {"Pi", "i", "e", "lg"}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == m.start():
                if text[pos:].strip():
                    raise ParseError("unexpected character", pos, text)
                break
            for kind in ("int", "name", "op"):
                if m.group(kind) is not None:
                    self.toks.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.idx = 0

    def peek(self):
        return self.toks[self.idx] if self.idx < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.text), self.text)
        self.idx += 1
        return t

    def accept_op(self, op: str) -> bool:
        t = self.peek()
        if t and t[0] == "op" and t[1] == op:
            self.idx += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        t = self.peek()
        if not (t and t[0] == "op" and t[1] == op):
            pos = t[2] if t else len(self.text)
            raise ParseError(f"expected {op!r}", pos, self.text)
        self.idx += 1


def _parse_int(tk: _Tokens) -> int:
    sign = 1
    while tk.accept_op("-"):
        sign = -sign
    t = tk.next()
    if t[0] != "int":
        raise ParseError("expected an integer", t[2], tk.text)
    return sign * int(t[1])


def _parse_rational(tk: _Tokens) -> Fraction:
    num = _parse_int(tk)
    if tk.accept_op("/"):
        t = tk.peek()
        pos = t[2] if t else len(tk.text)
        den = _parse_int(tk)
        if den == 0:
            raise ParseError("zero denominator", pos, tk.text)
        return Fraction(num, den)
    return Fraction(num)


def _parse_gaussian(tk: _Tokens) -> Exponent:
    def part() -> tuple[Fraction, bool]:
        t = tk.peek()
        if t and t[0] == "name" and t[1] == "i":
            tk.next()
            return Fraction(1), True
        q = _parse_rational(tk)
        t = tk.peek()
        if t and t[0] == "op" and t[1] == "*":
            nxt = tk.toks[tk.idx + 1] if tk.idx + 1 < len(tk.toks) else None
            if nxt and nxt[0] == "name" and nxt[1] == "i":
                tk.next()
                tk.next()
                return q, True
        return q, False

    re_part = Fraction(0)
    im_part = Fraction(0)
    q, imag = part()
    if imag:
        im_part += q
    else:
        re_part += q
    t = tk.peek()
    if t and t[0] == "op" and t[1] in "+-":
        sign = 1 if t[1] == "+" else -1
        tk.next()
        q, imag = part()
        if not imag:
            raise ParseError("second summand of a Gaussian literal must be imaginary", t[2], tk.text)
        im_part += sign * q
    return Exponent(re_part, im_part)


def _parse_power_exponent(tk: _Tokens) -> Exponent:
    if tk.accept_op("("):
        e = _parse_gaussian(tk)
        tk.expect_op(")")
        return e
    return Exponent(_parse_int(tk))


def _parse_int_power(tk: _Tokens) -> int:
    if tk.accept_op("("):
        n = _parse_int(tk)
        tk.expect_op(")")
        return n
    return _parse_int(tk)


class _Parser:
    def __init__(self, text: str):
        self.tk = _Tokens(text)

    def parse(self) -> LogSeries:
        out = self.expr()
        t = self.tk.peek()
        if t is not None:
            raise ParseError("trailing input", t[2], self.tk.text)
        return out

    def expr(self) -> LogSeries:
        acc = self.term()
        while True:
            if self.tk.accept_op("+"):
                acc = acc + self.term()
            elif self.tk.accept_op("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> LogSeries:
        acc = self.factor()
        while True:
            t = self.tk.peek()
            if t and t[0] == "op" and t[1] == "*":
                self.tk.next()
                acc = acc * self.factor()
            elif t and t[0] == "op" and t[1] == "/":
                self.tk.next()
                at = self.tk.peek()
                den = self.factor()
                if den.is_zero():
                    raise ParseError("division by zero", at[2], self.tk.text)
                acc = _divide_series(acc, den, t[2], self.tk.text)
            else:
                return acc

    def factor(self) -> LogSeries:
        sign = 1
        while self.tk.accept_op("-"):
            sign = -sign
        f = self.atom()
        t = self.tk.peek()
        if t and t[0] == "op" and t[1] == "^":
            self.tk.next()
            f = self._power(f)
        return f if sign > 0 else -f

    def _power(self, base: LogSeries) -> LogSeries:
        var = _single_variable(base)
        if var is not None:
            e = _parse_power_exponent(self.tk)
            return LogSeries.variable(var, e)
        t = self.tk.peek()
        pos = t[2] if t else len(self.tk.text)
        log = _single_log(base)
        if log is not None:
            k = _parse_int_power(self.tk)
            if k < 0:
                raise ParseError("log powers must be nonnegative", pos, self.tk.text)
            return LogSeries.log_variable(log, k)
        n = _parse_int_power(self.tk)
        if abs(n) > MAX_INT_POWER:
            raise ParseError(f"integer power {n} exceeds the bound |N| <= {MAX_INT_POWER}", pos, self.tk.text)
        if n >= 0:
            return _power(base, n)
        if len(base.terms) == 1:
            [(m, vec)] = base.terms.items()
            c = vec.scalar_value()
            if m == Monomial.UNIT:
                return LogSeries.one().scale(c**n)
            if all(k == 0 for _, _, k in m.entries) and c == ExactScalar.from_rational(1):
                inv = Monomial({v: (-e, 0) for v, e, _ in m.entries})
                return _power(LogSeries.monomial(inv), -n)
        raise ParseError("negative powers are only defined for invertible monomials", pos, self.tk.text)

    def atom(self) -> LogSeries:
        if self.tk.accept_op("("):
            e = self.expr()
            self.tk.expect_op(")")
            return e
        kind, text, pos = self.tk.next()
        if kind == "int":
            return LogSeries.one().scale(Fraction(text))
        if kind == "name":
            if text == "Pi":
                return LogSeries.one().scale(pi_scalar())
            if text == "i":
                return LogSeries.one().scale(imaginary_unit())
            if text == "e":
                self.tk.expect_op("(")
                q = _parse_rational(self.tk)
                self.tk.expect_op(")")
                return LogSeries.one().scale(root_of_unity(q))
            if text == "lg":
                self.tk.expect_op("(")
                t = self.tk.next()
                if t[0] != "name" or t[1] in _RESERVED:
                    raise ParseError("lg(...) needs a variable name", t[2], self.tk.text)
                self.tk.expect_op(")")
                return LogSeries.log_variable(t[1])
            return LogSeries.variable(text)
        raise ParseError("unexpected token", pos, self.tk.text)


def _power(f: LogSeries, n: int) -> LogSeries:
    """f^n for n >= 0, multiplied out one factor at a time."""
    out = LogSeries.one().with_trunc(f.trunc)
    for _ in range(n):
        out = out * f
    return out


def _single_variable(f: LogSeries) -> str | None:
    if len(f.terms) != 1:
        return None
    [(m, vec)] = f.terms.items()
    if vec.scalar_value() != ExactScalar.from_rational(1) or len(m.entries) != 1:
        return None
    v, e, k = m.entries[0]
    return v if e == 1 and k == 0 else None


def _single_log(f: LogSeries) -> str | None:
    if len(f.terms) != 1:
        return None
    [(m, vec)] = f.terms.items()
    if vec.scalar_value() != ExactScalar.from_rational(1) or len(m.entries) != 1:
        return None
    v, e, k = m.entries[0]
    return v if e.is_zero() and k == 1 else None


def _divide_series(num: LogSeries, den: LogSeries, pos: int, text: str) -> LogSeries:
    if len(den.terms) != 1:
        raise ParseError("division only by constants or monomials", pos, text)
    [(m, vec)] = den.terms.items()
    c = vec.scalar_value()
    try:
        inv = ExactScalar.from_rational(1) * c.inverse()
    except Exception as exc:
        raise ParseError(f"cannot divide: {exc}", pos, text) from exc
    minv = Monomial({v: (-e, -k) for v, e, k in m.entries}) if all(k == 0 for _, _, k in m.entries) else None
    if minv is None:
        raise ParseError("cannot divide by log factors", pos, text)
    return num * LogSeries.monomial(minv, inv)


def reference_parse_expr(text: str) -> LogSeries:
    return _Parser(text).parse()


def reference_parse_scalar(text: str) -> ExactScalar:
    f = reference_parse_expr(text)
    if f.is_zero():
        return ExactScalar.zero()
    if set(f.terms) != {Monomial.UNIT}:
        raise ParseError("expected a scalar, found formal variables", 0, text)
    return f.coeff(Monomial.UNIT).scalar_value()


def reference_parse_exponent(text: str) -> Exponent:
    tk = _Tokens(text)
    e = _parse_gaussian(tk)
    if tk.peek() is not None:
        raise ParseError("trailing input in exponent", tk.peek()[2], text)
    return e


# ---------------------------------------------------------------------------
# comparison


def _outcome(parse, text: str):
    """The parsed value with its term order, or the error's type, message and column."""
    try:
        f = parse(text)
    except (ParseError, LatticeViolation) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)
    if isinstance(f, LogSeries):
        return f, tuple(f.terms)
    return f


def _agree(text: str) -> None:
    try:
        want = _outcome(reference_parse_expr, text)
    except UnsupportedDivision:
        # the reference let a non-invertible constant's negative power escape
        kind, message, _ = _outcome(parse_expr, text)
        assert kind == "ParseError" and "cannot invert" in message
        return
    assert _outcome(parse_expr, text) == want


VARIABLES = st.sampled_from(("x", "y", "z"))
DENOMINATORS = st.sampled_from((1, 2, 3, 4, 6, 12))
ATOMS = st.one_of(
    st.integers(0, 12).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 9), DENOMINATORS),
    VARIABLES,
    st.builds(lambda v, p, q: f"{v}^({p}/{q})", VARIABLES, st.integers(-6, 6), DENOMINATORS),
    st.builds(lambda v, p, q: f"{v}^({p}/{q}-{q}/{p or 1}*i)", VARIABLES, st.integers(-6, 6), DENOMINATORS),
    st.builds(lambda v, n: f"{v}^{n}", VARIABLES, st.integers(-3, 3)),
    st.builds(lambda v, k: f"lg({v})^{k}", VARIABLES, st.integers(-1, 4)),
    st.builds(lambda v: f"lg({v})", VARIABLES),
    st.builds(lambda p, q: f"e({p}/{q})", st.integers(-12, 12), DENOMINATORS),
    st.sampled_from(("Pi", "i", "Pi^2", "Pi^-1", "i^-3", "(1+Pi)^-1", "(2*x)^-1", "(x*y)^-2", "(x - x)^-1")),
    st.sampled_from(("(x)^(1/2)", "(1*x)^(1/2)", "(x + 0)^(1/2)", "(lg(x))^2", "(1*lg(y))^(0)", "(0)^0")),
)
OPERATORS = st.sampled_from((" + ", " - ", "*", "/", " * -"))
POWERS = st.sampled_from(("0", "1", "2", "-1", "(2)", "(-1)"))


@st.composite
def expressions(draw, depth: int = 0) -> str:
    if depth == 2 or draw(st.integers(0, 3)) == 0:
        return draw(ATOMS)
    text = draw(expressions(depth + 1))
    for _ in range(draw(st.integers(0, 2))):
        text += draw(OPERATORS) + draw(expressions(depth + 1))
    if draw(st.booleans()):
        text = f"({text})"
        if depth > 0 and draw(st.booleans()):
            text += "^" + draw(POWERS)
    return text


def _corruptions(text: str) -> list[str]:
    """The six malformed variants that the benchmark feeds the parser."""
    middle = len(text) // 2
    return [
        text + " +",
        "(" + text,
        text + ")",
        text[:middle] + "#" + text[middle:],
        text + " / (x + 1)",
        text + "^",
    ]


class TestAgainstReference:
    @given(expressions())
    @settings(max_examples=300, deadline=None)
    def test_generated_expressions(self, text):
        _agree(text)

    @given(expressions())
    @settings(max_examples=100, deadline=None)
    def test_corrupted_expressions(self, text):
        for bad in _corruptions(text):
            _agree(bad)

    @given(expressions(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_insertions(self, text, data):
        pos = data.draw(st.integers(0, len(text)))
        ch = data.draw(st.sampled_from("()+-*/^#$ .,lgiePx0_\t") | st.characters())
        _agree(text[:pos] + ch + text[pos:])

    @pytest.mark.parametrize(
        "text",
        [
            "", "   ", "x  ", "  x # y", "x  $", "()", "(", ")", "x^", "x^2^3", "lg(x", "lg(Pi)", "lg(3)", "e(1/0)",
            "x^(1/7)", "e(1/7)", "x^(i)", "x^(1/2+3*i)", "x^(1/2+3)", "1/0", "x/0", "1/(x+1)", "1/(1+Pi)",
            "x/lg(x)", "lg(x)/x", "lg(x)^-1", "(lg(x))^-1", "(lg(x) + 0)^-1", "(2*x)^(1/2)", "(x*y)^(1/2)",
            "-0", "--x", "x - -y", "(x+1)^65", "(x*y)^-65", "Pi^-64", "i^64", "(0)^-1", "0^2", "(x+y)*(x-y)",
            "(x+1)*(x-1) - x^2", "x*0 + y", "1/2/3", "(1/2)*x^(-1/2) + 3*x^(1/2)*lg(x)^2", "e(1/", "e(1/2",
            "x^(", "x^(1/", "x^(1/2+", "x^(1/2+3*", "x^(1/2+3*i", "x^(i+", "lg(", "lg(x)^(", "lg(x)^(-", "(x+1)^(",
        ],
    )
    def test_edge_cases(self, text):
        _agree(text)


RATIONAL_LITERALS = st.builds(
    lambda sign, num, den: sign + num + den,
    st.sampled_from(("", "-")),
    st.from_regex(r"[0-9]{1,25}", fullmatch=True),
    st.one_of(st.just(""), st.from_regex(r"/[0-9]{1,25}", fullmatch=True)),
)


class TestParseScalar:
    @given(RATIONAL_LITERALS)
    @example("-0")
    @example("007")
    @example("2/4")
    @example("1/0")
    @example("-0/05")
    @settings(max_examples=300, deadline=None)
    def test_rational_literals_match_the_grammar(self, text):
        assert _outcome(parse_scalar, text) == _outcome(reference_parse_scalar, text)

    @pytest.mark.parametrize(
        "text", ["0", "-0", "007", "2/4", "1/0", " 1", "1/2*i", "Pi^-1", "(1 + e(1/6))*Pi", "x", "1 + x - x", "+1"]
    )
    def test_other_scalars_match_the_reference(self, text):
        assert _outcome(parse_scalar, text) == _outcome(reference_parse_scalar, text)

    def test_values(self):
        assert parse_scalar("2/4") == ExactScalar.from_rational(Fraction(1, 2))
        assert parse_scalar("-0").is_zero() and parse_scalar("007") == ExactScalar.from_rational(7)
        with pytest.raises(ParseError) as err:
            parse_scalar("1/0")
        assert "division by zero" in str(err.value) and err.value.position == 2


GAUSSIAN_PARTS = st.sampled_from(("0", "1", "-2", "1/2", "-5/6", "3/0", "1/7", "i", "2*i", "1/2*i", "-1/3*i", "x", ""))


class TestParseExponent:
    @given(GAUSSIAN_PARTS, st.sampled_from(("", "+", "-", " + ", "*", "/")), GAUSSIAN_PARTS, st.sampled_from(("", " ", ")", "#")))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference(self, a, op, b, tail):
        text = a + op + b + tail
        assert _outcome(parse_exponent, text) == _outcome(reference_parse_exponent, text)


class TestArbitraryText:
    @given(st.text(alphabet=st.sampled_from("()+-*/^ xyzlgePi0123456789_.#") | st.characters(), max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_only_parse_or_lattice_errors(self, text):
        try:
            parse_expr(text)
        except (ParseError, LatticeViolation):
            pass

    @pytest.mark.parametrize("text", ["1" * 5000, "x^" + "2" * 5000, "e(1/" + "3" * 5000 + ")"])
    def test_overlong_integer_is_a_parse_error(self, text):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert "integer literal too long" in str(err.value)
        with pytest.raises(ParseError):
            parse_scalar(text)

    def test_deep_nesting_is_a_parse_error(self):
        ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_expr(ok) == LogSeries.variable("x")
        deep = "(" * (10 * MAX_NESTING) + "x" + ")" * (10 * MAX_NESTING)
        with pytest.raises(ParseError) as err:
            parse_expr(deep)
        assert "nested deeper than" in str(err.value) and err.value.position == MAX_NESTING
