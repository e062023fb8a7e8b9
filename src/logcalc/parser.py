"""Recursive-descent parser for the series expression language.

Grammar (EBNF; whitespace free between tokens):

    expr      = term { ("+" | "-") term } ;
    term      = factor { "*" factor } ;
    factor    = ["-"] atom [ "^" power ] ;
    atom      = INT | "Pi" | "i" | "e" "(" rational ")"
              | NAME                          (* a formal variable *)
              | "lg" "(" NAME ")"             (* its log companion *)
              | "(" expr ")" ;
    power     = INT | "(" signed_rational_or_gaussian ")" ;
    rational  = INT [ "/" INT ] ;
    gaussian  = rational | [rational ("+"|"-")] rational "*" "i" | "i" ;

Division is only allowed inside rational literals (``1/2``), keeping the
language total: every well-formed expression denotes a LogSeries.  Variable
exponents must lie on the (1/L)Z[i] lattice and may only be non-integral or
carry log factors on variables (scalars take integer powers).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import ExactScalar, Exponent, imaginary_unit, pi_scalar, root_of_unity
from .series import LogSeries, Monomial

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[()+\-*/^]))"
)

_RESERVED = {"Pi", "i", "e", "lg"}

# Bound on |N| in an integer power (expr)^N of anything but a bare variable or
# lg(variable): the power costs |N| series products, each up to as long as
# the result, so an unbounded N lets one expression run without end.
MAX_INT_POWER = 64


class ParseError(ValueError):
    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} at column {position + 1}: {text!r}")
        self.position = position


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

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.idx] if self.idx < len(self.toks) else None

    def next(self) -> tuple[str, str, int]:
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
    """rational, optionally followed by +/- rational*i (or i alone)."""

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
                den = self.factor()
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
            return base**n
        if len(base.terms) == 1:
            [(m, vec)] = base.terms.items()
            c = vec.scalar_value()
            if m == Monomial.UNIT:
                return LogSeries.constant(c**n)
            if all(k == 0 for _, _, k in m.entries) and c == ExactScalar.from_rational(1):
                inv = Monomial({v: (-e, 0) for v, e, _ in m.entries})
                return LogSeries.monomial(inv) ** (-n)
        raise ParseError("negative powers are only defined for invertible monomials", pos, self.tk.text)

    def atom(self) -> LogSeries:
        if self.tk.accept_op("("):
            e = self.expr()
            self.tk.expect_op(")")
            return e
        kind, text, pos = self.tk.next()
        if kind == "int":
            return LogSeries.constant(Fraction(text))
        if kind == "name":
            if text == "Pi":
                return LogSeries.constant(pi_scalar())
            if text == "i":
                return LogSeries.constant(imaginary_unit())
            if text == "e":
                self.tk.expect_op("(")
                q = _parse_rational(self.tk)
                self.tk.expect_op(")")
                return LogSeries.constant(root_of_unity(q))
            if text == "lg":
                self.tk.expect_op("(")
                t = self.tk.next()
                if t[0] != "name" or t[1] in _RESERVED:
                    raise ParseError("lg(...) needs a variable name", t[2], self.tk.text)
                self.tk.expect_op(")")
                return LogSeries.log_variable(t[1])
            return LogSeries.variable(text)
        raise ParseError("unexpected token", pos, self.tk.text)


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
        inv = ExactScalar.from_rational(1).div_monomial(c)
    except Exception as exc:
        raise ParseError(f"cannot divide: {exc}", pos, text) from exc
    minv = Monomial({v: (-e, -k) for v, e, k in m.entries}) if all(k == 0 for _, _, k in m.entries) else None
    if minv is None:
        raise ParseError("cannot divide by log factors", pos, text)
    return num * LogSeries.monomial(minv, inv)


def parse_expr(text: str) -> LogSeries:
    """Parse an expression into a canonical scalar LogSeries."""
    return _Parser(text).parse()


def parse_scalar(text: str) -> ExactScalar:
    """Parse a scalar literal (no formal variables allowed)."""
    f = parse_expr(text)
    if f.is_zero():
        return ExactScalar.zero()
    if set(f.terms) != {Monomial.UNIT}:
        raise ParseError("expected a scalar, found formal variables", 0, text)
    return f.scalar_coeff(Monomial.UNIT)


def parse_exponent(text: str) -> Exponent:
    return _parse_gaussian_text(text)


def _parse_gaussian_text(text: str) -> Exponent:
    tk = _Tokens(text)
    e = _parse_gaussian(tk)
    if tk.peek() is not None:
        raise ParseError("trailing input in exponent", tk.peek()[2], text)
    return e
