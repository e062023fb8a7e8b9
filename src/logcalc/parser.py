"""Recursive-descent parser for the series expression language.

Grammar (EBNF; whitespace free between tokens):

    expr      = term { ("+" | "-") term } ;
    term      = factor { ("*" | "/") factor } ;
    factor    = ["-"] atom [ "^" power ] ;
    atom      = INT | "Pi" | "i" | "e" "(" rational ")"
              | NAME                          (* a formal variable *)
              | "lg" "(" NAME ")"             (* its log companion *)
              | "(" expr ")" ;
    power     = INT | "(" signed_rational_or_gaussian ")" ;
    rational  = INT [ "/" INT ] ;
    gaussian  = rational | [rational ("+"|"-")] rational "*" "i" | "i" ;

Division is only by a nonzero constant Pi-monomial times a log-free
monomial (``1/2``, ``x/Pi``), keeping the language total: every well-formed
expression denotes a LogSeries.  Variable exponents must lie on the
(1/L)Z[i] lattice and may only be non-integral or carry log factors on
variables (scalars take integer powers).

Evaluation happens during the parse, in one pass.  A factor's value is
either one nonzero term, held as a ``(coefficient, monomial)`` pair, or a
``monomial -> coefficient`` dict of any other length.  A term folds a run of
one-term factors into one pair; only a factor of several terms costs a real
product.  A sum accumulates into one dict, and the parse builds a single
LogSeries from it at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .scalars import LATTICE, ExactScalar, Exponent, UnsupportedDivision, imaginary_unit, pi_scalar, root_of_unity
from .scalars import _RATIONAL, _reduced  # n/d as a scalar, reduced once
from .series import SCALAR, CoeffVector, LogSeries, Monomial

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[()+\-*/^])|(?P<bad>\S))"
)

# a plain rational literal, which parse_scalar reads without the grammar
_RATIONAL_LITERAL = re.compile(r"-?[0-9]{1,100}(?:/[1-9][0-9]{0,99})?")

_RESERVED = {"Pi", "i", "e", "lg"}

# Bound on |N| in an integer power (expr)^N of anything but a bare variable or
# lg(variable): the power costs |N| series products, each up to as long as
# the result, so an unbounded N lets one expression run without end.
MAX_INT_POWER = 64

# Bound on nested parentheses: each level costs a few stack frames of the
# recursive descent, so deeper input would end in a RecursionError.
MAX_NESTING = 100

_EXPONENT_ZERO = Exponent(0)
_EXPONENT_ONE = Exponent(1)
_FRACTION_ONE = Fraction(1)

Terms = dict[Monomial, ExactScalar]
Value = Union[tuple[ExactScalar, Monomial], Terms]


class ParseError(ValueError):
    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} at column {position + 1}: {text!r}")
        self.position = position


class _Tokens:
    """The tokens of a text as (kind, text, column), ended by an "end" token
    at the text's length whose empty text matches no operator."""

    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                # reported where the previous token ends, before the whitespace
                raise ParseError("unexpected character", m.start(), text)
            value = m[kind]
            self.toks.append((kind, value, m.end() - len(value)))
        self.toks.append(("end", "", len(text)))
        self.idx = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.idx]

    def at_end(self) -> bool:
        return self.toks[self.idx][0] == "end"

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.idx]
        if t[0] == "end":
            raise ParseError("unexpected end of input", t[2], self.text)
        self.idx += 1
        return t

    def accept_op(self, op: str) -> bool:
        # only operator tokens are one of ()+-*/^
        if self.toks[self.idx][1] == op:
            self.idx += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        t = self.toks[self.idx]
        if t[1] != op:
            raise ParseError(f"expected {op!r}", t[2], self.text)
        self.idx += 1


def _int_value(t: tuple[str, str, int], text: str) -> int:
    try:
        return int(t[1])
    except ValueError:  # more digits than the interpreter converts
        raise ParseError("integer literal too long", t[2], text) from None


def _parse_int(tk: _Tokens) -> int:
    sign = 1
    while tk.accept_op("-"):
        sign = -sign
    t = tk.next()
    if t[0] != "int":
        raise ParseError("expected an integer", t[2], tk.text)
    return sign * _int_value(t, tk.text)


def _parse_rational(tk: _Tokens) -> Fraction:
    num = _parse_int(tk)
    if tk.accept_op("/"):
        pos = tk.peek()[2]
        den = _parse_int(tk)
        if den == 0:
            raise ParseError("zero denominator", pos, tk.text)
        return Fraction(num, den)
    return Fraction(num)


def _parse_gaussian(tk: _Tokens) -> Exponent:
    """rational, optionally followed by +/- rational*i (or i alone)."""

    def part() -> tuple[Fraction, bool]:
        t = tk.peek()
        if t[0] == "name" and t[1] == "i":
            tk.next()
            return Fraction(1), True
        q = _parse_rational(tk)
        if tk.peek()[1] == "*":
            nxt = tk.toks[tk.idx + 1]
            if nxt[0] == "name" and nxt[1] == "i":
                tk.next()
                tk.next()
                return q, True
        return q, False

    q, imag = part()
    re_part, im_part = (0, q) if imag else (q, 0)
    t = tk.peek()
    if t[1] == "+" or t[1] == "-":
        tk.next()
        q, imag = part()
        if not imag:
            raise ParseError("second summand of a Gaussian literal must be imaginary", t[2], tk.text)
        im_part = im_part + q if t[1] == "+" else im_part - q
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
        self.depth = 0

    def parse(self) -> Terms:
        out = self.expr()
        if not self.tk.at_end():
            raise ParseError("trailing input", self.tk.peek()[2], self.tk.text)
        return out

    def expr(self) -> Terms:
        acc: Terms = {}
        _add_into(acc, self.term(), False)
        while True:
            if self.tk.accept_op("+"):
                _add_into(acc, self.term(), False)
            elif self.tk.accept_op("-"):
                _add_into(acc, self.term(), True)
            else:
                return acc

    def term(self) -> Value:
        acc = self.factor()
        while True:
            t = self.tk.peek()
            if t[1] == "*":
                self.tk.next()
                acc = _product(acc, self.factor())
            elif t[1] == "/":
                self.tk.next()
                at = self.tk.peek()[2]
                den = self.factor()
                if not den:  # a zero divisor is the empty sum
                    raise ParseError("division by zero", at, self.tk.text)
                acc = _product(acc, _reciprocal(den, t[2], self.tk.text))
            else:
                return acc

    def factor(self) -> Value:
        sign = 1
        while self.tk.accept_op("-"):
            sign = -sign
        f = self.atom()
        if self.tk.accept_op("^"):
            f = self._power(f)
        if sign > 0:
            return f
        if f.__class__ is tuple:
            return -f[0], f[1]
        return {m: -c for m, c in f.items()}

    def _power(self, base: Value) -> Value:
        var = _single_factor(base, 1, 0)
        if var is not None:
            e = _parse_power_exponent(self.tk)
            return _one(), Monomial.var(var, e)
        pos = self.tk.peek()[2]
        log = _single_factor(base, 0, 1)
        if log is not None:
            k = _parse_int_power(self.tk)
            if k < 0:
                raise ParseError("log powers must be nonnegative", pos, self.tk.text)
            return _one(), Monomial.log(log, k)
        n = _parse_int_power(self.tk)
        if abs(n) > MAX_INT_POWER:
            raise ParseError(f"integer power {n} exceeds the bound |N| <= {MAX_INT_POWER}", pos, self.tk.text)
        if base.__class__ is not tuple:
            if n < 0:
                raise ParseError("negative powers are only defined for invertible monomials", pos, self.tk.text)
            out: Terms = {Monomial.UNIT: _one()}
            for _ in range(n):
                out = _mul_terms(out, base)
            return _as_value(out)
        c, m = base
        if n < 0 and m != Monomial.UNIT:
            # a monomial inverts only with coefficient 1 and no log factors
            if not _is_one(c) or any(k for _, _, k in m.entries):
                raise ParseError("negative powers are only defined for invertible monomials", pos, self.tk.text)
        try:
            c = c**n
        except UnsupportedDivision as exc:
            raise ParseError(f"cannot invert: {exc}", pos, self.tk.text) from exc
        return c, _monomial_power(m, n)

    def atom(self) -> Value:
        t = self.tk.next()
        kind, text, pos = t
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos, self.tk.text)
            self.depth += 1
            e = self.expr()
            self.tk.expect_op(")")
            self.depth -= 1
            return _as_value(e)
        if kind == "int":
            n = _int_value(t, self.tk.text)
            return (ExactScalar.from_rational(n), Monomial.UNIT) if n else {}
        if kind == "name":
            if text == "Pi":
                return pi_scalar(), Monomial.UNIT
            if text == "i":
                return imaginary_unit(), Monomial.UNIT
            if text == "e":
                self.tk.expect_op("(")
                q = _parse_rational(self.tk)
                self.tk.expect_op(")")
                return root_of_unity(q), Monomial.UNIT
            if text == "lg":
                self.tk.expect_op("(")
                t = self.tk.next()
                if t[0] != "name" or t[1] in _RESERVED:
                    raise ParseError("lg(...) needs a variable name", t[2], self.tk.text)
                self.tk.expect_op(")")
                return _one(), Monomial._trusted(((t[1], _EXPONENT_ZERO, 1),))
            return _one(), Monomial._trusted(((text, _EXPONENT_ONE, 0),))
        raise ParseError("unexpected token", pos, self.tk.text)


def _as_value(terms: Terms) -> Value:
    """A sum of exactly one term as its (coefficient, monomial) pair."""
    if len(terms) != 1:
        return terms
    [(m, c)] = terms.items()
    return c, m


def _terms(value: Value) -> Terms:
    return {value[1]: value[0]} if value.__class__ is tuple else value


def _one() -> ExactScalar:
    return ExactScalar.from_rational(_FRACTION_ONE)


def _is_one(c: ExactScalar) -> bool:
    return c == 1


def _single_factor(f: Value, exponent: int, log_power: int) -> str | None:
    """The variable v if f is exactly v^exponent * lg(v)^log_power, else None."""
    if f.__class__ is not tuple:
        return None
    c, m = f
    if len(m.entries) != 1 or not _is_one(c):
        return None
    v, e, k = m.entries[0]
    return v if e.a == exponent * LATTICE and not e.b and k == log_power else None


def _monomial_power(m: Monomial, n: int) -> Monomial:
    if n == 0:
        return Monomial.UNIT
    return Monomial._trusted(tuple((v, Exponent._lattice(e.a * n, e.b * n), k * n) for v, e, k in m.entries))


def _mul_terms(a: Terms, b: Terms) -> Terms:
    """The product of two sums, term by term in the order of LogSeries.__mul__."""
    out: Terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 * m2
            p = c1 * c2
            cur = out.get(m)
            if cur is None:
                out[m] = p
            else:
                p = cur + p
                if p.is_zero():
                    del out[m]
                else:
                    out[m] = p
    return out


def _product(a: Value, b: Value) -> Value:
    if a.__class__ is tuple and b.__class__ is tuple:
        # the scalar ring has no zero divisors: the product stays one nonzero term
        return a[0] * b[0], a[1] * b[1]
    return _as_value(_mul_terms(_terms(a), _terms(b)))


def _reciprocal(den: Value, pos: int, text: str) -> tuple[ExactScalar, Monomial]:
    if den.__class__ is not tuple:
        raise ParseError("division only by constants or monomials", pos, text)
    c, m = den
    try:
        inv = c.inverse()
    except UnsupportedDivision as exc:
        raise ParseError(f"cannot divide: {exc}", pos, text) from exc
    if any(k for _, _, k in m.entries):
        raise ParseError("cannot divide by log factors", pos, text)
    return inv, _monomial_power(m, -1)


def _add_into(acc: Terms, value: Value, negate: bool) -> None:
    for m, c in _terms(value).items():
        if negate:
            c = -c
        cur = acc.get(m)
        if cur is None:
            acc[m] = c
        else:
            c = cur + c
            if c.is_zero():
                del acc[m]
            else:
                acc[m] = c


def parse_expr(text: str) -> LogSeries:
    """Parse an expression into a canonical scalar LogSeries."""
    terms = _Parser(text).parse()
    return LogSeries._trusted(SCALAR, {m: CoeffVector._trusted(SCALAR, {0: c}) for m, c in terms.items()}, {})


def parse_scalar(text: str) -> ExactScalar:
    """Parse a scalar literal (no formal variables allowed)."""
    if _RATIONAL_LITERAL.fullmatch(text):
        num, _, den = text.partition("/")
        n = int(num)
        return _reduced({_RATIONAL: n}, int(den or 1)) if n else ExactScalar.zero()
    terms = _Parser(text).parse()
    if not terms:
        return ExactScalar.zero()
    if set(terms) != {Monomial.UNIT}:
        raise ParseError("expected a scalar, found formal variables", 0, text)
    return terms[Monomial.UNIT]


def parse_exponent(text: str) -> Exponent:
    tk = _Tokens(text)
    e = _parse_gaussian(tk)
    if not tk.at_end():
        raise ParseError("trailing input in exponent", tk.peek()[2], text)
    return e
