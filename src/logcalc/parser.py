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

A text becomes one list of token strings, ended by ``""``, which matches no
operator.  A token's kind is read off its text: digits are an integer, an
identifier is a name, and anything else is one of ``()+-*/^``.  One search
for a character that starts no token runs first, so "unexpected character"
wins over every other error; it is reported where the previous token ends.
Columns are not kept: an error re-scans the text for the column of its token.

Evaluation happens during the parse, in one pass.  A factor's value is
either one nonzero term, held as a ``(monomial, coefficient)`` pair (a dict
item), or a ``monomial -> coefficient`` dict of any other length.  A term
folds a run of one-term factors into one pair; only a factor of several
terms costs a real product.  A sum accumulates into one dict, and the parse
builds a single LogSeries from it at the end.

Every product but that of two single terms, each step of ``(...)^N``
included, charges its |a|*|b| term pairs against ``MAX_PARSE_PAIRS`` for the whole parse before it
multiplies.  A power's step is refused as soon as the steps left, each as
long as this one, would pass the bound, so a hostile power fails after a few
small steps instead of at the bound.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .scalars import LATTICE, ExactScalar, Exponent, UnsupportedDivision, imaginary_unit, pi_scalar, zeta_power
from .scalars import _RATIONAL, _lattice_int, _reduced  # n/d as a scalar, reduced once; the lattice check
from .series import SCALAR, CoeffVector, LogSeries, Monomial

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/^]")

# a character that is neither whitespace nor the start of a token; every
# character of a token can start one, so the first match is where a scan
# token by token would stop
_BAD = re.compile(r"[^\s\dA-Za-z_()+\-*/^]")

# a plain rational literal, which parse_scalar reads without the grammar
_RATIONAL_LITERAL = re.compile(r"-?[0-9]{1,100}(?:/[1-9][0-9]{0,99})?")

_RESERVED = {"Pi", "i", "e", "lg"}

# Bound on |N| in an integer power (expr)^N of anything but a bare variable or
# lg(variable): the power costs |N| series products, each up to as long as
# the result, so an unbounded N lets one expression run without end.
MAX_INT_POWER = 64

# Bound on the term pairs that the products of one parse form, |a|*|b| for
# each product of sums: nested powers such as ((x+y)^64)^64 stay within
# MAX_INT_POWER and would still expand without end.
MAX_PARSE_PAIRS = 10**6

# Bound on nested parentheses: each level costs a few stack frames of the
# recursive descent, so deeper input would end in a RecursionError.
MAX_NESTING = 100

_EXPONENT_ZERO = Exponent(0)
_EXPONENT_ONE = Exponent(1)
_UNIT = Monomial.UNIT

# shared coefficients of the atoms 1, Pi and i; scalars are never mutated
_ONE = ExactScalar({_RATIONAL: 1})
_PI = pi_scalar()
_I = imaginary_unit()

Terms = dict[Monomial, ExactScalar]
Value = Union[tuple[Monomial, ExactScalar], Terms]


class ParseError(ValueError):
    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} at column {position + 1}: {text!r}")
        self.position = position


def _column(text: str, index: int) -> int:
    """The column of token ``index`` of text; the end token's is the text's length."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == index:
            return m.start()
    return len(text)


class _Parser:
    def __init__(self, text: str):
        bad = _BAD.search(text)
        if bad:
            # reported where the previous token ends, before the whitespace
            raise ParseError("unexpected character", len(text[: bad.start()].rstrip()), text)
        self.text = text
        self.toks: list[str] = _TOKEN.findall(text)
        self.toks.append("")
        self.i = 0
        self.depth = 0
        self.pairs = 0

    def error(self, message: str, index: int) -> ParseError:
        return ParseError(message, _column(self.text, index), self.text)

    def next(self) -> str:
        t = self.toks[self.i]
        if not t:
            raise self.error("unexpected end of input", self.i)
        self.i += 1
        return t

    def accept(self, op: str) -> bool:
        if self.toks[self.i] == op:
            self.i += 1
            return True
        return False

    def expect(self, op: str) -> None:
        if self.toks[self.i] != op:
            raise self.error(f"expected {op!r}", self.i)
        self.i += 1

    def parse(self) -> Terms:
        out = self.expr()
        if self.toks[self.i]:
            raise self.error("trailing input", self.i)
        return out

    def expr(self) -> Terms:
        toks = self.toks
        first = self.term()
        acc = first if first.__class__ is dict else dict((first,))
        while True:
            t = toks[self.i]
            if t == "+":
                self.i += 1
                _add_into(acc, self.term(), False)
            elif t == "-":
                self.i += 1
                _add_into(acc, self.term(), True)
            else:
                return acc

    def term(self) -> Value:
        toks = self.toks
        acc = self.factor()
        while True:
            at = self.i
            t = toks[at]
            if t == "*":
                self.i += 1
                acc = self._product(acc, self.factor(), at)
            elif t == "/":
                self.i += 1
                den_at = self.i
                den = self.factor()
                if not den:  # a zero divisor is the empty sum
                    raise self.error("division by zero", den_at)
                acc = self._product(acc, self._reciprocal(den, at), at)
            else:
                return acc

    def factor(self) -> Value:
        toks = self.toks
        sign = 1
        while toks[self.i] == "-":
            self.i += 1
            sign = -sign
        f = self.atom()
        if toks[self.i] == "^":
            self.i += 1
            f = self._power(f, self.i - 1)
        if sign > 0:
            return f
        if f.__class__ is tuple:
            return f[0], -f[1]
        return {m: -c for m, c in f.items()}

    def atom(self) -> Value:
        i = self.i
        t = self.toks[i]
        self.i = i + 1
        if t.isidentifier():
            if t in _RESERVED:
                if t == "Pi":
                    return _UNIT, _PI
                if t == "i":
                    return _UNIT, _I
                self.expect("(")
                if t == "e":
                    num, den = _parse_rational(self)
                    self.expect(")")
                    return _UNIT, zeta_power(_lattice(num, den, "root-of-unity argument"))
                j = self.i
                v = self.next()
                if not v.isidentifier() or v in _RESERVED:
                    raise self.error("lg(...) needs a variable name", j)
                self.expect(")")
                return Monomial._trusted(((v, _EXPONENT_ZERO, 1),)), _ONE
            return Monomial._trusted(((t, _EXPONENT_ONE, 0),)), _ONE
        if t.isdecimal():
            n = _int_value(self, t, i)
            return (_UNIT, ExactScalar({_RATIONAL: n})) if n else {}
        if t == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", i)
            self.depth += 1
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return _as_value(e)
        raise self.error("unexpected token" if t else "unexpected end of input", i)

    def _power(self, base: Value, at: int) -> Value:
        """base^power after the "^" at token ``at``."""
        var = _single_factor(base, 1, 0)
        if var is not None:
            e = _parse_power_exponent(self)
            return (Monomial._trusted(((var, e, 0),)) if e.a or e.b else _UNIT), _ONE
        pos = self.i
        log = _single_factor(base, 0, 1)
        if log is not None:
            k = _parse_int_power(self)
            if k < 0:
                raise self.error("log powers must be nonnegative", pos)
            return (Monomial._trusted(((log, _EXPONENT_ZERO, k),)) if k else _UNIT), _ONE
        n = _parse_int_power(self)
        if abs(n) > MAX_INT_POWER:
            raise self.error(f"integer power {n} exceeds the bound |N| <= {MAX_INT_POWER}", pos)
        if base.__class__ is not tuple:
            if n < 0:
                raise self.error("negative powers are only defined for invertible monomials", pos)
            out: Terms = {_UNIT: _ONE}
            for left in range(n, 0, -1):
                self._charge(len(out) * len(base), at, left)
                out = _mul_terms(out, base)
            return _as_value(out)
        m, c = base
        if n < 0 and m != _UNIT:
            # a monomial inverts only with coefficient 1 and no log factors
            if not c == 1 or any(k for _, _, k in m.entries):
                raise self.error("negative powers are only defined for invertible monomials", pos)
        try:
            c = c**n
        except UnsupportedDivision as exc:
            raise self.error(f"cannot invert: {exc}", pos) from exc
        return _monomial_power(m, n), c

    def _charge(self, pairs: int, at: int, repeats: int = 1) -> None:
        """Charge a product of ``pairs`` term pairs, refused when ``repeats`` products
        of that size (the steps left of a power) would pass the budget."""
        if self.pairs + pairs * repeats > MAX_PARSE_PAIRS:
            raise self.error(f"expansion exceeds the bound of {MAX_PARSE_PAIRS} term pairs per parse", at)
        self.pairs += pairs

    def _product(self, a: Value, b: Value, at: int) -> Value:
        if a.__class__ is tuple and b.__class__ is tuple:
            # the scalar ring has no zero divisors: the product stays one nonzero term
            return a[0] * b[0], a[1] * b[1]
        a, b = _terms(a), _terms(b)
        self._charge(len(a) * len(b), at)
        return _as_value(_mul_terms(a, b))

    def _reciprocal(self, den: Value, at: int) -> tuple[Monomial, ExactScalar]:
        if den.__class__ is not tuple:
            raise self.error("division only by constants or monomials", at)
        m, c = den
        try:
            inv = c.inverse()
        except UnsupportedDivision as exc:
            raise self.error(f"cannot divide: {exc}", at) from exc
        if any(k for _, _, k in m.entries):
            raise self.error("cannot divide by log factors", at)
        return _monomial_power(m, -1), inv


def _int_value(p: _Parser, t: str, index: int) -> int:
    try:
        return int(t)
    except ValueError:  # more digits than the interpreter converts
        raise p.error("integer literal too long", index) from None


def _parse_int(p: _Parser) -> int:
    toks, i = p.toks, p.i
    sign = 1
    while toks[i] == "-":
        i += 1
        sign = -sign
    t = toks[i]
    p.i = i + 1
    if not t.isdecimal():
        raise p.error("expected an integer" if t else "unexpected end of input", i)
    return sign * _int_value(p, t, i)


def _parse_rational(p: _Parser) -> tuple[int, int]:
    """A rational as its numerator and its nonzero, perhaps negative, denominator."""
    num = _parse_int(p)
    if p.accept("/"):
        at = p.i
        den = _parse_int(p)
        if den == 0:
            raise p.error("zero denominator", at)
        return num, den
    return num, 1


def _lattice(num: int, den: int, what: str = "exponent") -> int:
    """L*num/den as an int; off the lattice, the LatticeViolation of the scalar layer."""
    a, r = divmod(num * LATTICE, den)
    return _lattice_int(Fraction(num, den), what) if r else a


def _parse_gaussian(p: _Parser) -> Exponent:
    """rational, optionally followed by +/- rational*i (or i alone)."""
    toks = p.toks

    def part() -> tuple[int, int, bool]:
        if toks[p.i] == "i":
            p.i += 1
            return 1, 1, True
        num, den = _parse_rational(p)
        if toks[p.i] == "*" and toks[p.i + 1] == "i":
            p.i += 2
            return num, den, True
        return num, den, False

    num, den, imag = part()
    at = p.i
    op = toks[at]
    if op == "+" or op == "-":
        p.i += 1
        num2, den2, imag2 = part()
        if not imag2:
            raise p.error("second summand of a Gaussian literal must be imaginary", at)
        if op == "-":
            num2 = -num2
        if not imag:
            return Exponent._lattice(_lattice(num, den), _lattice(num2, den2))
        num, den = num * den2 + num2 * den, den * den2
    return Exponent._lattice(0, _lattice(num, den)) if imag else Exponent._lattice(_lattice(num, den), 0)


def _parse_power_exponent(p: _Parser) -> Exponent:
    if p.accept("("):
        e = _parse_gaussian(p)
        p.expect(")")
        return e
    return Exponent._lattice(_parse_int(p) * LATTICE, 0)


def _parse_int_power(p: _Parser) -> int:
    if p.accept("("):
        n = _parse_int(p)
        p.expect(")")
        return n
    return _parse_int(p)


def _as_value(terms: Terms) -> Value:
    """A sum of exactly one term as its (monomial, coefficient) pair."""
    if len(terms) != 1:
        return terms
    return next(iter(terms.items()))


def _terms(value: Value) -> Terms:
    return dict((value,)) if value.__class__ is tuple else value


def _single_factor(f: Value, exponent: int, log_power: int) -> str | None:
    """The variable v if f is exactly v^exponent * lg(v)^log_power, else None."""
    if f.__class__ is not tuple:
        return None
    m, c = f
    if len(m.entries) != 1 or not c == 1:
        return None
    v, e, k = m.entries[0]
    return v if e.a == exponent * LATTICE and not e.b and k == log_power else None


def _monomial_power(m: Monomial, n: int) -> Monomial:
    if n == 0:
        return _UNIT
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


def _add_into(acc: Terms, value: Value, negate: bool) -> None:
    for m, c in (value,) if value.__class__ is tuple else value.items():
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
    if set(terms) != {_UNIT}:
        raise ParseError("expected a scalar, found formal variables", 0, text)
    return terms[_UNIT]


def parse_exponent(text: str) -> Exponent:
    p = _Parser(text)
    e = _parse_gaussian(p)
    if p.toks[p.i]:
        raise p.error("trailing input in exponent", p.i)
    return e
