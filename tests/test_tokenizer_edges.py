"""Edge cases of the tokenizer, against the reference parser.

The parser reads a text as one list of token strings after a single search
for a character that starts no token, and computes a column only when it
raises.  These cases pin what that must keep from the reference's token by
token scan: an "unexpected character" wins over every other error and is
reported where the previous token ends, whatever whitespace (ASCII, Unicode
or tab runs) lies between; Unicode decimal digits are integer tokens; and
columns stay right after very long literals.
"""

from __future__ import annotations

import re
import sys

import pytest
from test_parser_reference import _agree, _outcome, reference_parse_exponent, reference_parse_scalar

from logcalc.parser import ParseError, parse_expr, parse_exponent, parse_scalar

# every character that both the reference's \s and str.isspace call whitespace
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]

LONG = "7" * 5000  # more digits than int() converts by default


def _agree_everywhere(text: str) -> None:
    """parse_expr, parse_scalar and parse_exponent give the reference's value or error."""
    _agree(text)
    assert _outcome(parse_scalar, text) == _outcome(reference_parse_scalar, text)
    assert _outcome(parse_exponent, text) == _outcome(reference_parse_exponent, text)


def test_whitespace_is_the_reference_set():
    assert WHITESPACE == [c for c in map(chr, range(sys.maxunicode + 1)) if re.fullmatch(r"\s", c)]
    assert len(WHITESPACE) == 29


@pytest.mark.parametrize("ws", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_bad_character_after_any_whitespace(ws):
    for text in (f"x{ws}#", f"x +{ws}{ws}$ y", f"{ws}#", f"(x{ws}){ws}^{ws}2{ws}@", f"x{ws}{ws}y"):
        _agree_everywhere(text)


@pytest.mark.parametrize(
    "text",
    [
        "x\t#", "x\t\t\t\t#", "x + \t \t y\t\t$", "\t\t\t#", "(x\t\t+\t1)\t\t^\t2\t\t\t.", "x　#", "x 　\t#",
        "lg( x )　#",
    ],
)
def test_bad_character_after_tabs_and_unicode_spaces(text):
    _agree_everywhere(text)
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert "unexpected character" in str(err.value)
    assert err.value.position == len(text[: re.search(r"[#$.]", text).start()].rstrip())


@pytest.mark.parametrize(
    "text",
    [
        "٣", "x^٣", "٣/٤", "e(١/٢)", "x^(١/٢)", "٣x", "x٣", "٣ + x#",
        "०१", "１２*x", "lg(x)^٢", "x^(١/٧)", "٣²", "x²",
    ],
)
def test_unicode_digits(text):
    _agree_everywhere(text)


def test_unicode_digits_are_integers():
    assert parse_expr("٣*x^٢") == parse_expr("3*x^2")
    assert parse_scalar("١/٢") == parse_scalar("1/2")


@pytest.mark.parametrize("text", ["#", "$x", "é", "#(", ".5", ",", "²", "\x00", "#" + LONG])
def test_bad_character_at_column_zero(text):
    _agree_everywhere(text)
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert err.value.position == 0


@pytest.mark.parametrize(
    "text",
    [LONG + "#", LONG + " \t#", "x + " + LONG + "$", "(" + LONG + ")#", "e(1/" + LONG + ")?", "x^" + LONG + "  ."],
)
def test_bad_character_after_a_long_literal(text):
    _agree_everywhere(text)
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert "unexpected character" in str(err.value)


@pytest.mark.parametrize("tail", [")", " +", " * (", "^", " x", "/0"])
def test_error_after_a_long_literal(tail):
    """The reference raised a bare ValueError on such a literal; the parser names it, at its column."""
    text = "x + " + LONG + tail
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert "integer literal too long" in str(err.value) and err.value.position == 4


@pytest.mark.parametrize("text", ["x + 1" + LONG[:100] + " )", "(" + "1" * 4000 + "*x", "x" + "\t" * 3000 + "+"])
def test_columns_after_long_tokens(text):
    _agree_everywhere(text)


@pytest.mark.parametrize(
    "text", ["x + y   #", "x + y\t\t\t@", "(x)  　  $", "x   \n  #", "1/2   #", "x^(1/2)  !", "x ", "x \t", "x　"]
)
def test_trailing_whitespace_before_a_bad_character(text):
    _agree_everywhere(text)
