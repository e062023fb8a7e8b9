"""Uniform pass/fail reports for identity checkers.

Every checker in the library returns a :class:`Report`: a named suite of
:class:`CheckResult` rows, each keyed by a stable identifier for the identity
being checked, with a first-failing-coefficient witness when it fails.  Both
renderings (text and JSON) are deterministic.  :func:`canonical_json` is the
library's one pretty JSON writer, for reports and data files alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii


def canonical_json(value: object, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` for a value
    built of dicts with str keys, lists, strs, ints, bools and None; any other
    type raises TypeError.  (``json.dumps`` with an indent runs the pure-Python
    encoder; this writer does the same work in fewer calls, and encodes a str
    value or element, most of them matrix cells and mode strings, inline.)"""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [inner + encode_basestring_ascii(k) + ": " + (encode_basestring_ascii(v) if type(v) is str
                 else canonical_json(v, inner)) for k, v in sorted(value.items())]
        return "{" + ",".join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + ",".join([inner + (encode_basestring_ascii(v) if type(v) is str else canonical_json(v, inner))
                               for v in value]) + newline + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"id": self.check_id, "status": "pass" if self.passed else "fail"}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Report:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check_id: str, passed: bool, witness: str | None = None) -> None:
        self.checks.append(CheckResult(check_id, passed, None if passed else witness))

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            extra = f"  [{c.witness}]" if c.witness else ""
            lines.append(f"  {mark}  {c.check_id}{extra}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return canonical_json(
            {"suite": self.suite, "passed": self.passed, "checks": [c.to_dict() for c in self.checks]}
        )
