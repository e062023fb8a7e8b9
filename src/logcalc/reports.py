"""Uniform pass/fail reports for identity checkers.

Every checker in the library returns a :class:`Report`: a named suite of
:class:`CheckResult` rows, each keyed by a stable identifier for the identity
being checked, with a first-failing-coefficient witness when it fails.  Both
renderings (text and JSON) are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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
        return json.dumps(
            {
                "suite": self.suite,
                "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks],
            },
            indent=2,
            sort_keys=True,
        )
