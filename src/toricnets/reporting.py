"""Report containers used by the validators and the CLI."""
from __future__ import annotations

from typing import NamedTuple


class Violation(NamedTuple):
    condition: str
    message: str
    witness: object = None

    def as_dict(self):
        return {"condition": self.condition, "message": self.message,
                "witness": repr(self.witness) if self.witness is not None else None}


class ValidationReport:
    def __init__(self):
        self.violations = []

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.violations == other.violations

    def add(self, condition, message, witness=None):
        self.violations.append(Violation(condition, message, witness))

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def as_dict(self):
        return {"ok": self.ok,
                "violations": [v.as_dict() for v in self.violations]}

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        lines = ", ".join(f"{v.condition}: {v.message}" for v in self.violations)
        return f"ValidationReport({lines})"
