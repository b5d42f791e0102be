"""Structured result records emitted by checks, bounds, and the CLI.

Two record shapes cover everything: CheckRecord for structural checks
(hypothesis clauses, partition validation, probes) and BoundRecord for
inequalities compared against exact quantities.  Both serialize to the
documented JSON field names; "pass" is a Python keyword, so the attribute
is ``passed`` and the mapping happens at serialization time.
"""

from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    check: str
    passed: bool
    witness: object = None
    value: object = None
    bound: object = None

    def to_json_dict(self):
        return {
            "check": self.check,
            "pass": self.passed,
            "witness": self.witness,
            "value": self.value,
            "bound": self.bound,
        }


@dataclass
class BoundRecord:
    instance: str
    bound_name: str
    bound_value: float
    exact_value: float
    passed: bool
    tolerance: float

    def to_json_dict(self):
        return {
            "instance": self.instance,
            "bound_name": self.bound_name,
            "bound_value": self.bound_value,
            "exact_value": self.exact_value,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }


@dataclass
class Report:
    """An ordered bag of records with an overall verdict."""

    records: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def add(self, record):
        self.records.append(record)
        return record
