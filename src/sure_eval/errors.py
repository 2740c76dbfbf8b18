"""Error types shared across the toolkit, plus the violation record."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class SureError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(SureError):
    """A document is malformed: bad syntax, wrong type, unknown or missing field."""


@dataclass(frozen=True)
class Violation:
    """One validation finding. A document is valid iff its violation list is empty."""

    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.path}: {self.message}"


class _ViolationsError(SureError):
    """A document breaks invariants; ``violations`` lists every finding, ``noun`` names the document."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = list(violations)
        super().__init__(
            f"{self.noun} has {len(self.violations)} violation(s): "
            + "; ".join(str(v) for v in self.violations)
        )

    def __reduce__(self):
        # Exception.__reduce__ would pass the message string back in as the violations.
        return type(self), (self.violations,)


class InvalidStructureError(_ViolationsError):
    """A goal structure breaks one or more of its invariants."""

    noun = "goal structure"


class InvalidQuestionnaireError(_ViolationsError):
    """A questionnaire breaks coverage or reference invariants."""

    noun = "questionnaire"


class NotConfirmedError(SureError):
    """An operation requires a confirmed document but got a draft."""


class ResponseError(SureError):
    """A response CSV cannot be ingested; carries row/column context when known."""

    def __init__(self, message: str, *, row: int | None = None, column: str | None = None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.row = row
        self.column = column


class NoDataError(SureError):
    """No participants remain to score."""


class ReportError(SureError):
    """Report assembly was given inconsistent inputs."""
