"""Hierarchical evaluation-goal structures: parsing, validation, confirmation.

A structure is a two-level tree: key goals at the top, each owning at least
one sub goal. Reports and questionnaires preserve document order, so order
is significant everywhere. All values are immutable; operations return new
values instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from . import _schema
from .errors import InvalidStructureError, Violation

STATUS_DRAFT = "draft"
STATUS_CONFIRMED = "confirmed"
_STATUSES = (STATUS_DRAFT, STATUS_CONFIRMED)


@dataclass(frozen=True)
class SubGoal:
    """A child target supporting one key goal. Labels may repeat; ids may not."""

    id: str
    label: str
    parent: str


@dataclass(frozen=True)
class KeyGoal:
    """A top-level evaluation target with its ordered sub goals."""

    id: str
    label: str
    sub_goals: tuple[SubGoal, ...]


@dataclass(frozen=True)
class Confirmation:
    approvers: tuple[str, ...]
    date: str


@dataclass(frozen=True)
class GoalStructure:
    title: str
    version: str
    key_goals: tuple[KeyGoal, ...]
    status: str = STATUS_DRAFT
    confirmation: Confirmation | None = None

    def sub_goals(self) -> Iterator[SubGoal]:
        """All sub goals in document order."""
        for key_goal in self.key_goals:
            yield from key_goal.sub_goals

    def sub_goal_ids(self) -> list[str]:
        return [sub.id for sub in self.sub_goals()]


STRUCTURE_SHAPE = {
    "title": str,
    "version": str,
    "status": _STATUSES,
    "confirmation": _schema.Nullable({"approvers": [str], "date": str}),
    "key_goals": [{"id": str, "label": str, "sub_goals": [{"id": str, "label": str}]}],
}


def key_goals_from_obj(raw_key_goals: list[dict]) -> tuple[KeyGoal, ...]:
    """The tree of a checked document's "key_goals" array; other fields of its entries are ignored."""
    return tuple(
        KeyGoal(
            id=key["id"],
            label=key["label"],
            sub_goals=tuple(SubGoal(id=sub["id"], label=sub["label"], parent=key["id"]) for sub in key["sub_goals"]),
        )
        for key in raw_key_goals
    )


def parse_structure(document: bytes | str) -> GoalStructure:
    """Parse a goal-structure JSON document, enforcing schema and invariants.

    Raises SchemaError for malformed documents (syntax, types, unknown
    fields) and InvalidStructureError, carrying the full violation list,
    when the document is well-formed but breaks an invariant.
    """
    data = _schema.load_json(document, "goal structure")
    _schema.check(data, STRUCTURE_SHAPE)

    record = data["confirmation"]
    structure = GoalStructure(
        title=data["title"],
        version=data["version"],
        key_goals=key_goals_from_obj(data["key_goals"]),
        status=data["status"],
        confirmation=None if record is None else Confirmation(approvers=tuple(record["approvers"]), date=record["date"]),
    )
    violations = validate_structure(structure)
    if violations:
        raise InvalidStructureError(violations)
    return structure


def serialize_structure(structure: GoalStructure) -> bytes:
    """Inverse of parse_structure; identical values yield identical bytes."""
    confirmation = None
    if structure.confirmation is not None:
        confirmation = {
            "approvers": list(structure.confirmation.approvers),
            "date": structure.confirmation.date,
        }
    return _schema.dumps(
        {
            "title": structure.title,
            "version": structure.version,
            "status": structure.status,
            "confirmation": confirmation,
            "key_goals": [
                {
                    "id": key_goal.id,
                    "label": key_goal.label,
                    "sub_goals": [{"id": sub.id, "label": sub.label} for sub in key_goal.sub_goals],
                }
                for key_goal in structure.key_goals
            ],
        },
        STRUCTURE_SHAPE,
    )


def validate_structure(structure: GoalStructure) -> list[Violation]:
    """Check every structure invariant; violations are data, not errors."""
    violations: list[Violation] = []
    if not structure.key_goals:
        violations.append(Violation("empty_structure", "$.key_goals", "structure has no key goals"))

    seen: set[str] = set()
    for i, key_goal in enumerate(structure.key_goals):
        key_path = f"$.key_goals[{i}]"
        if not key_goal.id:
            violations.append(Violation("empty_id", key_path, "key goal has an empty id"))
        elif key_goal.id in seen:
            violations.append(Violation("duplicate_id", key_path, f"id {key_goal.id!r} is already used"))
        else:
            seen.add(key_goal.id)
        if not key_goal.sub_goals:
            violations.append(
                Violation("no_sub_goals", key_path, f"key goal {key_goal.id!r} has zero sub goals")
            )
        for j, sub in enumerate(key_goal.sub_goals):
            sub_path = f"{key_path}.sub_goals[{j}]"
            if not sub.id:
                violations.append(Violation("empty_id", sub_path, "sub goal has an empty id"))
            elif sub.id in seen:
                violations.append(Violation("duplicate_id", sub_path, f"id {sub.id!r} is already used"))
            else:
                seen.add(sub.id)
            if sub.parent != key_goal.id:
                violations.append(
                    Violation(
                        "parent_mismatch",
                        sub_path,
                        f"sub goal {sub.id!r} names parent {sub.parent!r} but sits under {key_goal.id!r}",
                    )
                )

    if structure.status == STATUS_CONFIRMED and structure.confirmation is None:
        violations.append(
            Violation("missing_confirmation", "$.confirmation", "status is confirmed but no confirmation record")
        )
    if structure.confirmation is not None and not structure.confirmation.approvers:
        violations.append(
            Violation("empty_approvers", "$.confirmation.approvers", "confirmation record has no approvers")
        )
    return violations


def confirm_structure(structure: GoalStructure, approvers: Sequence[str], date: str) -> GoalStructure:
    """Return a confirmed copy of a valid structure; the input is unchanged.

    Confirmation is the sign-off gate: downstream steps (questionnaire
    generation) refuse draft structures.
    """
    violations = validate_structure(structure)
    if violations:
        raise InvalidStructureError(violations)
    if not approvers:
        raise ValueError("empty_approvers: confirmation needs at least one approver")
    return replace(
        structure,
        status=STATUS_CONFIRMED,
        confirmation=Confirmation(approvers=tuple(approvers), date=date),
    )
