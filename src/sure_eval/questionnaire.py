"""Measurement scale and questionnaire handling.

A questionnaire maps each question to exactly one sub goal of a confirmed
goal structure. Every sub goal must be covered by at least one question;
several questions per sub goal are allowed (their scores are averaged by
the scoring engine).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from . import _schema
from .errors import InvalidQuestionnaireError, NotConfirmedError, SchemaError, Violation
from .goal_structure import STATUS_CONFIRMED, STATUS_DRAFT, GoalStructure

RENDER_FORMATS = ("markdown", "csv-header")


@dataclass(frozen=True)
class ScaleLevel:
    code: int
    label: str


@dataclass(frozen=True)
class Scale:
    """Ordered answer levels coded 0..L-1, L >= 2, no gaps."""

    levels: tuple[ScaleLevel, ...]

    @property
    def size(self) -> int:
        return len(self.levels)

    @property
    def max_code(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    sub_goal: str


@dataclass(frozen=True)
class Questionnaire:
    questions: tuple[Question, ...]
    scale: Scale
    structure_version: str
    status: str = STATUS_DRAFT

    def question_ids(self) -> list[str]:
        return [question.id for question in self.questions]


def default_scale() -> Scale:
    """The five-level agreement scale, codes 0 (full disagreement) to 4."""
    return Scale(
        levels=(
            ScaleLevel(0, "Disagree at all"),
            ScaleLevel(1, "Up to 30% agree"),
            ScaleLevel(2, "31-50% agree"),
            ScaleLevel(3, "51-75% agree"),
            ScaleLevel(4, "76-100% agree"),
        )
    )


def _check_scale(scale: Scale, path: str = "$.scale") -> None:
    if scale.size < 2:
        raise SchemaError(f"{path}: a scale needs at least 2 levels")
    for i, level in enumerate(scale.levels):
        if level.code != i:
            raise SchemaError(f"{path}[{i}].code: expected {i}, got {level.code} (codes must be 0..L-1 in order)")
        if not level.label:
            raise SchemaError(f"{path}[{i}].label: label must be non-empty")


def generate_template(structure: GoalStructure) -> Questionnaire:
    """Emit one placeholder question per sub goal of a confirmed structure.

    Question ids are derived from sub-goal ids ("Q_" prefix) so response
    CSV columns stay self-describing. The result is a draft meant for
    human editing.
    """
    if structure.status != STATUS_CONFIRMED:
        raise NotConfirmedError("structure_not_confirmed: confirm the goal structure before generating a template")
    questions = tuple(
        Question(id=f"Q_{sub.id}", text=f"Please rate: {sub.label}", sub_goal=sub.id)
        for sub in structure.sub_goals()
    )
    return Questionnaire(
        questions=questions,
        scale=default_scale(),
        structure_version=structure.version,
        status=STATUS_DRAFT,
    )


def validate_questionnaire(questionnaire: Questionnaire, structure: GoalStructure) -> list[Violation]:
    """Check coverage and reference invariants against a structure."""
    violations: list[Violation] = []
    known_subs = set(structure.sub_goal_ids())

    seen: set[str] = set()
    covered: set[str] = set()
    for i, question in enumerate(questionnaire.questions):
        path = f"$.questions[{i}]"
        if not question.id:
            violations.append(Violation("empty_id", path, "question has an empty id"))
        elif question.id in seen:
            violations.append(Violation("duplicate_question_id", path, f"id {question.id!r} is already used"))
        else:
            seen.add(question.id)
        if question.sub_goal not in known_subs:
            violations.append(
                Violation("unknown_sub_goal", path, f"question {question.id!r} references unknown sub goal {question.sub_goal!r}")
            )
        else:
            covered.add(question.sub_goal)

    for sub_id in structure.sub_goal_ids():
        if sub_id not in covered:
            violations.append(
                Violation("uncovered_sub_goal", "$.questions", f"sub goal {sub_id!r} has no question")
            )
    return violations


def render_questionnaire(
    questionnaire: Questionnaire,
    structure: GoalStructure,
    format: str,
    demographics: Sequence[str] = (),
) -> str:
    """Render as a markdown answer grid or as the response-CSV header line.

    markdown: one table per key goal, one row per question, one column per
    scale label. csv-header: "participant_id", then the declared demographic
    columns, then one column per question id.
    """
    violations = validate_questionnaire(questionnaire, structure)
    if violations:
        raise InvalidQuestionnaireError(violations)
    if format not in RENDER_FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {RENDER_FORMATS}")

    if format == "csv-header":
        columns = ["participant_id", *demographics, *questionnaire.question_ids()]
        return ",".join(columns)

    labels = [_markdown(level.label) for level in questionnaire.scale.levels]
    by_sub: dict[str, list[Question]] = {}
    for question in questionnaire.questions:
        by_sub.setdefault(question.sub_goal, []).append(question)

    lines = [f"# Questionnaire: {_markdown(structure.title, table=False)}", ""]
    number = 0
    for key_goal in structure.key_goals:
        lines.append(f"## {_markdown(key_goal.label, table=False)} ({_markdown(key_goal.id, table=False)})")
        lines.append("")
        lines.append("| # | Question | " + " | ".join(labels) + " |")
        lines.append("|---|----------|" + "---|" * len(labels))
        for sub in key_goal.sub_goals:
            for question in by_sub.get(sub.id, []):
                number += 1
                lines.append(f"| {number} | {_markdown(question.text)} |" + "  |" * len(labels))
        lines.append("")
    return "\n".join(lines)


_LINE_BREAK = re.compile(r"\r\n?|\n")


def _markdown(text: str, table: bool = True) -> str:
    """text on one markdown line: each line break (CR LF, CR or LF) becomes a space, and in a table cell each | is escaped as \\|."""
    text = _LINE_BREAK.sub(" ", text)
    return text.replace("|", "\\|") if table else text


QUESTIONNAIRE_SHAPE = {
    "structure_version": str,
    "status": (STATUS_DRAFT, STATUS_CONFIRMED),
    "scale": [{"code": int, "label": str}],
    "questions": [{"id": str, "text": str, "sub_goal": str}],
}


def parse_questionnaire(document: bytes | str) -> Questionnaire:
    """Parse a questionnaire JSON document (strict schema)."""
    data = _schema.load_json(document, "questionnaire")
    _schema.check(data, QUESTIONNAIRE_SHAPE)
    scale = Scale(levels=tuple(ScaleLevel(code=level["code"], label=level["label"]) for level in data["scale"]))
    _check_scale(scale)
    return Questionnaire(
        questions=tuple(Question(id=q["id"], text=q["text"], sub_goal=q["sub_goal"]) for q in data["questions"]),
        scale=scale,
        structure_version=data["structure_version"],
        status=data["status"],
    )


def serialize_questionnaire(questionnaire: Questionnaire) -> bytes:
    """Inverse of parse_questionnaire; identical values yield identical bytes."""
    return _schema.dumps(
        {
            "structure_version": questionnaire.structure_version,
            "status": questionnaire.status,
            "scale": [{"code": level.code, "label": level.label} for level in questionnaire.scale.levels],
            "questions": [
                {"id": question.id, "text": question.text, "sub_goal": question.sub_goal}
                for question in questionnaire.questions
            ],
        },
        QUESTIONNAIRE_SHAPE,
    )
