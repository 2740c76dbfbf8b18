"""Report assembly and rendering (markdown, json, csv).

Markdown and csv are for humans: scores are rounded half-up to two
decimals in markdown, sections appear in a fixed order, and rendering the
same report twice yields identical bytes. The json format carries full
precision and round-trips losslessly through parse_report.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import compress, count, groupby, repeat
from math import isfinite
from operator import itemgetter, mul
from typing import Any, Iterable, Mapping, Sequence

from . import _schema
from ._schema import RENDER_FORMATS
from .errors import ReportError, SchemaError
from .goal_structure import GoalStructure, KeyGoal, key_goals_from_obj, validate_structure
from .ingest import ResponseSet
from .questionnaire import _markdown
from .scoring import AggregateScores, ParticipantScore, ScoreTable, _tree_ids, aggregate_scores

HISTOGRAM_BINS = 10


@dataclass(frozen=True)
class Participation:
    respondents: int
    enrolled: int
    rate_percent: float


@dataclass(frozen=True)
class ScoreReport:
    """All four score levels plus distribution and participation context.

    participants, any sequence of ParticipantScore whose maps hold exactly
    the tree's ids, is kept as a ScoreTable of those ids (ScoreTable.of).
    """

    title: str
    version: str
    generated_at: str
    aggregates: AggregateScores
    key_goals: tuple[KeyGoal, ...]
    participants: Sequence[ParticipantScore]
    histogram: tuple[int, ...]
    participation: Participation | None
    groups: Mapping[str, Mapping[str, AggregateScores]] | None
    warnings: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "participants", ScoreTable.of(self.participants, *_tree_ids(self.key_goals)))


def participation_rate(respondents: int, enrolled: int) -> float:
    """Percentage respondents/enrolled, rounded half-up to two decimals."""
    if enrolled < 1:
        raise ReportError("enrolled count must be at least 1")
    if respondents < 0:
        raise ReportError("respondent count cannot be negative")
    if enrolled < respondents:
        raise ReportError(f"enrolled ({enrolled}) is smaller than respondents ({respondents})")
    exact = Decimal(respondents) * 100 / Decimal(enrolled)
    return float(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def build_report(
    scores: Sequence[ParticipantScore],
    aggregates: AggregateScores,
    structure: GoalStructure,
    responses: ResponseSet,
    *,
    participation: tuple[int, int] | None = None,
    group_by: Sequence[str] | None = None,
    generated_at: str | None = None,
) -> ScoreReport:
    """Assemble a report from one scoring run.

    When group_by names demographic keys, the full aggregation is redone
    per group over that group's participants (means of means would mislead
    with unequal group sizes).

    scores, any sequence of ParticipantScore whose maps hold exactly the
    tree's ids, is kept as a ScoreTable (ScoreTable.of). An overall score
    outside [0, 1], NaN included, is a ReportError naming its participant.
    """
    scores = ScoreTable.of(scores, *_tree_ids(structure.key_goals))
    overall = scores.overall
    if not (0.0 <= min(overall, default=0.0) and max(overall, default=0.0) <= 1.0 and isfinite(sum(overall))):  # a NaN makes the sum NaN
        at = next(i for i, value in enumerate(overall) if not 0.0 <= value <= 1.0)
        raise ReportError(f"participant {scores[at].participant_id!r} has overall score {overall[at]!r}, outside [0, 1]")

    participation_record = None
    if participation is not None:
        respondents, enrolled = participation
        participation_record = Participation(
            respondents=respondents,
            enrolled=enrolled,
            rate_percent=participation_rate(respondents, enrolled),
        )

    groups: dict[str, dict[str, AggregateScores]] | None = None
    if group_by:
        groups = {}
        position = dict(zip(scores.ids, count()))
        people = responses.participants
        for key in group_by:
            if key not in responses.demographics:
                raise ReportError(f"group_by key {key!r} is not a declared demographic {tuple(responses.demographics)}")
            try:
                scored = list(map(position.__getitem__, people.ids))
            except KeyError as exc:  # the first id, in row order, without a score
                raise ReportError(f"participant {exc.args[0]!r} has no score; inputs are not from one run") from None
            values = people.demographic_columns[people.demographics.index(key)]
            if not {*map(type, values)} <= {str}:  # a hand-made record may lack the key or hold another type
                at = next(i for i, value in enumerate(values) if type(value) is not str)
                raise ReportError(f"participant {people.ids[at]!r}: demographic {key!r} must be a string, found {values[at]!r}")
            # A stable sort by value keeps each group's members in row order, the order its sums run in.
            by_value = groupby(sorted(range(len(values)), key=values.__getitem__), values.__getitem__)
            groups[key] = {value: aggregate_scores(scores.take(list(map(scored.__getitem__, members))), structure) for value, members in by_value}

    if generated_at is None:
        from datetime import datetime, timezone  # here, so that a run with a fixed stamp never imports datetime

        generated_at = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")

    return ScoreReport(
        title=structure.title,
        version=structure.version,
        generated_at=generated_at,
        aggregates=aggregates,
        key_goals=structure.key_goals,
        participants=scores,
        histogram=_histogram(overall),
        participation=participation_record,
        groups=groups,
        warnings=tuple(responses.warnings),
    )


def _histogram(overalls: Iterable[float]) -> tuple[int, ...]:
    """Counts of overall scores in [0, 1] per tenth; 1.0 falls in the last bin."""
    histogram = [0] * HISTOGRAM_BINS
    for tenth, n in Counter(map(int, map(mul, overalls, repeat(HISTOGRAM_BINS)))).items():
        histogram[min(tenth, HISTOGRAM_BINS - 1)] += n
    return tuple(histogram)


def render_report(report: ScoreReport, format: str) -> bytes:
    """The report as markdown, json or csv bytes; json and csv are first checked against the json layout, so both refuse a report that does not fit it (an id that is not a string, a score that is not a finite float) with the same SchemaError before writing anything, while markdown, which writes only rounded aggregates, is not checked."""
    if format == "markdown":
        return _render_markdown(report).encode("utf-8")
    if format == "json":
        return _schema.dumps(_report_to_obj(report), _written_shape(*_tree_ids(report.key_goals)))
    if format == "csv":
        _schema.check(_report_to_obj(report), _written_shape(*_tree_ids(report.key_goals)))
        return _render_csv(report).encode("utf-8")
    raise ValueError(f"unknown format {format!r}; expected one of {RENDER_FORMATS}")


# --- markdown ---------------------------------------------------------------


def _round2(value: float) -> str:
    return str(Decimal(str(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _render_markdown(report: ScoreReport) -> str:
    agg = report.aggregates
    lines = [f"# Evaluation report: {_markdown(report.title, table=False)} (version {_markdown(report.version, table=False)})", ""]
    if report.generated_at:
        lines += [f"Generated: {report.generated_at}", ""]

    lines += [
        "## General",
        "",
        "| Metric | Value |",
        "|--------|-------|",
        f"| General evaluation score | {_round2(agg.general)} |",
        f"| Participants | {agg.n_participants} |",
        "",
    ]

    lines += ["## Key goals", "", "| Id | Key goal | Score |", "|----|----------|-------|"]
    for key_goal in report.key_goals:
        lines.append(f"| {_markdown(key_goal.id)} | {_markdown(key_goal.label)} | {_round2(agg.key_goal[key_goal.id])} |")
    lines.append("")

    lowest = min(agg.sub_goal.values())
    highest = max(agg.sub_goal.values())
    mark = lowest < highest  # nothing to highlight when all sub goals tie
    lines += ["## Sub goals", ""]
    for key_goal in report.key_goals:
        lines += [
            f"### {_markdown(key_goal.id, table=False)}: {_markdown(key_goal.label, table=False)} ({_round2(agg.key_goal[key_goal.id])})",
            "",
            "| Id | Sub goal | Score |",
            "|----|----------|-------|",
        ]
        for sub in key_goal.sub_goals:
            value = agg.sub_goal[sub.id]
            note = ""
            if mark and value == lowest:
                note = " (lowest)"
            elif mark and value == highest:
                note = " (highest)"
            lines.append(f"| {_markdown(sub.id)} | {_markdown(sub.label)} | {_round2(value)}{note} |")
        lines.append("")

    lines += [
        "## Distribution",
        "",
        "| Metric | Value |",
        "|--------|-------|",
        f"| Participants | {agg.n_participants} |",
        f"| Overall score exactly 1.0 | {agg.n_overall_max} |",
        f"| Overall score exactly 0.0 | {agg.n_overall_zero} |",
        "",
        "| Overall range | Count |",
        "|---------------|-------|",
    ]
    for i, count in enumerate(report.histogram):
        lines.append(f"| {i / 10:.1f}-{(i + 1) / 10:.1f} | {count} |")
    lines.append("")

    if report.participation is not None:
        p = report.participation
        lines += [
            "## Participation",
            "",
            "| Respondents | Enrolled | Rate |",
            "|-------------|----------|------|",
            f"| {p.respondents} | {p.enrolled} | {p.rate_percent:.2f}% |",
            "",
        ]

    if report.groups:
        lines += ["## Groups", ""]
        for key, by_value in report.groups.items():
            for value, group_agg in by_value.items():
                lines += [
                    f"### {_markdown(key, table=False)} = {_markdown(value, table=False)} ({group_agg.n_participants} respondents)",
                    "",
                    "| Metric | Value |",
                    "|--------|-------|",
                    f"| General evaluation score | {_round2(group_agg.general)} |",
                ]
                for key_goal in report.key_goals:
                    lines.append(f"| {_markdown(key_goal.id)}: {_markdown(key_goal.label)} | {_round2(group_agg.key_goal[key_goal.id])} |")
                lines.append("")

    if report.warnings:
        lines += ["## Warnings", ""]
        lines += [f"- {warning}" for warning in report.warnings]
        lines.append("")

    return "\n".join(lines)


# --- json -------------------------------------------------------------------


def _aggregates_to_obj(agg: AggregateScores) -> dict:
    return {
        "n": agg.n_participants,
        "n_max": agg.n_overall_max,
        "n_zero": agg.n_overall_zero,
        "general": agg.general,
        "key_goals": agg.key_goal,
        "sub_goals": agg.sub_goal,
    }


def _report_to_obj(report: ScoreReport) -> dict:
    """The report as the value its json shape describes, the participants as the leaf columns of their records."""
    agg = report.aggregates
    return {
        "title": report.title,
        "version": report.version,
        "generated_at": report.generated_at,
        "general": agg.general,
        "key_goals": [
            {
                "id": key_goal.id,
                "label": key_goal.label,
                "score": agg.key_goal[key_goal.id],
                "sub_goals": [
                    {"id": sub.id, "label": sub.label, "score": agg.sub_goal[sub.id]}
                    for sub in key_goal.sub_goals
                ],
            }
            for key_goal in report.key_goals
        ],
        "participants": _schema.Columns(report.participants.columns),
        "distribution": {
            "n": agg.n_participants,
            "n_max": agg.n_overall_max,
            "n_zero": agg.n_overall_zero,
            "histogram": list(report.histogram),
        },
        "participation": (
            None
            if report.participation is None
            else {
                "respondents": report.participation.respondents,
                "enrolled": report.participation.enrolled,
                "rate_percent": report.participation.rate_percent,
            }
        ),
        "groups": (
            None
            if report.groups is None
            else {
                key: {value: _aggregates_to_obj(group_agg) for value, group_agg in by_value.items()}
                for key, by_value in report.groups.items()
            }
        ),
        "warnings": list(report.warnings),
    }


def _report_shape(key_scores: Any, sub_scores: Any) -> dict:
    """The report's layout, with key_scores and sub_scores the shape of each key-goal and sub-goal score map."""
    aggregates = {"n": int, "n_max": int, "n_zero": int, "general": float, "key_goals": key_scores, "sub_goals": sub_scores}
    return {
        "title": str,
        "version": str,
        "generated_at": str,
        "general": float,
        "key_goals": [{"id": str, "label": str, "score": float, "sub_goals": [{"id": str, "label": str, "score": float}]}],
        "participants": [{"id": str, "overall": float, "key_goals": key_scores, "sub_goals": sub_scores}],
        "distribution": {"n": int, "n_max": int, "n_zero": int, "histogram": [int]},
        "participation": _schema.Nullable({"respondents": int, "enrolled": int, "rate_percent": float}),
        "groups": _schema.Nullable({str: {str: aggregates}}),
        "warnings": [str],
    }


REPORT_SHAPE = _report_shape({str: float}, {str: float})


def _written_shape(key_ids: tuple[str, ...], sub_ids: tuple[str, ...]) -> dict:
    """The layout the writer writes for a tree of these ids: each score map a record of the tree's ids, in tree order."""
    return _report_shape(dict.fromkeys(key_ids, float), dict.fromkeys(sub_ids, float))


def parse_report(document: bytes | str) -> ScoreReport:
    """Rebuild a ScoreReport from its json rendering, field for field.

    Accepts only what render_report writes: the layout of REPORT_SHAPE, finite
    numbers, and figures that agree with each other. A rejection is a
    SchemaError naming the JSON path at fault; an object that repeats a name
    is named before any other fault.

    A document that _schema.load_plain reads is checked as it loaded, without
    load_json's repeated-name hook. It is loaded again with the hook only to
    find a repeated name: when a check rejects it, or when its text holds
    more ":" than the accepted report's value, which only a repeated name makes.
    Either load gives one float per distinct number text, and the participants
    are read by one gathered pass; the checks run in turn only on a document
    that pass does not read, to name its first fault or, if it has none, to
    give the pass its participant records with their fields in order.
    """
    loaded = _schema.load_plain(document)
    if loaded is None:
        return _checked_report(_schema.load_json(document, "report"))
    data, n_colons = loaded
    try:
        report = _checked_report(data)
    except SchemaError:
        _schema.load_json(document, "report")  # raises first if an object repeats a name
        raise
    if n_colons != _colons(data, report.participants):
        _schema.load_json(document, "report")  # raises: a repeated name dropped a member, and its colons, from data
    return report


def _checked_report(data: Any) -> ScoreReport:
    """The report a loaded document holds; a SchemaError names the first fault of its shape, its tree, its participants (at least one, with the tree's ids in order and scores in [0, 1]) or its figures, checked in that order."""
    structure, columns = _read_gathered(data) or _read_checked(data)
    key_ids, sub_ids = _tree_ids(structure.key_goals)
    distribution, groups = data["distribution"], data["groups"]
    report = ScoreReport(
        title=structure.title,
        version=structure.version,
        generated_at=data["generated_at"],
        aggregates=AggregateScores(
            general=data["general"],
            key_goal={key["id"]: key["score"] for key in data["key_goals"]},
            sub_goal={sub["id"]: sub["score"] for key in data["key_goals"] for sub in key["sub_goals"]},
            n_participants=distribution["n"],
            n_overall_max=distribution["n_max"],
            n_overall_zero=distribution["n_zero"],
        ),
        key_goals=structure.key_goals,
        participants=ScoreTable(key_ids, sub_ids, tuple(columns)),
        histogram=tuple(distribution["histogram"]),
        participation=None if data["participation"] is None else Participation(**data["participation"]),
        groups=None if groups is None else {
            key: {value: AggregateScores(a["general"], a["key_goals"], a["sub_goals"], a["n"], a["n_max"], a["n_zero"]) for value, a in by_value.items()}
            for key, by_value in groups.items()
        },
        warnings=tuple(data["warnings"]),
    )
    _check_consistent(report, structure)
    return report


def _read_gathered(data: Any) -> tuple[GoalStructure, Sequence[Sequence]] | None:
    """The tree and the participants' columns (ids, overall, key goals', sub goals') of a document whose participants fit the shape the writer writes, by one gathered pass over them: the only reader of a report's participants. None for a document that _read_checked must read, to name its first fault or to put its participant records' fields in order.

    The rest of the document must fit REPORT_SHAPE and hold a valid tree; each
    participant's record and score maps must hold their fields and the tree's
    ids in order, and every score lie in [0, 1].
    """
    participants = data.get("participants") if type(data) is dict else None
    if not (type(participants) is list and participants and _schema.fits({**data, "participants": []}, REPORT_SHAPE)):
        return None
    structure = _structure(data)
    if validate_structure(structure):
        return None
    columns = _schema.columns_of(participants, _written_shape(*_tree_ids(structure.key_goals))["participants"][0])
    if columns is None or not all(0.0 <= min(column) and max(column) <= 1.0 for column in columns[1:]):
        return None
    return structure, columns


def _read_checked(data: Any) -> tuple[GoalStructure, Sequence[Sequence]]:
    """What _read_gathered gives, of a document that it does not read: the shape, the tree, the participants and their scores checked in turn, the first fault a SchemaError.

    A document in which these checks find no fault differs from one that
    _read_gathered reads only in the order of some participant record's
    fields, so it is read by _read_gathered with each record's fields in
    REPORT_SHAPE's order.
    """
    _schema.check(data, REPORT_SHAPE)
    structure = _structure(data)
    for violation in validate_structure(structure)[:1]:
        raise SchemaError(f"{violation.path}: {violation.message}")
    participants = data["participants"]
    if not participants:
        raise SchemaError("$.participants: a report has at least one participant")
    key_ids, sub_ids = _tree_ids(structure.key_goals)
    _check_scores(map("$.participants[{}]".format, count()), "overall", map(itemgetter("overall"), participants), map(itemgetter("key_goals"), participants), map(itemgetter("sub_goals"), participants), key_ids, sub_ids)
    fields = REPORT_SHAPE["participants"][0]
    return _read_gathered({**data, "participants": [{name: record[name] for name in fields} for record in participants]})


def _structure(data: dict) -> GoalStructure:
    return GoalStructure(title=data["title"], version=data["version"], key_goals=key_goals_from_obj(data["key_goals"]))


def _colons(data: dict, table: ScoreTable) -> int:
    """_schema.colons(data) of an accepted report, its participants counted from their table: per participant, the members of its record and its two score maps, the ":" of the tree's ids that name the maps' members, and the ":" of its own id."""
    members = len(REPORT_SHAPE["participants"][0]) + len(table.key_ids) + len(table.sub_ids) + "".join(table.key_ids + table.sub_ids).count(":")
    return _schema.colons({**data, "participants": []}) + len(table) * members + "".join(table.ids).count(":")


def _check_scores(paths: Iterable[str], field: str, scores: Iterable[float], key_maps: Iterable[dict], sub_maps: Iterable[dict], key_ids: tuple[str, ...], sub_ids: tuple[str, ...]) -> None:
    """Walk rows of (path, score, key scores, sub scores), whose values fit the report's shape, and raise a SchemaError at the first whose maps do not hold the tree's ids in order or whose value lies outside [0, 1]: its key goals, then its sub goals, then its score."""
    for path, score, key_scores, sub_scores in zip(paths, scores, key_maps, sub_maps):
        for name, by_id, ids in (("key_goals", key_scores, key_ids), ("sub_goals", sub_scores, sub_ids)):
            if tuple(by_id) != ids:
                raise SchemaError(f"{path}.{name}: ids must be the report's, in order: {', '.join(ids)}")
            for key, value in by_id.items():
                if not 0.0 <= value <= 1.0:
                    raise SchemaError(f"{path}.{name}.{key}: score {value!r} is outside [0, 1]")
        if not 0.0 <= score <= 1.0:
            raise SchemaError(f"{path}.{field}: score {score!r} is outside [0, 1]")


def _check_consistent(report: ScoreReport, structure: GoalStructure) -> None:
    """Reject a report, of a valid tree and participants with valid scores, whose figures build_report could not have produced."""
    key_ids, sub_ids = _tree_ids(report.key_goals)
    got, want = report.aggregates, aggregate_scores(report.participants, structure)
    for path, found, expected in (
        ("$.distribution.n", got.n_participants, want.n_participants),
        ("$.distribution.n_max", got.n_overall_max, want.n_overall_max),
        ("$.distribution.n_zero", got.n_overall_zero, want.n_overall_zero),
        ("$.general", got.general, want.general),
        *((f"$.key_goals[{i}].score", got.key_goal[key.id], want.key_goal[key.id]) for i, key in enumerate(report.key_goals)),
        *((f"$.key_goals[{i}].sub_goals[{j}].score", got.sub_goal[sub.id], want.sub_goal[sub.id]) for i, key in enumerate(report.key_goals) for j, sub in enumerate(key.sub_goals)),
    ):
        if found != expected:
            raise SchemaError(f"{path}: {found!r} does not match the participants, which give {expected!r}")
    histogram = _histogram(report.participants.overall)
    if report.histogram != histogram:
        raise SchemaError(f"$.distribution.histogram: must be the {HISTOGRAM_BINS}-bin histogram of the overalls, {list(histogram)}")

    part = report.participation
    try:
        rate = None if part is None else participation_rate(part.respondents, part.enrolled)
    except ReportError as exc:
        raise SchemaError(f"$.participation: {exc}") from None
    if part is not None and part.rate_percent != rate:
        raise SchemaError(f"$.participation.rate_percent: must be {rate!r} for {part.respondents} of {part.enrolled}")

    for key, by_value in (report.groups or {}).items():
        aggs = by_value.values()
        columns = [agg.general for agg in aggs], [agg.key_goal for agg in aggs], [agg.sub_goal for agg in aggs]
        _check_scores((f"$.groups.{key}.{value}" for value in by_value), "general", *columns, key_ids, sub_ids)
        for value, agg in by_value.items():
            if agg.n_participants < 1:
                raise SchemaError(f"$.groups.{key}.{value}.n: a group has at least one participant")
        for field, count in (("n", "n_participants"), ("n_max", "n_overall_max"), ("n_zero", "n_overall_zero")):
            total = sum(getattr(agg, count) for agg in by_value.values())
            if total != getattr(got, count):
                raise SchemaError(f"$.groups.{key}: the groups' {field} sum to {total}, not to $.distribution.{field}")


# --- csv --------------------------------------------------------------------


def _render_csv(report: ScoreReport) -> str:
    agg = report.aggregates
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")

    out.write("# report\n")
    writer.writerow(["field", "value"])
    writer.writerow(["title", report.title])
    writer.writerow(["version", report.version])
    writer.writerow(["generated_at", report.generated_at])

    out.write("# general\n")
    writer.writerow(["field", "value"])
    writer.writerow(["general", repr(agg.general)])
    writer.writerow(["n_participants", agg.n_participants])
    writer.writerow(["n_overall_max", agg.n_overall_max])
    writer.writerow(["n_overall_zero", agg.n_overall_zero])

    out.write("# key_goals\n")
    writer.writerow(["id", "label", "score"])
    for key_goal in report.key_goals:
        writer.writerow([key_goal.id, key_goal.label, repr(agg.key_goal[key_goal.id])])

    out.write("# sub_goals\n")
    writer.writerow(["id", "label", "key_goal", "score"])
    for key_goal in report.key_goals:
        for sub in key_goal.sub_goals:
            writer.writerow([sub.id, sub.label, key_goal.id, repr(agg.sub_goal[sub.id])])

    out.write("# distribution\n")
    writer.writerow(["bin_low", "bin_high", "count"])
    for i, count in enumerate(report.histogram):
        writer.writerow([f"{i / 10:.1f}", f"{(i + 1) / 10:.1f}", count])

    if report.participation is not None:
        out.write("# participation\n")
        writer.writerow(["respondents", "enrolled", "rate_percent"])
        writer.writerow([report.participation.respondents, report.participation.enrolled, repr(report.participation.rate_percent)])

    if report.groups:
        out.write("# groups\n")
        writer.writerow(["demographic", "group", "n", "scope", "id", "score"])
        for key, by_value in report.groups.items():
            for value, group_agg in by_value.items():
                writer.writerow([key, value, group_agg.n_participants, "general", "", repr(group_agg.general)])
                for key_goal in report.key_goals:
                    writer.writerow([key, value, group_agg.n_participants, "key_goal", key_goal.id, repr(group_agg.key_goal[key_goal.id])])
                    for sub in key_goal.sub_goals:
                        writer.writerow([key, value, group_agg.n_participants, "sub_goal", sub.id, repr(group_agg.sub_goal[sub.id])])

    out.write("# participants\n")
    key_ids, sub_ids = _tree_ids(report.key_goals)
    writer.writerow(["participant_id", "overall", *key_ids, *sub_ids])
    _write_participants(out, report.participants)

    if report.warnings:
        out.write("# warnings\n")
        writer.writerow(["warning"])
        for warning in report.warnings:
            writer.writerow([warning])

    return out.getvalue()


# The characters for which csv.writer may quote a cell, or (Python 3.10, for a NUL) refuse to write it: its
# delimiter and quote character, and line breaks; Python 3.13 also quotes a lone "\r", earlier versions do not.
_MAY_QUOTE = re.compile('[,"\r\n\0]')


def _write_participants(out: io.StringIO, table: ScoreTable) -> None:
    """Write the participants' rows as csv.writer would, each joined from one column of cell texts per slot, commas between them and a line end.

    The table has passed the json layout's check, so every id is a string and
    every score a finite float, whose text is its repr, through the json
    writer's repr cache. Only an id holding a character csv.writer may quote
    takes its text from csv.writer.
    """
    ids = table.ids
    id_texts = list(ids)
    for i in compress(count(), map(_MAY_QUOTE.search, ids)):
        id_texts[i] = _csv_cell(ids[i])
    score_texts = list(map(_schema.Reprs().texts, table.columns[1:]))  # one repr cache for every column
    parts = ["", *repeat(",", len(score_texts)), "\n"]
    out.writelines(_schema.batches(_schema.filled(parts, [id_texts, *score_texts])))


def _csv_cell(value: str) -> str:
    """The text csv.writer writes for value as one cell of a row of several."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((value, ""))
    return out.getvalue()[:-2]
