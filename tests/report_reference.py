"""Reference for sure_eval.report.parse_report.

The reader as it was before C-level passes accepted a report: every
document loaded with the repeated-name hook (``_schema.load_json``), checked
against ``REPORT_SHAPE`` (``_schema.check``), then its participants' ids and
ranges walked in ``_check_scores`` and its figures compared with the
participants', in the same order and with the same texts. The aggregates are
summed with ``reduce(add, column, 0.0)``, as ``aggregate_scores`` summed them
then. Shared with the package: the json loader and shape check, the report's
shape and record types, the tree's validation, the histogram and the
participation rate.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, count
from operator import add, itemgetter

from sure_eval import _schema
from sure_eval.errors import ReportError, SchemaError
from sure_eval.goal_structure import GoalStructure, key_goals_from_obj, validate_structure
from sure_eval.report import HISTOGRAM_BINS, REPORT_SHAPE, Participation, ScoreReport, _histogram, participation_rate
from sure_eval.scoring import AggregateScores, ScoreTable, _tree_ids


def parse_report(document):
    data = _schema.load_json(document, "report")
    _schema.check(data, REPORT_SHAPE)
    distribution, groups, participants = data["distribution"], data["groups"], data["participants"]
    structure = GoalStructure(title=data["title"], version=data["version"], key_goals=key_goals_from_obj(data["key_goals"]))
    for violation in validate_structure(structure)[:1]:
        raise SchemaError(f"{violation.path}: {violation.message}")
    if not participants:
        raise SchemaError("$.participants: a report has at least one participant")
    key_ids, sub_ids = _tree_ids(structure.key_goals)
    overall = tuple(map(itemgetter("overall"), participants))
    key_maps, sub_maps = list(map(itemgetter("key_goals"), participants)), list(map(itemgetter("sub_goals"), participants))
    columns = _check_scores(map("$.participants[{}]".format, count()), "overall", overall, key_maps, sub_maps, key_ids, sub_ids)
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
        participants=ScoreTable(key_ids, sub_ids, (tuple(map(itemgetter("id"), participants)), *columns)),
        histogram=tuple(distribution["histogram"]),
        participation=None if data["participation"] is None else Participation(**data["participation"]),
        groups=None if groups is None else {
            key: {value: AggregateScores(a["general"], a["key_goals"], a["sub_goals"], a["n"], a["n_max"], a["n_zero"]) for value, a in by_value.items()}
            for key, by_value in groups.items()
        },
        warnings=tuple(data["warnings"]),
    )
    _check_consistent(report)
    return report


def _aggregate(table):
    n = len(table)
    general, *means = [reduce(add, column, 0.0) / n for column in table.columns[1:]]
    return AggregateScores(general, dict(zip(table.key_ids, means)), dict(zip(table.sub_ids, means[len(table.key_ids) :])), n, table.overall.count(1.0), table.overall.count(0.0))


def _check_scores(paths, field, scores, key_maps, sub_maps, key_ids, sub_ids):
    values = list(chain(scores, chain.from_iterable(map(dict.values, chain(key_maps, sub_maps)))))
    ids_fit = all(map(key_ids.__eq__, map(tuple, key_maps))) and all(map(sub_ids.__eq__, map(tuple, sub_maps)))
    if ids_fit and 0.0 <= min(values, default=0.0) and max(values, default=0.0) <= 1.0:
        n, n_keys, subs_from = len(scores), len(key_ids), len(scores) * (1 + len(key_ids))
        return [tuple(scores), *(tuple(values[n + j : subs_from : n_keys]) for j in range(n_keys)), *(tuple(values[subs_from + j :: len(sub_ids)]) for j in range(len(sub_ids)))]
    for path, score, key_scores, sub_scores in zip(paths, scores, key_maps, sub_maps):
        for name, by_id, ids in (("key_goals", key_scores, key_ids), ("sub_goals", sub_scores, sub_ids)):
            if tuple(by_id) != ids:
                raise SchemaError(f"{path}.{name}: ids must be the report's, in order: {', '.join(ids)}")
            for key, value in by_id.items():
                if not 0.0 <= value <= 1.0:
                    raise SchemaError(f"{path}.{name}.{key}: score {value!r} is outside [0, 1]")
        if not 0.0 <= score <= 1.0:
            raise SchemaError(f"{path}.{field}: score {score!r} is outside [0, 1]")


def _check_consistent(report):
    key_ids, sub_ids = _tree_ids(report.key_goals)
    got, want = report.aggregates, _aggregate(report.participants)
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
        for field, count_ in (("n", "n_participants"), ("n_max", "n_overall_max"), ("n_zero", "n_overall_zero")):
            total = sum(getattr(agg, count_) for agg in by_value.values())
            if total != getattr(got, count_):
                raise SchemaError(f"$.groups.{key}: the groups' {field} sum to {total}, not to $.distribution.{field}")
