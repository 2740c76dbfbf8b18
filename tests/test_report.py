from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import replace
from types import MappingProxyType
from unittest import mock

import pytest
import report_reference
from csv_reference import render_csv
from hypothesis import given, settings, strategies as st

from sure_eval import _schema
from sure_eval.errors import ReportError, SchemaError
from sure_eval.goal_structure import GoalStructure, KeyGoal, SubGoal, confirm_structure
from sure_eval.ingest import parse_responses
from sure_eval.questionnaire import generate_template
from sure_eval.report import Participation, ScoreReport, _check_scores, _histogram, _report_to_obj, build_report, parse_report, participation_rate, render_report
from sure_eval.scoring import AggregateScores, ParticipantScore, ScoreTable, _tree_ids, aggregate_scores, score_all


@pytest.fixture()
def scored(structure, questionnaire, responses):
    scores, aggregates = score_all(responses, questionnaire, structure)
    return scores, aggregates


def full_report(scored, structure, responses, **kwargs):
    scores, aggregates = scored
    kwargs.setdefault("generated_at", "")
    return build_report(scores, aggregates, structure, responses, **kwargs)


def test_participation_rate_examples():
    assert participation_rate(552, 1062) == 51.98
    assert participation_rate(56, 77) == 72.73  # 72.727...% rounded half-up
    assert participation_rate(9, 20) == 45.0
    assert participation_rate(0, 10) == 0.0


def test_participation_rate_rejects_bad_counts():
    with pytest.raises(ReportError):
        participation_rate(10, 5)
    with pytest.raises(ReportError):
        participation_rate(1, 0)


def test_build_report_carries_all_levels(scored, structure, responses):
    report = full_report(scored, structure, responses, participation=(9, 20))
    assert report.title == "Online course evaluation"
    assert len(report.participants) == 9
    assert set(report.aggregates.key_goal) == {"B1", "B2", "B3", "B4"}
    assert len(report.aggregates.sub_goal) == 20
    assert report.participation.rate_percent == 45.0
    assert sum(report.histogram) == 9
    assert report.warnings and "S004" in report.warnings[0]


def test_build_report_group_counts(scored, structure, responses):
    report = full_report(scored, structure, responses, group_by=["gender"])
    groups = report.groups["gender"]
    assert sorted(groups) == ["F", "M"]
    assert groups["F"].n_participants == 6
    assert groups["M"].n_participants == 3
    assert sum(g.n_participants for g in groups.values()) == report.aggregates.n_participants


def test_group_aggregation_matches_subset_rerun(scored, structure, responses):
    report = full_report(scored, structure, responses, group_by=["gender"])
    scores, _ = scored
    by_id = {s.participant_id: s for s in scores}
    for value, group_agg in report.groups["gender"].items():
        member_scores = [
            by_id[p.participant_id]
            for p in responses.participants
            if p.demographics["gender"] == value
        ]
        assert group_agg == aggregate_scores(member_scores, structure)


def test_build_report_rejects_unknown_group_key(scored, structure, responses):
    with pytest.raises(ReportError, match="program"):
        full_report(scored, structure, responses, group_by=["program"])


def test_build_report_rejects_enrolled_below_respondents(scored, structure, responses):
    with pytest.raises(ReportError):
        full_report(scored, structure, responses, participation=(9, 5))


@pytest.mark.parametrize("overall", [-0.5, 1.5, -5e-324, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("as_table", [False, True])
def test_build_report_rejects_an_overall_score_outside_the_unit_interval(scored, structure, responses, overall, as_table):
    # regression: -0.5 was counted in the 0.5-0.6 bin, NaN raised a bare ValueError and an infinity an OverflowError
    scores, aggregates = scored
    hand_made = [*scores[:3], replace(scores[3], overall=overall), replace(scores[4], overall=2.0), *scores[5:]]
    if as_table:
        hand_made = ScoreTable.of(hand_made, *_tree_ids(structure.key_goals))
    with pytest.raises(ReportError, match=rf"^participant '{scores[3].participant_id}' has overall score {overall!r}, outside \[0, 1\]$"):
        build_report(hand_made, aggregates, structure, responses)


def test_histogram_bins_the_extremes_of_the_unit_interval():
    assert _histogram([0.0, -0.0, 5e-324, 0.1, 0.95, 1.0, 1.0]) == (3, 1, 0, 0, 0, 0, 0, 0, 0, 3)


def test_markdown_sections_in_order(scored, structure, responses):
    report = full_report(scored, structure, responses, participation=(9, 20), group_by=["gender"])
    text = render_report(report, "markdown").decode()
    positions = [text.index(h) for h in (
        "## General",
        "## Key goals",
        "## Sub goals",
        "## Distribution",
        "## Participation",
        "## Groups",
        "## Warnings",
    )]
    assert positions == sorted(positions)


def test_markdown_two_decimals_and_order(scored, structure, responses):
    text = render_report(full_report(scored, structure, responses), "markdown").decode()
    b_rows = [line for line in text.splitlines() if line.startswith("| B")]
    assert [row.split(" | ")[0].strip("| ") for row in b_rows] == ["B1", "B2", "B3", "B4"]
    for row in b_rows:
        score = row.rsplit(" | ", 1)[-1].rstrip(" |")
        assert len(score.split(".")[1]) == 2


def test_markdown_marks_extremes(scored, structure, responses):
    text = render_report(full_report(scored, structure, responses), "markdown").decode()
    lowest_rows = [line for line in text.splitlines() if "(lowest)" in line]
    highest_rows = [line for line in text.splitlines() if "(highest)" in line]
    assert lowest_rows and highest_rows
    scores, aggregates = scored
    worst = min(aggregates.sub_goal, key=aggregates.sub_goal.get)
    assert any(worst in line for line in lowest_rows)


def test_markdown_marks_all_tied_extremes(structure, questionnaire):
    # craft answers so two sub goals tie at the minimum: zero out A15 and A26
    from sure_eval.ingest import parse_responses

    question_ids = questionnaire.question_ids()
    values = {qid: "3" for qid in question_ids}
    values["Q_A15"] = "0"
    values["Q_A26"] = "0"
    header = ",".join(["participant_id", *question_ids])
    row = ",".join(["P1", *(values[qid] for qid in question_ids)])
    rs = parse_responses(f"{header}\n{row}\n".encode(), questionnaire)
    scores, aggregates = score_all(rs, questionnaire, structure)
    report = build_report(scores, aggregates, structure, rs, generated_at="")
    text = render_report(report, "markdown").decode()
    lowest_rows = [line for line in text.splitlines() if "(lowest)" in line]
    assert len(lowest_rows) == 2
    assert any("A15" in line for line in lowest_rows)
    assert any("A26" in line for line in lowest_rows)


def test_markdown_each_sub_goal_once_under_its_key_goal(scored, structure, responses):
    text = render_report(full_report(scored, structure, responses), "markdown").decode()
    lines = text.splitlines()
    # every sub-goal id appears exactly once as a table row
    for sub in structure.sub_goals():
        assert sum(1 for line in lines if line.startswith(f"| {sub.id} |")) == 1
    # and it appears after its own key goal's heading, before the next one
    for key_goal in structure.key_goals:
        start = lines.index(f"### {key_goal.id}: {key_goal.label} ({_heading_score(lines, key_goal.id)})")
        block_end = next(
            (i for i in range(start + 1, len(lines)) if lines[i].startswith(("###", "##"))),
            len(lines),
        )
        block = lines[start:block_end]
        for sub in key_goal.sub_goals:
            assert any(line.startswith(f"| {sub.id} |") for line in block)


def _heading_score(lines, key_id):
    prefix = f"### {key_id}: "
    heading = next(line for line in lines if line.startswith(prefix))
    return heading.rsplit("(", 1)[1].rstrip(")")


def test_markdown_escapes_table_cells_and_headings(scored, structure, responses):
    report = full_report(scored, structure, responses, group_by=["gender"])
    first, *others = report.key_goals
    sub_goals = (replace(first.sub_goals[0], label="Content\nof lecture"), *first.sub_goals[1:])
    key_goals = (replace(first, label="Lecture | quality\r\n", sub_goals=sub_goals), *others)
    text = render_report(replace(report, title="Online\rcourse", key_goals=key_goals), "markdown").decode()
    lines = text.splitlines()
    assert lines[0] == "# Evaluation report: Online course (version 1.0)"
    assert "| B1 | Lecture \\| quality  | 0.87 |" in lines
    assert "### B1: Lecture | quality  (0.87)" in lines
    assert "| A11 | Content of lecture | 0.61 |" in lines
    assert "| B1: Lecture \\| quality  | 0.97 |" in lines  # the table of group F
    assert len(lines) == len(render_report(report, "markdown").decode().splitlines())


def test_markdown_is_deterministic(scored, structure, responses):
    report = full_report(scored, structure, responses, participation=(9, 20), group_by=["gender"])
    assert render_report(report, "markdown") == render_report(report, "markdown")


def test_json_round_trip(scored, structure, responses):
    report = full_report(scored, structure, responses, participation=(9, 20), group_by=["gender"])
    data = render_report(report, "json")
    assert parse_report(data) == report
    assert render_report(parse_report(data), "json") == data


def test_json_round_trip_without_optionals(scored, structure, responses):
    report = full_report(scored, structure, responses)
    assert parse_report(render_report(report, "json")) == report


def _with_first_participant(report, **changes):
    return replace(report, participants=(replace(report.participants[0], **changes), *report.participants[1:]))


def test_json_writes_a_score_map_in_tree_order(scored, structure, responses):
    # regression: a map in another order was written in its own, and parse_report rejected the report
    report = full_report(scored, structure, responses, participation=(9, 20), group_by=["gender"])
    reordered = _with_first_participant(report, key_goal_scores=dict(reversed(report.participants[0].key_goal_scores.items())))
    data = render_report(reordered, "json")
    assert data == render_report(report, "json")
    assert parse_report(data) == reordered


MISFITS = [
    pytest.param("key_goal_scores", lambda scores: {key: value for key, value in scores.items() if key != "B4"}, id="without-B4"),
    pytest.param("sub_goal_scores", lambda scores: {**scores, "A99": 0.5}, id="with-A99"),
]


@pytest.mark.parametrize("field, change", MISFITS)
@pytest.mark.parametrize("entry", ["build_report", "build_report-group_by", "ScoreReport", "replace"])
def test_a_score_map_without_exactly_the_tree_ids_is_a_report_error(scored, structure, responses, field, change, entry):
    # regression: markdown rendered such a map; csv raised a bare KeyError or dropped the extra id; json raised a SchemaError
    scores, aggregates = scored
    report = full_report(scored, structure, responses)
    misfit = [replace(scores[0], **{field: change(getattr(scores[0], field))}), *scores[1:]]
    make = {
        "build_report": lambda: build_report(misfit, aggregates, structure, responses, generated_at=""),
        "build_report-group_by": lambda: build_report(misfit, aggregates, structure, responses, group_by=["gender"], generated_at=""),
        "ScoreReport": lambda: ScoreReport(**{**vars(report), "participants": misfit}),
        "replace": lambda: replace(report, participants=misfit),
    }[entry]
    ids = ", ".join(_tree_ids(structure.key_goals)[field == "sub_goal_scores"])
    with pytest.raises(ReportError) as caught:
        make()
    assert str(caught.value) == f"participant 'S001': {field} must hold exactly the tree's ids {ids}"


def test_report_participants_are_a_score_table_of_the_tree_ids(scored, structure, responses):
    scores, aggregates = scored
    key_ids, sub_ids = _tree_ids(structure.key_goals)
    report = full_report(scored, structure, responses, group_by=["gender"])
    assert report.participants is scores
    first = scores[0]
    for each in (
        build_report(list(scores), aggregates, structure, responses, group_by=["gender"], generated_at=""),
        build_report(tuple(scores), aggregates, structure, responses, generated_at=""),
        build_report(iter(scores), aggregates, structure, responses, generated_at=""),  # read once, not once per pass
        replace(report, participants=tuple(scores)),
        replace(report, participants=(replace(first, key_goal_scores=MappingProxyType(first.key_goal_scores)), *scores[1:])),
        parse_report(render_report(report, "json")),
    ):
        assert type(each.participants) is ScoreTable
        assert (each.participants.key_ids, each.participants.sub_ids) == (key_ids, sub_ids)
        assert each.participants.columns == scores.columns

    # A table of the tree's ids in another order is laid out in tree order, and written as the original.
    reversed_table = ScoreTable(key_ids[::-1], sub_ids[::-1], (scores.ids, scores.overall, *scores.key_columns[::-1], *scores.sub_columns[::-1]))
    moved = replace(report, participants=reversed_table)
    assert (moved.participants.key_ids, moved.participants.sub_ids, moved.participants.columns) == (key_ids, sub_ids, scores.columns)
    for format in ("csv", "json"):
        assert render_report(moved, format) == render_report(report, format)


def test_json_render_rejects_a_group_score_map_without_the_tree_ids(scored, structure, responses):
    report = full_report(scored, structure, responses, group_by=["gender"])
    female = report.groups["gender"]["F"]
    sub_goal = {key: value for key, value in female.sub_goal.items() if key != "A11"}
    report = replace(report, groups={"gender": {**report.groups["gender"], "F": replace(female, sub_goal=sub_goal)}})
    with pytest.raises(SchemaError, match=r"^\$\.groups\.gender\.F\.sub_goals: missing field\(s\): A11$"):
        render_report(report, "json")


# Ids and labels that a % template or a JSON string must escape, and characters written as they are.
HOSTILE = st.lists(st.sampled_from(["%", "%s", "%%", '"', "\\", ":", "\u2028", "\xe9", "\U0001f600", "a"]), min_size=1, max_size=4).map("".join)
SCORES = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 1.0, 5e-324])


@st.composite
def reports(draw):
    """A self-consistent report on a random tree with hostile ids, each score map in tree order."""
    ids = draw(st.lists(HOSTILE, min_size=2, max_size=7, unique=True))
    n_keys = draw(st.integers(1, len(ids) // 2))
    key_ids, sub_ids = ids[:n_keys], ids[n_keys:]
    key_goals = tuple(
        KeyGoal(key_id, draw(HOSTILE), tuple(SubGoal(sub_id, draw(HOSTILE), key_id) for sub_id in sub_ids[i::n_keys]))
        for i, key_id in enumerate(key_ids)
    )
    tree_sub_ids = [sub.id for key in key_goals for sub in key.sub_goals]
    structure = GoalStructure(title=draw(HOSTILE), version=draw(HOSTILE), key_goals=key_goals)
    scores = [
        ParticipantScore(
            participant_id,
            {sub_id: draw(SCORES) for sub_id in tree_sub_ids},
            {key_id: draw(SCORES) for key_id in key_ids},
            draw(SCORES),
        )
        for participant_id in draw(st.lists(HOSTILE, min_size=1, max_size=4, unique=True))
    ]
    groups = None
    if draw(st.booleans()):
        members = {}
        for score in scores:
            members.setdefault(draw(HOSTILE), []).append(score)
        groups = {draw(HOSTILE): {value: aggregate_scores(group, structure) for value, group in members.items()}}
    participation = None
    if draw(st.booleans()):
        enrolled = len(scores) + draw(st.integers(0, 3))
        participation = Participation(len(scores), enrolled, participation_rate(len(scores), enrolled))
    return ScoreReport(
        title=structure.title,
        version=structure.version,
        generated_at=draw(HOSTILE),
        aggregates=aggregate_scores(scores, structure),
        key_goals=key_goals,
        participants=tuple(scores),
        histogram=_histogram(score.overall for score in scores),
        participation=participation,
        groups=groups,
        warnings=tuple(draw(st.lists(HOSTILE, max_size=2))),
    )


@given(reports())
def test_json_render_is_json_dumps_and_round_trips(report):
    data = render_report(report, "json")
    records = [{"id": score.participant_id, "overall": score.overall, "key_goals": score.key_goal_scores, "sub_goals": score.sub_goal_scores} for score in report.participants]
    assert data == (json.dumps({**_report_to_obj(report), "participants": records}, indent=2, ensure_ascii=False) + "\n").encode()
    assert parse_report(data) == report


def test_minimal_report_general_is_one(structure, questionnaire, responses):
    from sure_eval.ingest import ResponseSet

    top = ResponseSet(
        questionnaire_version=responses.questionnaire_version,
        participants=responses.participants[:1],  # S001 answered everything with 4
        policy_applied=responses.policy_applied,
        demographics=responses.demographics,
        warnings=(),
    )
    scores, aggregates = score_all(top, questionnaire, structure)
    report = build_report(scores, aggregates, structure, top, generated_at="")
    text = render_report(report, "markdown").decode()
    assert "| General evaluation score | 1.00 |" in text


def test_csv_sections(scored, structure, responses):
    report = full_report(scored, structure, responses, participation=(9, 20), group_by=["gender"])
    text = render_report(report, "csv").decode()
    for section in ("# report", "# general", "# key_goals", "# sub_goals", "# distribution",
                    "# participation", "# groups", "# participants", "# warnings"):
        assert section + "\n" in text
    assert "B1,Lecture quality," in text


def test_render_rejects_unknown_format(scored, structure, responses):
    with pytest.raises(ValueError, match="unknown format"):
        render_report(full_report(scored, structure, responses), "pdf")


@pytest.fixture()
def report_doc(scored, structure, responses):
    """The bundled sample's json report, with participation and groups, as a mutable object."""
    report = full_report(scored, structure, responses, participation=(9, 20), group_by=["gender"])
    return json.loads(render_report(report, "json"))


_DELETE = object()


def _set(doc, path, value):
    *parents, last = path
    for step in parents:
        doc = doc[step]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize(
    "path, value, message",
    [
        pytest.param(["comment"], "x", r"^\$: unknown field\(s\): comment$", id="unknown-field"),
        pytest.param(["participants", 0, "overall"], _DELETE, r"^\$\.participants\[0\]: missing field\(s\): overall$", id="missing-field"),
        pytest.param(["participants", 2, "sub_goals", "A11"], "0.5", r"^\$\.participants\[2\]\.sub_goals\.A11: expected a number, got string$", id="string-score"),
        pytest.param(["key_goals", 1, "score"], True, r"^\$\.key_goals\[1\]\.score: expected a number, got boolean$", id="true-score"),
        pytest.param(["participants", 0, "overall"], 1, r"^\$\.participants\[0\]\.overall: expected a number, got integer$", id="integer-score"),
        pytest.param(["groups"], [], r"^\$\.groups: expected an object, got array$", id="groups-array"),
        pytest.param(["groups", "gender", "F"], None, r"^\$\.groups\.gender\.F: expected an object, got null$", id="group-null"),
    ],
)
def test_parse_report_rejects_wrong_shape_with_path(report_doc, path, value, message):
    _set(report_doc, path, value)
    with pytest.raises(SchemaError, match=message):
        parse_report(json.dumps(report_doc).encode())


@pytest.mark.parametrize(
    "path, value, message",
    [
        # regression: a NaN general, n = 999 for 9 participants and a 1-bin histogram were each accepted
        pytest.param(["general"], math.nan, r"^\$\.general: expected a number, got NaN$", id="nan-general"),
        pytest.param(["distribution", "n"], 999, r"^\$\.distribution\.n: 999 does not match", id="n-999"),
        pytest.param(["distribution", "histogram"], [9], r"^\$\.distribution\.histogram: must be the 10-bin histogram", id="one-bin-histogram"),
        # every other consistency rule, one fault at a time
        pytest.param(["participants", 3, "overall"], -math.inf, r"^\$\.participants\[3\]\.overall: expected a number, got -Infinity$", id="infinite-overall"),
        pytest.param(["participants", 0, "overall"], math.nan, r"^\$\.participants\[0\]\.overall: expected a number, got NaN$", id="nan-overall"),
        pytest.param(["distribution", "n_max"], 3, r"^\$\.distribution\.n_max: ", id="n-max"),
        pytest.param(["distribution", "n_zero"], 0, r"^\$\.distribution\.n_zero: ", id="n-zero"),
        pytest.param(["participants", 1, "key_goals", "B2"], 1.5, r"^\$\.participants\[1\]\.key_goals\.B2: score 1\.5 is outside \[0, 1\]$", id="score-above-one"),
        pytest.param(["participants", 4, "sub_goals"], {"A12": 0.5}, r"^\$\.participants\[4\]\.sub_goals: ids must be the report's, in order", id="sub-ids"),
        pytest.param(["participants"], [], r"^\$\.participants: a report has at least one participant$", id="no-participants"),
        pytest.param(["key_goals", 0, "sub_goals", 0, "id"], "A12", r"^\$\.key_goals\[0\]\.sub_goals\[1\]: id 'A12' is already used$", id="duplicate-id"),
        pytest.param(["key_goals", 2, "sub_goals", 1, "score"], 0.5, r"^\$\.key_goals\[2\]\.sub_goals\[1\]\.score: 0\.5 does not match", id="sub-goal-aggregate"),
        pytest.param(["participation", "rate_percent"], 45.01, r"^\$\.participation\.rate_percent: must be 45\.0", id="participation-rate"),
        pytest.param(["participation", "enrolled"], 8, r"^\$\.participation: enrolled \(8\) is smaller than respondents \(9\)$", id="participation-counts"),
        pytest.param(["groups", "gender", "F", "n"], 7, r"^\$\.groups\.gender: the groups' n sum to 10, not to \$\.distribution\.n$", id="group-sizes"),
        pytest.param(["groups", "gender"], {}, r"^\$\.groups\.gender: the groups' n sum to 0, not to \$\.distribution\.n$", id="group-key-without-groups"),
        pytest.param(["groups", "gender", "M", "general"], -0.25, r"^\$\.groups\.gender\.M\.general: score -0\.25 is outside \[0, 1\]$", id="group-score-below-zero"),
        pytest.param(["participants", 0, "overall"], 1.5, r"^\$\.participants\[0\]\.overall: score 1\.5 is outside \[0, 1\]$", id="overall-above-one"),
        pytest.param(["participants", 2, "key_goals"], {"B2": 0.5, "B1": 0.5, "B3": 0.5, "B4": 0.5}, r"^\$\.participants\[2\]\.key_goals: ids must be the report's, in order: B1, B2, B3, B4$", id="key-ids-swapped"),
        pytest.param(["groups", "gender", "F", "key_goals"], {"B2": 0.5, "B1": 0.5, "B3": 0.5, "B4": 0.5}, r"^\$\.groups\.gender\.F\.key_goals: ids must be the report's, in order: B1, B2, B3, B4$", id="group-key-ids-swapped"),
    ],
)
def test_parse_report_rejects_inconsistent_figures_with_path(report_doc, path, value, message):
    _set(report_doc, path, value)
    with pytest.raises(SchemaError, match=message):
        parse_report(json.dumps(report_doc).encode())


def test_parse_report_rejects_a_repeated_name(report_doc):
    text = json.dumps(report_doc, indent=2).replace('"A11": 1.0,', '"A11": 0.5, "A11": 1.0,', 1)
    with pytest.raises(SchemaError, match=r"^report repeats the name 'A11' in one object$"):
        parse_report(text)


def test_parse_report_rejects_a_repeated_name_whose_colon_an_escape_makes_up(report_doc):
    # The repeat drops one ":" from the loaded value and the escaped one adds one, so the counts agree: only the \u check leaves this to the hooked reader.
    text = json.dumps(report_doc, indent=2).replace('"A11": 1.0,', '"A11": 1.0, "A11": 1.0,', 1).replace('"title": "', '"title": "\\u003a', 1)
    with pytest.raises(SchemaError, match=r"^report repeats the name 'A11' in one object$"):
        parse_report(text)


def test_parse_report_requires_aggregates_bit_for_bit(report_doc):
    report_doc["general"] = math.nextafter(report_doc["general"], 0.0)
    with pytest.raises(SchemaError, match=r"^\$\.general: .* does not match the participants"):
        parse_report(json.dumps(report_doc).encode())


# --- parse_report against the hooked reader it replaced ------------------------


class _Members(list):
    """An object's (name, value) members in document order, as loaded; a name may repeat."""


class _Raw(str):
    """A number's text as it should be written, such as 1e999, which loads as an infinite float."""


def _encode(value):
    if type(value) is _Members:
        return "{" + ", ".join(json.dumps(name, ensure_ascii=False) + ": " + _encode(member) for name, member in value) + "}"
    if type(value) is list:
        return "[" + ", ".join(map(_encode, value)) + "]"
    return value if type(value) is _Raw else json.dumps(value, ensure_ascii=False)


def _member(members, name):
    return next(value for key, value in members if key == name)


def _records(doc):
    return _member(doc, "participants")


def _group_aggregates(doc):
    return [aggregates for _, by_value in _member(doc, "groups") or () for _, aggregates in by_value]


def _group_objects(doc):
    """The groups map, each demographic's map of groups, and each group's aggregates."""
    groups = _member(doc, "groups") or _Members()
    return [groups, *(by_value for _, by_value in groups), *_group_aggregates(doc)]


def _score_maps(doc):
    return [_member(holder, name) for holder in (*_records(doc), *_group_aggregates(doc)) for name in ("key_goals", "sub_goals")]


def _repeat_a_name(doc, draw):
    objects = draw(st.sampled_from([lambda doc: [doc], _records, _score_maps, _group_objects]))(doc)
    members = draw(st.sampled_from(objects))
    if members:  # the same member again, after it: the loaded value is the document's without the repeat, its names in their order
        i = draw(st.integers(0, len(members) - 1))
        members.insert(draw(st.integers(i + 1, len(members))), members[i])


def _colons(value):
    """The members of every object in a loaded value plus the colons of its names and strings."""
    if type(value) is dict:
        return len(value) + sum(name.count(":") + _colons(member) for name, member in value.items())
    if type(value) is list:
        return sum(map(_colons, value))
    return value.count(":") if type(value) is str else 0


def _move_a_member(objects):
    def move(doc, draw):
        members = draw(st.sampled_from(objects(doc)))
        if len(members) > 1:
            members.append(members.pop(draw(st.integers(0, len(members) - 2))))
    return move


ODD_SCORES = [1, 0, True, False, None, "0.5", math.nan, math.inf, _Raw("1e999"), _Raw("-1e999"), 1.5, -0.25, -5e-324, -0.0, 5e-324]


def _set_a_score(doc, draw):
    holders = [*_records(doc), *_score_maps(doc), doc, *_group_objects(doc)]
    members = draw(st.sampled_from(holders))
    numbers = [i for i, (_, value) in enumerate(members) if type(value) is float]
    if numbers:
        i = draw(st.sampled_from(numbers))
        members[i] = (members[i][0], draw(st.sampled_from(ODD_SCORES)))


MUTATIONS = [_repeat_a_name, _move_a_member(_records), _move_a_member(_score_maps), _set_a_score]


def _read_or_error(parse, document):
    try:
        report = parse(document)
    except SchemaError as exc:
        return str(exc)
    return report, render_report(report, "json")


@settings(max_examples=500)
@given(reports(), st.data())
def test_parse_report_accepts_and_words_what_the_hooked_reader_did(report, data):
    """Repeated names, reordered fields and maps, odd scores, colons and \\u escapes in strings, spaces around ":"."""
    doc = json.loads(render_report(report, "json"), object_pairs_hook=_Members)
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(doc, data.draw)
    text = _encode(doc).replace('"title": "', '"title": "' + data.draw(st.sampled_from(["", ":", "\\u003a", "\\u0041"])), 1)
    text = text.replace("\xe9", data.draw(st.sampled_from(["\xe9", ":", "\\u003a", "\\u00e9"])))  # only strings hold an e-acute
    if data.draw(st.booleans()):  # as many \u003a in the title as the colons that repeated names drop: the text then has as many colons as the loaded value
        text = text.replace('"title": "', '"title": "' + "\\u003a" * (text.count(":") - _colons(json.loads(text))), 1)
    text = text.replace('": ', '"' + data.draw(st.sampled_from([": ", ":", " : ", "\n:\n"])))
    document = data.draw(st.sampled_from([str, str.encode, lambda text: bytearray(text.encode())]))(text)
    assert _read_or_error(parse_report, document) == _read_or_error(report_reference.parse_report, document)


@settings(max_examples=500)
@given(reports(), st.data())
def test_parse_report_words_one_repeated_name_or_moved_map_id(report, data):
    """One name repeated after its original, with as many \\u003a in the title as the colons the repeat drops (the counts then agree, so only the \\u check leaves the document to the hooked reader), or one score map's ids out of order."""
    doc = json.loads(render_report(report, "json"), object_pairs_hook=_Members)
    data.draw(st.sampled_from([_repeat_a_name, _move_a_member(_score_maps)]))(doc, data.draw)
    text = _encode(doc)
    text = text.replace('"title": "', '"title": "' + "\\u003a" * (text.count(":") - _colons(json.loads(text))), 1)
    assert _read_or_error(parse_report, text) == _read_or_error(report_reference.parse_report, text)


@given(reports())
def test_parse_report_accepts_a_written_report_without_the_hooked_loader(report):
    with mock.patch("sure_eval._schema.load_json", side_effect=AssertionError("the hooked loader ran")):
        assert parse_report(render_report(report, "json")) == report


def test_parse_report_runs_the_hooked_loader_once_for_a_fault_a_repeated_name_or_an_escape(scored, structure, responses):
    text = render_report(full_report(scored, structure, responses), "json").decode()
    last_overall = text.rindex('"overall": ') + len('"overall": ')
    out_of_range = text[:last_overall] + "1.5" + text[text.index(",", last_overall) :]
    repeated = text.replace('"general": ', '"general": 0.5,\n  "general": ', 1)  # accepted as it loads without the hook
    repeated_out_of_range = text[:last_overall] + '0.5, "overall": 1.5' + text[text.index(",", last_overall) :]  # rejected as it loads without the hook
    escaped = text.replace('"title": "', '"title": "\\u0041', 1)
    for document, outcome in (
        (out_of_range, r"\.overall: score 1\.5 is outside \[0, 1\]$"),
        (repeated, "^report repeats the name 'general' in one object$"),
        (repeated_out_of_range, "^report repeats the name 'overall' in one object$"),
        (escaped, None),
    ):
        with mock.patch("sure_eval._schema.load_json", wraps=_schema.load_json) as load_json:
            if outcome is None:
                assert parse_report(document).title == "A" + structure.title
            else:
                with pytest.raises(SchemaError, match=outcome):
                    parse_report(document)
        assert load_json.call_count == 1


def _insert_after(text, section, name, member):
    """text with member inserted after the value of the first "name": member at or after the first section in it."""
    at = text.index(f'"{name}": ', text.index(section))
    end = min(text.index(",", at), text.index("\n", at))
    return text[:end] + ", " + member + text[end:]


@pytest.mark.parametrize(
    "section, name, value",
    [
        pytest.param('"participants"', "overall", "1.5", id="record"),
        pytest.param('"participants"', "A11", "1", id="score-map"),
        pytest.param('"groups"', "general", "-0.25", id="group"),
    ],
)
def test_parse_report_names_a_repeated_name_whose_later_copy_is_a_score_fault(scored, structure, responses, section, name, value):
    # The plain load keeps the later, faulty copy; with no \u escape in the text, only the hooked load names the repeat.
    text = render_report(full_report(scored, structure, responses, participation=(9, 20), group_by=["gender"]), "json").decode()
    document = _insert_after(text, section, name, f'"{name}": {value}')
    assert "\\u" not in document
    assert _read_or_error(parse_report, document) == _read_or_error(report_reference.parse_report, document) == f"report repeats the name {name!r} in one object"


# --- parse_report's numbers: one float per distinct text ---------------------


def test_parse_report_reads_each_score_bit_for_bit_one_float_per_text_and_none_shared_between_calls():
    structure = _tiny_structure(2)
    values = [-0.0, 0.0, 5e-324, 1.0, 0.5, 1 / 3]
    columns = [tuple(values[(i + j) % len(values)] for i in range(12)) for j in range(4)]  # every value in every column
    table = ScoreTable(("K1",), ("S1", "S2"), (tuple(f"P{i}" for i in range(12)), *columns))
    report = ScoreReport("t", "1", "", aggregate_scores(table, structure), structure.key_goals, table, _histogram(table.overall), None, None, ())
    document = render_report(report, "json")
    first, second = parse_report(document), parse_report(document)
    assert first == report
    assert [list(map(float.hex, column)) for column in first.participants.columns[1:]] == [list(map(float.hex, column)) for column in columns]
    scores = [value for column in first.participants.columns[1:] for value in column]
    assert len({*map(id, scores)}) == len({*map(repr, scores)}) == len(values)
    assert not {*map(id, scores)} & {id(value) for column in second.participants.columns[1:] for value in column}


def test_parse_report_names_a_score_too_large_for_a_double_as_before(scored, structure, responses):
    # 1e999 goes through the float cache and loads as inf; json.dumps cannot write it, so the text is edited.
    text = render_report(full_report(scored, structure, responses), "json").decode()
    at = text.index('"overall": ') + len('"overall": ')
    document = text[:at] + "1e999" + text[text.index(",", at) :]
    with pytest.raises(SchemaError, match=r"^\$\.participants\[0\]\.overall: expected a number, got Infinity$"):
        parse_report(document)
    assert _read_or_error(parse_report, document) == _read_or_error(report_reference.parse_report, document)


# --- parse_report's one gathered pass over the participants ------------------


def _reorder_record(doc):
    doc["participants"][1] = dict(reversed(doc["participants"][1].items()))


@pytest.mark.parametrize(
    "path, value, message",
    [
        pytest.param(["participants", 2, "key_goals"], {"B2": 0.5, "B1": 0.5, "B3": 0.5, "B4": 0.5}, r"^\$\.participants\[2\]\.key_goals: ids must be the report's, in order: B1, B2, B3, B4$", id="ids-out-of-order"),
        pytest.param(["participants", 1, "sub_goals", "A12"], 0, r"^\$\.participants\[1\]\.sub_goals\.A12: expected a number, got integer$", id="int-score"),
        pytest.param(["participants", 3, "key_goals", "B3"], False, r"^\$\.participants\[3\]\.key_goals\.B3: expected a number, got boolean$", id="bool-score"),
        pytest.param(["participants", 4, "sub_goals"], [0.5], r"^\$\.participants\[4\]\.sub_goals: expected an object, got array$", id="map-not-an-object"),
        pytest.param(["participants"], [], r"^\$\.participants: a report has at least one participant$", id="no-participants"),
        pytest.param(None, _reorder_record, None, id="record-fields-reordered"),
    ],
)
def test_parse_report_words_what_the_gathered_pass_rejects_as_before(report_doc, path, value, message):
    if path is None:
        value(report_doc)
    else:
        _set(report_doc, path, value)
    document = json.dumps(report_doc).encode()
    with mock.patch("sure_eval._schema.load_json", wraps=_schema.load_json) as load_json:
        outcome = _read_or_error(parse_report, document)
    assert load_json.call_count <= 1
    assert outcome == _read_or_error(report_reference.parse_report, document)
    if message is None:
        assert not isinstance(outcome, str)
    else:
        assert re.match(message, outcome)


def test_parse_report_reads_a_written_report_in_the_gathered_pass_alone(scored, structure, responses):
    report = full_report(scored, structure, responses, participation=(9, 20), group_by=["gender"])
    document = render_report(report, "json")
    with mock.patch("sure_eval._schema.check", side_effect=AssertionError("the checks ran")), mock.patch("sure_eval.report._check_scores", wraps=_check_scores) as check_scores:
        assert parse_report(document) == report
    assert check_scores.call_count == 1  # the groups', by _check_consistent


# --- one key goal with one sub goal: every per-id column is a single one -----


def _tiny_structure(n_subs):
    subs = tuple(SubGoal(id=f"S{j}", label=f"s{j}", parent="K1") for j in range(1, n_subs + 1))
    return GoalStructure(title="t", version="1", key_goals=(KeyGoal(id="K1", label="k", sub_goals=subs),))


def test_one_key_goal_one_sub_goal_through_groups_and_csv():
    structure = confirm_structure(_tiny_structure(1), ["approver"], "2021-01")
    questionnaire = generate_template(structure)
    data = b"participant_id,cohort,Q_S1\nP1,a,4\nP2,b,1\nP3,a,2\n"
    responses = parse_responses(data, questionnaire, demographics=["cohort"])
    assert [p.answers for p in responses.participants] == [{"Q_S1": 4}, {"Q_S1": 1}, {"Q_S1": 2}]
    scores, aggregates = score_all(responses, questionnaire, structure)
    assert (aggregates.general, aggregates.key_goal, aggregates.sub_goal) == (1.75 / 3, {"K1": 1.75 / 3}, {"S1": 1.75 / 3})
    group_a = aggregate_scores([scores[0], scores[2]], structure)
    assert (group_a.general, group_a.key_goal, group_a.sub_goal, group_a.n_overall_max) == (0.75, {"K1": 0.75}, {"S1": 0.75}, 1)

    report = build_report(scores, aggregates, structure, responses, group_by=["cohort"], generated_at="")
    assert report.groups == {"cohort": {"a": group_a, "b": aggregate_scores([scores[1]], structure)}}
    text = render_report(report, "csv").decode()
    assert text.split("# groups\n")[1] == (
        "demographic,group,n,scope,id,score\n"
        "cohort,a,2,general,,0.75\n"
        "cohort,a,2,key_goal,K1,0.75\n"
        "cohort,a,2,sub_goal,S1,0.75\n"
        "cohort,b,1,general,,0.25\n"
        "cohort,b,1,key_goal,K1,0.25\n"
        "cohort,b,1,sub_goal,S1,0.25\n"
        "# participants\n"
        "participant_id,overall,K1,S1\n"
        "P1,1.0,1.0,1.0\n"
        "P2,0.25,0.25,0.25\n"
        "P3,0.5,0.5,0.5\n"
    )


def test_csv_keeps_the_sign_of_a_zero_sub_goal_score(structure, questionnaire, responses):
    tiny = _tiny_structure(3)
    scores = [
        ParticipantScore("P1", {"S1": 0.0, "S2": -0.0, "S3": 0.5}, {"K1": 0.5}, 0.5),
        ParticipantScore("P2", {"S1": -0.0, "S2": 0.0, "S3": 0.5}, {"K1": 0.5}, -0.0),
    ]
    report = replace(
        build_report(*score_all(responses, questionnaire, structure), structure, responses, generated_at=""),
        key_goals=tiny.key_goals,
        participants=tuple(scores),
        aggregates=aggregate_scores(scores, tiny),
        warnings=(),
    )
    text = render_report(report, "csv").decode()
    assert text.split("# participants\n")[1] == (
        "participant_id,overall,K1,S1,S2,S3\n"
        "P1,0.5,0.5,0.0,-0.0,0.5\n"
        "P2,-0.0,0.5,-0.0,0.0,0.5\n"
    )


def test_csv_and_json_refuse_an_int_score_with_one_error(structure, questionnaire, responses):
    # regression: the repr cache took int 0 and 1 for the equal floats 0.0 and 1.0, so every later 0.0 and 1.0 was written "0" and "1"
    scores, aggregates = score_all(responses, questionnaire, structure)
    report = build_report(scores, aggregates, structure, responses, generated_at="")
    first = scores[0]
    sub_scores = dict(first.sub_goal_scores)
    sub_scores.update(zip(list(sub_scores)[:2], (0, 1)))
    hand_made = replace(report, participants=(replace(first, sub_goal_scores=sub_scores), *scores[1:]))
    for format in ("json", "csv"):
        with pytest.raises(SchemaError, match=r"^\$\.participants\[0\]\.sub_goals\.A11: expected a number, got integer$"):
            render_report(hand_made, format)


@pytest.mark.xfail(raises=pytest.fail.Exception, strict=True, reason="build_report range-checks only the overall column, so the report is built and written, and parse_report refuses its json")
def test_build_report_refuses_a_sub_goal_score_outside_0_1(structure, questionnaire, responses):
    scores, aggregates = score_all(responses, questionnaire, structure)
    first = scores[0]
    hand_made = (replace(first, sub_goal_scores={**first.sub_goal_scores, "A11": 1.5}), *scores[1:])
    with pytest.raises(ReportError):
        build_report(hand_made, aggregates, structure, responses, generated_at="")


# Text csv.writer quotes, or may (a lone CR from Python 3.13 on), next to text it writes as it is.
_CSV_TEXT = st.lists(st.sampled_from([",", '"', "\r", "\n", "\r\n", "\u2028", "\x0c", " ", "\t", "%s", "é", "字", "a"]), max_size=5).map("".join) | st.text(max_size=5)
_FINITE = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-310]) | st.floats(allow_nan=False, allow_infinity=False)
_FLOATS = _FINITE | st.floats()
_HAND_MADE = st.integers() | st.booleans() | st.none() | _CSV_TEXT


@st.composite
def csv_reports(draw):
    """A report whose participants are a score table or hand-made scores: any ids, float columns, and columns holding other values.

    Half of them fit the json layout by construction (string ids, finite
    floats), so that csv writes them; only a few of the others do.
    """
    key_goals = tuple(
        KeyGoal(f"K{k}", draw(_CSV_TEXT), tuple(SubGoal(f"S{k}{j}", draw(_CSV_TEXT), f"K{k}") for j in range(draw(st.integers(1, 3)))))
        for k in range(draw(st.integers(1, 2)))
    )
    key_ids, sub_ids = _tree_ids(key_goals)
    n = draw(st.integers(0, 6))
    fitting = draw(st.booleans())
    text_ids = st.lists(_CSV_TEXT, min_size=n, max_size=n)
    ids = draw(text_ids if fitting else text_ids | st.lists(_CSV_TEXT | st.integers() | st.none(), min_size=n, max_size=n))
    scores = st.lists(_FINITE, min_size=n, max_size=n) if fitting else st.lists(_FLOATS, min_size=n, max_size=n) | st.lists(_FLOATS | _HAND_MADE, min_size=n, max_size=n)
    columns = [draw(scores) for _ in range(1 + len(key_ids) + len(sub_ids))]
    table = ScoreTable(key_ids, sub_ids, (tuple(ids), *map(tuple, columns)))
    return ScoreReport(
        title=draw(_CSV_TEXT),
        version="1",
        generated_at="",
        aggregates=AggregateScores(0.5, dict.fromkeys(key_ids, 0.25), dict.fromkeys(sub_ids, -0.0), n, 0, 0),
        key_goals=key_goals,
        participants=table if draw(st.booleans()) else tuple(table),
        histogram=(n,) + (0,) * 9,
        participation=None,
        groups=None,
        warnings=tuple(draw(st.lists(_CSV_TEXT, max_size=2))),
    )


def _csv_or_error(render, report):
    try:
        return render(report)
    except csv.Error as exc:  # Python 3.10's csv.writer refuses a NUL without an escape character
        return repr(exc)


@given(csv_reports())
def test_csv_is_the_bytes_csv_writer_writes_row_by_row(report):
    # csv refuses exactly the reports json refuses, with the same SchemaError, and writes every other one as csv.writer would
    try:
        render_report(report, "json")
    except SchemaError as exc:
        with pytest.raises(SchemaError) as refused:
            render_report(report, "csv")
        assert str(refused.value) == str(exc)
    else:
        assert _csv_or_error(lambda each: render_report(each, "csv"), report) == _csv_or_error(render_csv, report)


def test_groups_name_the_first_participant_without_a_score(scored, structure, responses):
    scores, aggregates = scored
    with pytest.raises(ReportError, match=r"^participant 'S002' has no score; inputs are not from one run$"):
        build_report(scores.take([0, 2, 3]), aggregates, structure, responses, group_by=["gender"])


@pytest.mark.parametrize("value", [None, 1], ids=["missing", "int"])
def test_groups_name_the_first_participant_whose_value_is_not_a_string(scored, structure, responses, value):
    # regression: a hand-made record without the key raised a TypeError from the sort, and an int value built a report that markdown and json could not write
    scores, aggregates = scored
    records = list(responses.participants)
    for at in (1, 3):
        records[at] = replace(records[at], demographics={} if value is None else {"gender": value})
    with pytest.raises(ReportError, match=rf"^participant '{records[1].participant_id}': demographic 'gender' must be a string, found {value!r}$"):
        build_report(scores, aggregates, structure, replace(responses, participants=records), group_by=["gender"])
