from __future__ import annotations

import json
from dataclasses import replace

import pytest

from sure_eval.errors import InvalidQuestionnaireError, NotConfirmedError, SchemaError
from sure_eval.goal_structure import GoalStructure, KeyGoal, SubGoal, confirm_structure
from sure_eval.ingest import normalize
from sure_eval.questionnaire import (
    Question,
    Questionnaire,
    default_scale,
    generate_template,
    parse_questionnaire,
    render_questionnaire,
    serialize_questionnaire,
    validate_questionnaire,
)


def tiny_structure(confirmed=True):
    gs = GoalStructure(
        title="t",
        version="1",
        key_goals=(KeyGoal(id="K1", label="k", sub_goals=(SubGoal(id="S1", label="thing", parent="K1"),)),),
    )
    return confirm_structure(gs, ["approver"], "2021-01") if confirmed else gs


def test_default_scale_labels():
    scale = default_scale()
    assert scale.size == 5
    assert (scale.levels[0].code, scale.levels[0].label) == (0, "Disagree at all")
    assert scale.levels[1].label == "Up to 30% agree"
    assert scale.levels[2].label == "31-50% agree"
    assert scale.levels[3].label == "51-75% agree"
    assert (scale.levels[4].code, scale.levels[4].label) == (4, "76-100% agree")
    assert [level.code for level in scale.levels] == [0, 1, 2, 3, 4]


def test_default_scale_normalizes_to_quarters():
    scale = default_scale()
    assert [normalize(code, scale) for code in range(5)] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_template_from_bundled_structure(structure):
    template = generate_template(structure)
    assert len(template.questions) == 20
    assert template.questions[0].sub_goal == "A11"
    assert template.questions[0].id == "Q_A11"
    assert "Content of lecture" in template.questions[0].text
    assert template.status == "draft"
    assert template.structure_version == structure.version
    assert validate_questionnaire(template, structure) == []


def test_template_single_sub_goal():
    template = generate_template(tiny_structure())
    assert len(template.questions) == 1


def test_template_requires_confirmed():
    with pytest.raises(NotConfirmedError, match="structure_not_confirmed"):
        generate_template(tiny_structure(confirmed=False))


def test_validate_flags_uncovered_sub_goal(structure, questionnaire):
    pruned = Questionnaire(
        questions=tuple(q for q in questionnaire.questions if q.sub_goal != "A26"),
        scale=questionnaire.scale,
        structure_version=questionnaire.structure_version,
    )
    violations = validate_questionnaire(pruned, structure)
    assert [v.code for v in violations] == ["uncovered_sub_goal"]
    assert "A26" in violations[0].message


def test_validate_flags_unknown_sub_goal(structure, questionnaire):
    extended = Questionnaire(
        questions=questionnaire.questions + (Question(id="Q_A99", text="?", sub_goal="A99"),),
        scale=questionnaire.scale,
        structure_version=questionnaire.structure_version,
    )
    assert [v.code for v in validate_questionnaire(extended, structure)] == ["unknown_sub_goal"]


def test_validate_flags_duplicate_question_id(structure, questionnaire):
    doubled = Questionnaire(
        questions=questionnaire.questions + (Question(id="Q_A11", text="again", sub_goal="A11"),),
        scale=questionnaire.scale,
        structure_version=questionnaire.structure_version,
    )
    assert [v.code for v in validate_questionnaire(doubled, structure)] == ["duplicate_question_id"]


def test_render_markdown_layout(structure, questionnaire):
    text = render_questionnaire(questionnaire, structure, "markdown")
    assert text.count("| # | Question |") == 4  # one table per key goal
    assert text.count("| Please rate:") == 20
    header = next(line for line in text.splitlines() if line.startswith("| # |"))
    assert header.count("|") == 2 + 1 + 5  # id, question, five level columns
    assert "76-100% agree" in header


def test_render_markdown_escapes_table_cells_and_headings(structure, questionnaire):
    labels = [level.label for level in questionnaire.scale.levels]
    scale = replace(questionnaire.scale, levels=(replace(questionnaire.scale.levels[0], label="no | never"), *questionnaire.scale.levels[1:]))
    questions = (replace(questionnaire.questions[0], text="Rate the\r\ncontent | pace"), *questionnaire.questions[1:])
    key_goals = (replace(structure.key_goals[0], label="Lecture\nquality"), *structure.key_goals[1:])
    text = render_questionnaire(replace(questionnaire, scale=scale, questions=questions), replace(structure, key_goals=key_goals), "markdown")
    lines = text.splitlines()
    assert "## Lecture quality (B1)" in lines
    assert "| # | Question | no \\| never | " + " | ".join(labels[1:]) + " |" in lines
    assert "| 1 | Rate the content \\| pace |" + "  |" * len(labels) in lines
    assert len(lines) == len(render_questionnaire(questionnaire, structure, "markdown").splitlines())


def test_render_csv_header(structure, questionnaire):
    header = render_questionnaire(questionnaire, structure, "csv-header")
    columns = header.split(",")
    assert columns[0] == "participant_id"
    assert columns[1:] == [f"Q_{sub.id}" for sub in structure.sub_goals()]
    assert len(columns) == 1 + 20


def test_render_csv_header_with_demographics(structure, questionnaire):
    header = render_questionnaire(questionnaire, structure, "csv-header", demographics=["gender", "program"])
    columns = header.split(",")
    assert columns[:3] == ["participant_id", "gender", "program"]
    assert len(columns) == 1 + 2 + 20


def test_render_rejects_invalid_questionnaire(structure):
    empty = Questionnaire(questions=(), scale=default_scale(), structure_version="1.0")
    with pytest.raises(InvalidQuestionnaireError):
        render_questionnaire(empty, structure, "markdown")


def test_questionnaire_round_trip(questionnaire):
    assert parse_questionnaire(serialize_questionnaire(questionnaire)) == questionnaire


def test_parse_rejects_gapped_scale(questionnaire):
    doc = json.loads(serialize_questionnaire(questionnaire))
    doc["scale"][2]["code"] = 7
    with pytest.raises(SchemaError, match="codes must be 0..L-1"):
        parse_questionnaire(json.dumps(doc).encode())


def test_parse_rejects_unknown_field(questionnaire):
    doc = json.loads(serialize_questionnaire(questionnaire))
    doc["language"] = "en"
    with pytest.raises(SchemaError, match="unknown field"):
        parse_questionnaire(json.dumps(doc).encode())


def test_parse_rejects_a_repeated_name(questionnaire):
    text = serialize_questionnaire(questionnaire).decode().replace('"code": 0', '"code": 1, "code": 0', 1)
    with pytest.raises(SchemaError, match=r"^questionnaire repeats the name 'code' in one object$"):
        parse_questionnaire(text)


def test_parse_rejects_non_finite_number(questionnaire):
    text = serialize_questionnaire(questionnaire).decode().replace('"code": 0', '"code": NaN', 1)
    with pytest.raises(SchemaError, match=r"^\$\.scale\[0\]\.code: expected an integer, got NaN$"):
        parse_questionnaire(text)
