from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from sure_eval.errors import ResponseError
from sure_eval.ingest import MissingPolicy, normalize, parse_responses
from sure_eval.questionnaire import Scale, ScaleLevel, default_scale


def csv_for(questionnaire, rows, demographics=(), header=None):
    if header is None:
        header = ["participant_id", *demographics, *questionnaire.question_ids()]
    lines = [",".join(header)]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def full_row(pid, questionnaire, value, demographics=()):
    return [pid, *demographics, *([value] * len(questionnaire.questions))]


def test_normalize_endpoints_and_midpoint():
    scale = default_scale()
    assert normalize(0, scale) == 0.0
    assert normalize(2, scale) == 0.5
    assert normalize(3, scale) == 0.75
    assert normalize(4, scale) == 1.0


def test_normalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        normalize(5, default_scale())
    with pytest.raises(ValueError):
        normalize(-1, default_scale())


@given(st.integers(2, 12))
def test_normalize_strictly_increasing(levels):
    scale = Scale(levels=tuple(ScaleLevel(code, f"L{code}") for code in range(levels)))
    values = [normalize(code, scale) for code in range(levels)]
    assert values[0] == 0.0
    assert values[-1] == 1.0
    assert all(a < b for a, b in zip(values, values[1:]))


def test_parse_happy_path(questionnaire):
    data = csv_for(questionnaire, [full_row(f"P{i}", questionnaire, i) for i in range(3)])
    rs = parse_responses(data, questionnaire)
    assert [p.participant_id for p in rs.participants] == ["P0", "P1", "P2"]
    assert rs.warnings == ()
    assert rs.participants[2].answers["Q_A11"] == 2


def test_parse_accepts_reordered_columns(questionnaire):
    header = ["participant_id", *reversed(questionnaire.question_ids())]
    row = ["P1", *[(i % 5) for i in range(20)]]
    rs = parse_responses(csv_for(questionnaire, [row], header=header), questionnaire)
    last_question = questionnaire.question_ids()[-1]
    assert rs.participants[0].answers[last_question] == 0  # first cell after id


def test_parse_accepts_crlf(questionnaire):
    data = csv_for(questionnaire, [full_row("P1", questionnaire, 4)]).replace(b"\n", b"\r\n")
    rs = parse_responses(data, questionnaire)
    assert rs.participants[0].answers["Q_A45"] == 4


def test_exclude_policy_drops_and_warns(questionnaire):
    row = full_row("P1", questionnaire, 3)
    row[3] = ""  # blank out one answer
    data = csv_for(questionnaire, [row, full_row("P2", questionnaire, 2)])
    rs = parse_responses(data, questionnaire, policy=MissingPolicy.EXCLUDE_PARTICIPANT)
    assert [p.participant_id for p in rs.participants] == ["P2"]
    assert len(rs.warnings) == 1
    assert "P1" in rs.warnings[0] and "excluded" in rs.warnings[0]


def test_zero_policy_fills_and_warns(questionnaire):
    row = full_row("P1", questionnaire, 3)
    row[3] = ""
    blanked_question = questionnaire.question_ids()[2]
    rs = parse_responses(csv_for(questionnaire, [row]), questionnaire, policy=MissingPolicy.TREAT_AS_ZERO)
    assert rs.participants[0].answers[blanked_question] == 0
    assert len(rs.warnings) == 1
    assert blanked_question in rs.warnings[0]


def test_retained_plus_warned_covers_rows(questionnaire):
    rows = []
    for i in range(6):
        row = full_row(f"P{i}", questionnaire, 1)
        if i % 2:
            row[5] = ""
        rows.append(row)
    rs = parse_responses(csv_for(questionnaire, rows), questionnaire)
    assert len(rs.participants) + len(rs.warnings) == 6


def test_out_of_range_cell_is_error(questionnaire):
    row = full_row("P1", questionnaire, 2)
    row[1] = 7
    with pytest.raises(ResponseError) as err:
        parse_responses(csv_for(questionnaire, [row]), questionnaire)
    assert "out of range" in str(err.value)
    assert err.value.row == 2
    assert err.value.column == "Q_A11"


def test_non_integer_cell_is_error(questionnaire):
    row = full_row("P1", questionnaire, 2)
    row[4] = "often"
    with pytest.raises(ResponseError, match="not an integer"):
        parse_responses(csv_for(questionnaire, [row]), questionnaire)


def test_duplicate_participant_id_is_error(questionnaire):
    data = csv_for(questionnaire, [full_row("P1", questionnaire, 1), full_row("P1", questionnaire, 2)])
    with pytest.raises(ResponseError, match="duplicate participant_id 'P1'"):
        parse_responses(data, questionnaire)


def test_missing_column_is_error(questionnaire):
    header = ["participant_id", *questionnaire.question_ids()[:-1]]
    row = ["P1", *([1] * 19)]
    with pytest.raises(ResponseError) as err:
        parse_responses(csv_for(questionnaire, [row], header=header), questionnaire)
    assert "missing column" in str(err.value)
    assert questionnaire.question_ids()[-1] in str(err.value)


def test_undeclared_column_is_error(questionnaire):
    header = ["participant_id", "age", *questionnaire.question_ids()]
    row = ["P1", "23", *([1] * 20)]
    with pytest.raises(ResponseError, match="undeclared column"):
        parse_responses(csv_for(questionnaire, [row], header=header), questionnaire)
    # declaring it makes the same bytes parse
    rs = parse_responses(csv_for(questionnaire, [row], header=header), questionnaire, demographics=["age"])
    assert rs.participants[0].demographics == {"age": "23"}



def test_empty_header_name_is_named_as_undeclared(questionnaire):
    header = ["participant_id", "", *questionnaire.question_ids()]
    row = ["P1", "", *([1] * 20)]
    with pytest.raises(ResponseError) as err:
        parse_responses(csv_for(questionnaire, [row], header=header), questionnaire)
    assert str(err.value) == "header mismatch: undeclared column(s): '' (row 1)"


def test_empty_header_name_is_named_as_duplicate(questionnaire):
    header = ["participant_id", "", "", *questionnaire.question_ids()]
    row = ["P1", "", "", *([1] * 20)]
    with pytest.raises(ResponseError) as err:
        parse_responses(csv_for(questionnaire, [row], header=header), questionnaire)
    assert str(err.value) == "duplicate header column(s): '' (row 1)"


@pytest.mark.parametrize("unnamed", [1, 2])
def test_trailing_unnamed_blank_columns_are_ignored(questionnaire, unnamed):
    # a header ending in a comma, as spreadsheet exports write it
    rows = [full_row("P1", questionnaire, 1), full_row("P2", questionnaire, 3)]
    padded = csv_for(questionnaire, [[*row, *([" "] * unnamed)] for row in rows], header=["participant_id", *questionnaire.question_ids(), *([""] * unnamed)])
    assert parse_responses(padded, questionnaire) == parse_responses(csv_for(questionnaire, rows), questionnaire)


def test_cell_under_a_trailing_unnamed_column_must_be_blank(questionnaire):
    header = ["participant_id", *questionnaire.question_ids(), "", ""]
    rows = [[*full_row("P1", questionnaire, 1), "", ""], [*full_row("P2", questionnaire, 1), "", "x"]]
    with pytest.raises(ResponseError) as err:
        parse_responses(csv_for(questionnaire, rows, header=header), questionnaire)
    assert str(err.value) == "a column without a name must be blank, found 'x' (row 3, column '')"


def test_empty_file_is_error(questionnaire):
    with pytest.raises(ResponseError, match="empty response file"):
        parse_responses(b"", questionnaire)


def test_header_only_gives_zero_participants(questionnaire):
    rs = parse_responses(csv_for(questionnaire, []), questionnaire)
    assert rs.participants == ()


def test_parse_is_deterministic(questionnaire, responses_bytes):
    first = parse_responses(responses_bytes, questionnaire, demographics=["gender"])
    second = parse_responses(responses_bytes, questionnaire, demographics=["gender"])
    assert first == second
    assert first.warnings == second.warnings


def test_oversized_cell_is_error_naming_its_row(questionnaire):
    rows = [full_row("P1", questionnaire, 1), full_row("P" * 200_000, questionnaire, 2), full_row("P3", questionnaire, 3)]
    with pytest.raises(ResponseError) as err:
        parse_responses(csv_for(questionnaire, rows), questionnaire)
    assert str(err.value) == "cannot read CSV record: field larger than field limit (131072) (row 3)"
    assert (err.value.row, err.value.column) == (3, None)


# --- cells outside the "0".."L-1" lookup keep the per-cell rules -------------


def parse_one(questionnaire, cells, header=None, policy=MissingPolicy.EXCLUDE_PARTICIPANT):
    """Parse one row: cells maps a column index among the questions to its text, the rest answer 1."""
    row = full_row("P1", questionnaire, 1)
    for index, cell in cells.items():
        row[1 + index] = cell
    return parse_responses(csv_for(questionnaire, [row], header=header), questionnaire, policy=policy)


@pytest.mark.parametrize("cell", [" 3 ", "03", "+3", "\t3", "3 ", "0003"])
def test_padded_or_signed_code_reads_as_its_value(questionnaire, cell):
    answers = parse_one(questionnaire, {4: cell}).participants[0].answers
    question_ids = questionnaire.question_ids()
    assert answers == {**dict.fromkeys(question_ids, 1), question_ids[4]: 3}
    assert list(answers) == question_ids


@pytest.mark.parametrize("cell", ["3.0", "x", "3x", "1e0", "0x3"])
def test_non_integer_cell_names_row_and_column(questionnaire, cell):
    with pytest.raises(ResponseError) as err:
        parse_one(questionnaire, {4: cell})
    assert str(err.value) == f"answer {cell!r} is not an integer (row 2, column {questionnaire.question_ids()[4]!r})"


@pytest.mark.parametrize("cell, code", [("5", 5), ("-1", -1), (" 7 ", 7), ("10", 10)])
def test_out_of_range_code_names_row_and_column(questionnaire, cell, code):
    with pytest.raises(ResponseError) as err:
        parse_one(questionnaire, {4: cell})
    assert str(err.value) == f"answer {code} out of range 0..4 (row 2, column {questionnaire.question_ids()[4]!r})"


@pytest.mark.parametrize("cell", ["", " ", "\t "])
def test_blank_cell_is_missing(questionnaire, cell):
    blanked = questionnaire.question_ids()[7]
    excluded = parse_one(questionnaire, {7: cell})
    assert excluded.participants == ()
    assert excluded.warnings == (f"participant 'P1' excluded: missing answers for {blanked}",)
    zeroed = parse_one(questionnaire, {7: cell}, policy=MissingPolicy.TREAT_AS_ZERO)
    assert zeroed.participants[0].answers[blanked] == 0
    assert zeroed.warnings == (f"participant 'P1': missing answers treated as 0 for {blanked}",)


def test_first_bad_cell_in_questionnaire_order_is_reported(questionnaire):
    question_ids = questionnaire.question_ids()
    with pytest.raises(ResponseError) as err:
        parse_one(questionnaire, {3: "9", 12: "x"})
    assert (err.value.row, err.value.column) == (2, question_ids[3])
    # with the columns reversed, the questionnaire's order still decides
    header = ["participant_id", *reversed(question_ids)]
    with pytest.raises(ResponseError) as err:
        parse_one(questionnaire, {3: "9", 12: "x"}, header=header)
    assert (err.value.row, err.value.column) == (2, question_ids[-13])
    assert str(err.value).startswith("answer 'x' is not an integer")


def reference_parse(rows, question_ids, max_code, policy):
    """The ingest rules applied cell by cell: strip, blank is missing, int(), range check.

    Returns ("error", message) for the first bad cell, in row then questionnaire
    order, else ("ok", [(participant id, answers)], warnings).
    """
    participants, warnings = [], []
    for line_no, (participant_id, *cells) in enumerate(rows, start=2):
        answers, missing = {}, []
        for question_id, raw in zip(question_ids, cells):
            cell = raw.strip()
            if cell == "":
                answers[question_id] = None
                missing.append(question_id)
                continue
            try:
                code = int(cell)
            except ValueError:
                return "error", f"answer {cell!r} is not an integer (row {line_no}, column {question_id!r})"
            if not 0 <= code <= max_code:
                return "error", f"answer {code} out of range 0..{max_code} (row {line_no}, column {question_id!r})"
            answers[question_id] = code
        if missing and policy is MissingPolicy.EXCLUDE_PARTICIPANT:
            warnings.append(f"participant {participant_id!r} excluded: missing answers for {', '.join(missing)}")
            continue
        if missing:
            warnings.append(f"participant {participant_id!r}: missing answers treated as 0 for {', '.join(missing)}")
            answers.update(dict.fromkeys(missing, 0))
        participants.append((participant_id, answers))
    return "ok", participants, warnings


CELLS = st.one_of(
    st.sampled_from("01234"),
    st.sampled_from(["", " ", " 3 ", "03", "+3", "-0", "-1", "5", "3.0", "x", "٣", "1_0", "4 ", "00"]),
    st.text(alphabet=" \t+-0123456789._x٣", max_size=4),
)


@given(
    st.lists(st.lists(CELLS, min_size=20, max_size=20), min_size=1, max_size=4),
    st.sampled_from(MissingPolicy),
    st.booleans(),
)
def test_parse_matches_the_per_cell_rules(questionnaire, cell_rows, policy, reverse):
    question_ids = questionnaire.question_ids()
    rows = [[f"P{i}", *cells] for i, cells in enumerate(cell_rows)]
    header = ["participant_id", *question_ids]
    if reverse:  # column order differs from questionnaire order
        header = ["participant_id", *reversed(question_ids)]
        rows_in_file = [[row[0], *reversed(row[1:])] for row in rows]
    else:
        rows_in_file = rows
    data = csv_for(questionnaire, rows_in_file, header=header)
    expected = reference_parse(rows, question_ids, questionnaire.scale.max_code, policy)
    try:
        rs = parse_responses(data, questionnaire, policy=policy)
    except ResponseError as exc:
        assert expected == ("error", str(exc))
    else:
        assert expected == ("ok", [(p.participant_id, p.answers) for p in rs.participants], list(rs.warnings))
        assert all(list(p.answers) == question_ids for p in rs.participants)


def test_questionnaire_without_questions_reads_empty_answers(questionnaire):
    empty = replace(questionnaire, questions=())
    rs = parse_responses(b"participant_id,gender\nP1,F\nP2,M\n", empty, demographics=["gender"])
    assert [(p.participant_id, p.demographics, p.answers) for p in rs.participants] == [("P1", {"gender": "F"}, {}), ("P2", {"gender": "M"}, {})]
