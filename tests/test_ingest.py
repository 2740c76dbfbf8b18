from __future__ import annotations

import copy
import csv
import io
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st
from ingest_reference import parse_row_by_row

from sure_eval.errors import ResponseError
from sure_eval.ingest import MissingPolicy, ParticipantRecord, ParticipantTable, normalize, parse_responses
from sure_eval.questionnaire import Question, Questionnaire, Scale, ScaleLevel, default_scale
from sure_eval.report import RENDER_FORMATS, build_report, render_report
from sure_eval.scoring import score_all


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


# The text is split by str.splitlines() before csv.reader reads it, so a record
# is cut at every line boundary splitlines() knows, quoted or not. These are
# the three known defects of that. Each test passes once records are read as
# RFC 4180 defines them, and then loses its xfail.


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="read as 'ab': the quoted line feed is dropped")
def test_a_quoted_line_feed_stays_in_its_cell(questionnaire):
    data = csv_for(questionnaire, [full_row("P1", questionnaire, 1, ['"a\nb"'])], ["gender"])
    assert parse_responses(data, questionnaire, ["gender"]).participants[0].demographics == {"gender": "a\nb"}


@pytest.mark.xfail(raises=ResponseError, strict=True, reason="'expected 22 cells, found 2 (row 2)': U+2028 ends a line")
def test_an_unquoted_line_separator_stays_in_its_cell(questionnaire):
    data = csv_for(questionnaire, [full_row("P1", questionnaire, 1, ["a\u2028b"])], ["gender"])
    assert parse_responses(data, questionnaire, ["gender"]).participants[0].demographics == {"gender": "a\u2028b"}


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="named row 4: rows are counted as records, not physical lines")
def test_a_diagnostic_after_a_multi_line_record_names_its_physical_line(questionnaire):
    rows = [full_row("P1", questionnaire, 1, ['"a\nb"']), full_row("P2", questionnaire, 1, ["c"]), full_row("P3", questionnaire, "x", ["d"])]
    with pytest.raises(ResponseError) as err:
        parse_responses(csv_for(questionnaire, rows, ["gender"]), questionnaire, ["gender"])
    assert (err.value.row, err.value.column) == (5, "Q_A11")


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


# --- the column reader against the row-by-row reference ---------------------------

ROW_KINDS = ["row"] * 8 + ["empty line", "spaces", "blank cells", "short", "long"] + ["row"] * 8


@st.composite
def response_files(draw):
    """A small questionnaire, its demographics, and a response CSV for them with the faults and oddities ingest must handle.

    The header is always valid (its check reads only the header). Rows are
    complete, or blank lines, lines of spaces, rows of blank cells, or a cell
    short or long; ids may be empty, padded or repeated; answers may be
    blank, padded, signed, two digits long, out of range, quoted with a comma
    inside or not integers; the header may end in unnamed columns, whose
    cells are mostly blank. Scales have 2 to 12 levels, so some codes have
    two digits.
    """
    levels = draw(st.integers(2, 12))
    questionnaire = Questionnaire(
        questions=tuple(Question(f"Q{i}", "q", "S") for i in range(draw(st.integers(0, 4)))),
        scale=Scale(tuple(ScaleLevel(code, f"level {code}") for code in range(levels))),
        structure_version="1",
    )
    demographics = draw(st.sampled_from([(), ("d1",), ("d1", "d2")]))
    header = ["participant_id", *draw(st.permutations([*demographics, *questionnaire.question_ids()])), *[""] * draw(st.integers(0, 2))]
    codes = [str(code) for code in range(levels)]
    answers = st.sampled_from(codes * 4 + ["", " ", " 1 ", "01", "+1", "-0", "-1", str(levels), "1.0", "x", "\u0663", "1_0", "10", "11", "12", '"1,"', '",1"', '","', '"1,2"'] + codes * 4)
    lines = []
    for i in range(draw(st.integers(0, 6))):
        cells = {"participant_id": draw(st.sampled_from([f"P{i}"] * 8 + [f" P{i} ", "P0", "", " "] + [f"P{i}"] * 8)), "": ""}
        cells.update((name, draw(st.sampled_from(["a", " b ", "", "c d"]))) for name in demographics)
        cells.update((question_id, draw(answers)) for question_id in questionnaire.question_ids())
        row = [cells[name] if name else draw(st.sampled_from([""] * 8 + ["x"] + [" "] * 8)) for name in header]
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "empty line" or kind == "spaces":
            row = [" " * (kind == "spaces")]
        elif kind == "blank cells":
            row = [draw(st.sampled_from(["", " "])) for _ in header]
        elif kind == "short":
            row = row[:-1]
        elif kind == "long":
            row = [*row, draw(st.sampled_from(["", "z"]))]
        lines.append(",".join(row))
    text = draw(st.sampled_from(["\n", "\r\n"])).join([",".join(header), *lines]) + draw(st.sampled_from(["", "\n"]))
    return text.encode(), questionnaire, demographics


@given(response_files(), st.sampled_from(MissingPolicy))
def test_the_column_reader_gives_what_the_row_loop_gives(file, policy):
    assert_reads_as_the_row_loop(*file, policy)


def assert_reads_as_the_row_loop(data, questionnaire, demographics, policy):
    """parse_responses gives the records and warnings of the row-by-row reference, or raises its error with the same text, row and column."""
    try:
        expected = parse_row_by_row(data, questionnaire, demographics, policy)
    except ResponseError as exc:
        expected = exc
    try:
        rs = parse_responses(data, questionnaire, demographics, policy)
    except ResponseError as exc:
        assert isinstance(expected, ResponseError), exc
        assert (str(exc), exc.row, exc.column) == (str(expected), expected.row, expected.column)
    else:
        assert not isinstance(expected, ResponseError), expected
        assert ([(p.participant_id, p.demographics, p.answers) for p in rs.participants], list(rs.warnings)) == expected
        assert all(list(p.answers) == questionnaire.question_ids() for p in rs.participants)
        assert rs.participants == [ParticipantRecord(*participant) for participant in expected[0]]


def test_the_first_faulty_row_is_reported_whichever_pass_finds_it(questionnaire):
    rows = [full_row("P1", questionnaire, 1), full_row("P2", questionnaire, "x"), full_row("P1", questionnaire, 2), ["P4"]]
    with pytest.raises(ResponseError, match=r"^answer 'x' is not an integer \(row 3, column 'Q_A11'\)$"):
        parse_responses(csv_for(questionnaire, rows), questionnaire)
    with pytest.raises(ResponseError, match=r"^duplicate participant_id 'P1' \(row 3, column 'participant_id'\)$"):
        parse_responses(csv_for(questionnaire, [rows[0], rows[2], rows[1]]), questionnaire)
    with pytest.raises(ResponseError, match=r"^expected 21 cells, found 1 \(row 3\)$"):
        parse_responses(csv_for(questionnaire, [rows[0], rows[3], rows[1]]), questionnaire)


def small_questionnaire(levels, questions):
    return Questionnaire(
        questions=tuple(Question(f"Q{i}", "q", "S") for i in range(questions)),
        scale=Scale(tuple(ScaleLevel(code, f"level {code}") for code in range(levels))),
        structure_version="1",
    )


# The answer cells of the rows under test, on a scale of this many levels. csv.writer
# quotes a cell holding a comma; rows of single-digit codes come before and after.
PLAIN_ROW_CASES = {
    # 2k-1 characters when joined with ",", yet a "," sits on an even position
    "01 next to a blank": (5, [["01", ""], ["", "01"]]),
    "12 next to a blank": (5, [["12", ""], ["", "12"]]),
    "1, next to a blank": (5, [["1,", ""], ["", "1,"]]),
    "a quoted comma next to a blank": (5, [["", ",1"], [",", ""], ["1,", "", "2"], ["1,2", "", ""]]),
    "blank cells": (5, [["", ""], ["", " "], ["", "", ""]]),
    "a code past the scale": (5, [["5", "1"]]),
    # every code of a 10-level scale is one character, and 10 on 11 levels is two
    "10 levels answering 9": (10, [["9", "9"], ["9", "0", "9"], ["", "9"]]),
    "10 levels answering 10": (10, [["10", "9"]]),
    "11 levels answering 10": (11, [["10", "10"], ["3", "10", "0"], ["10", ""], ["1", "2"]]),
    "11 levels answering 11": (11, [["11", "0"]]),
    "12 levels answering 10 and 11": (12, [["10", "11"], ["11", "", "10"]]),
    # codes past 254 are not read as bytes
    "255 levels answering 254": (255, [["254", "0"], ["254", ""]]),
    "256 levels answering 255": (256, [["255", "254"], ["255", ""], ["", "255"]]),
    "300 levels answering 299": (300, [["299", "10"], ["", "299"]]),
    "300 levels answering 300": (300, [["299", "300"]]),
    "alternating plain and zero-filled rows": (5, [["1", "2", "3"], ["", "2", "3"], ["4", "4", "4"], ["1", "", ""], ["0", "0", "0"], ["", "", ""], ["3", "2", "1"]]),
}


@pytest.mark.parametrize("policy", MissingPolicy)
@pytest.mark.parametrize("case", PLAIN_ROW_CASES)
def test_rows_that_only_look_plain_read_as_the_row_loop_reads_them(case, policy):
    levels, answer_rows = PLAIN_ROW_CASES[case]
    questionnaire = small_questionnaire(levels, max(map(len, answer_rows)))
    k = len(questionnaire.questions)
    plain = [[str((i + j) % min(levels, 10)) for j in range(k)] for i in range(3)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["participant_id", *questionnaire.question_ids()])
    for i, cells in enumerate([*plain[:2], *(cells + [""] * (k - len(cells)) for cells in answer_rows), plain[2]]):
        writer.writerow([f"P{i}", *cells])
    assert_reads_as_the_row_loop(out.getvalue().encode(), questionnaire, (), policy)


# --- the participant table ---------------------------------------------------------


def test_the_participant_table_is_read_only_and_copies(responses):
    table = responses.participants
    assert isinstance(table, ParticipantTable) and table.question_ids == tuple(responses.participants[0].answers)
    for change in (lambda: setattr(table, "columns", ()), lambda: delattr(table, "demographics"), lambda: setattr(table, "cache", {})):
        with pytest.raises(AttributeError, match="of a ParticipantTable"):
            change()
    table[0].answers["Q_A11"] = 0  # each ParticipantRecord is built afresh
    table[0].demographics["gender"] = "X"
    assert (table[0].answers["Q_A11"], table[0].demographics["gender"]) == (4, "F")
    assert pickle.loads(pickle.dumps(table)) == table == copy.deepcopy(table)
    assert pickle.loads(pickle.dumps(responses)) == responses


def test_the_participant_table_equals_its_records(responses):
    table = responses.participants
    records = list(table)
    assert table == records and table == tuple(records) and records == table
    assert isinstance(table[1:], ParticipantTable) and table[1:] == records[1:] and table[-1] == records[-1]
    assert table != records[:-1] and table != records[::-1] and table != "not a table"
    assert table.take([2, 0]) == [records[2], records[0]]
    assert ParticipantTable.of(records, table.demographics, table.question_ids) == table
    assert repr(table).startswith("ParticipantTable(demographics=('gender',), question_ids=('Q_A11', ")


def test_participant_table_of_picks_columns_and_reads_records_by_name(responses):
    table = responses.participants
    picked = ParticipantTable.of(table, (), ["Q_A31", "Q_A11"])
    assert picked.columns == (table.ids, table.columns[table.question_ids.index("Q_A31") + 2], table.columns[2])
    assert picked.columns[0] is table.ids
    hand_made = [ParticipantRecord("P1", {"gender": "F"}, {"Q_A11": 3}), ParticipantRecord("P2", {}, {"Q_A11": 2, "Q_A31": 1})]
    assert ParticipantTable.of(hand_made, ["gender"], ["Q_A31", "Q_A11"]).columns == (("P1", "P2"), ("F", None), (None, 1), (3, 2))
    assert ParticipantTable.of((), ["gender"], ["Q_A11"]).columns == ((), (), ())


def test_scoring_and_groups_read_a_table_and_its_records_alike(structure, questionnaire, responses):
    as_records = replace(responses, participants=tuple(responses.participants))
    reports = []
    for given_responses in (responses, as_records):
        scores, aggregates = score_all(given_responses, questionnaire, structure)
        reports.append(build_report(scores, aggregates, structure, given_responses, participation=(9, 20), group_by=["gender"], generated_at=""))
    assert reports[0] == reports[1]
    for format in RENDER_FORMATS:
        assert render_report(reports[0], format) == render_report(reports[1], format)
