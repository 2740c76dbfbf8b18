"""Row-by-row reference for sure_eval.ingest.parse_responses.

The row loop that parse_responses ran before it read columns, kept as it
was: each record read cell by cell, in file order, with the same checks in
the same order. It returns plain values, so tests can compare the column
reader with it: (participants, warnings), each participant as
(participant id, {demographic: value}, {question id: code}), or it raises
the same ResponseError, with the same text, row and column.
Only the header check is shared with the package; it reads the header, not
the rows.
"""

from __future__ import annotations

import csv

from sure_eval.errors import ResponseError
from sure_eval.ingest import MissingPolicy, _check_header


def parse_row_by_row(data, questionnaire, demographics=(), policy=MissingPolicy.EXCLUDE_PARTICIPANT):
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ResponseError("empty response file: no header row")
    reader = csv.reader(lines)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ResponseError(f"cannot read CSV record: {exc}", row=reader.line_num) from None
    header = rows[0]
    named = len(header)
    while named > 1 and not header[named - 1]:
        named -= 1
    question_ids = questionnaire.question_ids()
    _check_header(header[:named], question_ids, demographics)

    column_of = {name: i for i, name in enumerate(header)}
    max_code = questionnaire.scale.max_code
    participants, warnings, seen_ids = [], [], set()
    for line_no, row in enumerate(rows[1:], start=2):
        for cell in row[named : len(header)]:
            if cell.strip():
                raise ResponseError(f"a column without a name must be blank, found {cell!r}", row=line_no, column="")
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ResponseError(f"expected {len(header)} cells, found {len(row)}", row=line_no)
        participant_id = row[column_of["participant_id"]].strip()
        if not participant_id:
            raise ResponseError("empty participant_id", row=line_no, column="participant_id")
        if participant_id in seen_ids:
            raise ResponseError(f"duplicate participant_id {participant_id!r}", row=line_no, column="participant_id")
        seen_ids.add(participant_id)
        demographic_values = {name: row[column_of[name]].strip() for name in demographics}

        answers, missing = {}, []
        for question_id in question_ids:
            cell = row[column_of[question_id]].strip()
            if cell == "":
                answers[question_id] = None
                missing.append(question_id)
                continue
            try:
                code = int(cell)
            except ValueError:
                raise ResponseError(f"answer {cell!r} is not an integer", row=line_no, column=question_id) from None
            if not 0 <= code <= max_code:
                raise ResponseError(f"answer {code} out of range 0..{max_code}", row=line_no, column=question_id)
            answers[question_id] = code

        if missing:
            if policy is MissingPolicy.EXCLUDE_PARTICIPANT:
                warnings.append(f"participant {participant_id!r} excluded: missing answers for {', '.join(missing)}")
                continue
            warnings.append(f"participant {participant_id!r}: missing answers treated as 0 for {', '.join(missing)}")
            for question_id in missing:
                answers[question_id] = 0
        participants.append((participant_id, demographic_values, answers))
    return participants, warnings
