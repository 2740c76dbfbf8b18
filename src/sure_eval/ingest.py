"""Response CSV ingestion: header binding, missing-data policy, normalization.

Answers are bound to questions by the question id in the header, never by
column position, because survey exports reorder columns freely. Blank cells
are the only representation of a missing answer; anything else must be an
integer inside the scale range.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Sequence

from .errors import ResponseError
from .questionnaire import Questionnaire, Scale

class MissingPolicy(enum.Enum):
    """How unanswered questions are resolved after parsing."""

    EXCLUDE_PARTICIPANT = "exclude_participant"
    TREAT_AS_ZERO = "treat_as_zero"


@dataclass(frozen=True)
class ParticipantRecord:
    """One respondent after policy application: a complete answer map."""

    participant_id: str
    demographics: Mapping[str, str]
    answers: Mapping[str, int]


@dataclass(frozen=True)
class ResponseSet:
    questionnaire_version: str
    participants: tuple[ParticipantRecord, ...]
    policy_applied: MissingPolicy
    demographics: tuple[str, ...]
    warnings: tuple[str, ...]


def normalize(code: int, scale: Scale) -> float:
    """Map a level code 0..L-1 linearly onto [0, 1]."""
    if not 0 <= code <= scale.max_code:
        raise ValueError(f"level code {code} outside scale range 0..{scale.max_code}")
    return code / scale.max_code


def parse_responses(
    data: bytes | str,
    questionnaire: Questionnaire,
    demographics: Sequence[str] = (),
    policy: MissingPolicy = MissingPolicy.EXCLUDE_PARTICIPANT,
) -> ResponseSet:
    """Parse a response CSV into a policy-resolved ResponseSet.

    The header must contain exactly: participant_id first, then the declared
    demographic columns and one column per question id, in any order, and
    then only trailing columns without a name, as a header ending in a comma
    gives, whose cells are all blank.
    Out-of-range or non-integer cells are errors with their row and column
    reported, and a record the csv module cannot read (a cell longer than
    csv.field_size_limit()) is an error naming its row; blanks become missing
    answers and are resolved by the policy, each resolution producing one
    warning. Row order is preserved.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ResponseError(f"response file is not valid UTF-8: {exc}") from exc
    else:
        text = data

    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ResponseError("empty response file: no header row")

    reader = csv.reader(lines)
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise ResponseError(f"cannot read CSV record: {exc}", row=reader.line_num) from None
    header = rows[0]
    named = len(header)
    while named > 1 and not header[named - 1]:
        named -= 1  # a header ending in a comma, as spreadsheet exports write it: these columns must stay blank
    question_ids = questionnaire.question_ids()
    _check_header(header[:named], question_ids, demographics)

    column_of = {name: i for i, name in enumerate(header)}
    max_code = questionnaire.scale.max_code
    # Bound once: the question cells of a row in questionnaire order, and the
    # exact text of each valid code. A row with a cell outside the table
    # (blank, padded, signed, invalid) goes through _read_answers instead.
    question_cells = _columns([column_of[question_id] for question_id in question_ids])
    code_of = {str(code): code for code in range(max_code + 1)}.__getitem__

    participants: list[ParticipantRecord] = []
    warnings: list[str] = []
    seen_ids: set[str] = set()
    numbered_rows = enumerate(rows[1:], start=2)
    if named < len(header):
        numbered_rows = _blank_beyond(numbered_rows, named, len(header))
    for line_no, row in numbered_rows:
        if not row or all(not cell.strip() for cell in row):
            continue  # ignore fully blank lines
        if len(row) != len(header):
            raise ResponseError(
                f"expected {len(header)} cells, found {len(row)}", row=line_no
            )
        participant_id = row[column_of["participant_id"]].strip()
        if not participant_id:
            raise ResponseError("empty participant_id", row=line_no, column="participant_id")
        if participant_id in seen_ids:
            raise ResponseError(
                f"duplicate participant_id {participant_id!r}", row=line_no, column="participant_id"
            )
        seen_ids.add(participant_id)

        demographic_values = {name: row[column_of[name]].strip() for name in demographics}

        cells = question_cells(row)
        try:
            answers, missing = dict(zip(question_ids, map(code_of, cells))), []
        except KeyError:  # a cell outside the table
            answers, missing = _read_answers(cells, question_ids, max_code, line_no)

        if missing:
            if policy is MissingPolicy.EXCLUDE_PARTICIPANT:
                warnings.append(
                    f"participant {participant_id!r} excluded: missing answers for {', '.join(missing)}"
                )
                continue
            warnings.append(
                f"participant {participant_id!r}: missing answers treated as 0 for {', '.join(missing)}"
            )
            for question_id in missing:
                answers[question_id] = 0

        participants.append(
            ParticipantRecord(
                participant_id=participant_id,
                demographics=demographic_values,
                answers=answers,  # all ints by now
            )
        )

    return ResponseSet(
        questionnaire_version=questionnaire.structure_version,
        participants=tuple(participants),
        policy_applied=policy,
        demographics=tuple(demographics),
        warnings=tuple(warnings),
    )


def _columns(keys: Sequence) -> Callable[[Sequence | Mapping], tuple]:
    """itemgetter(*keys), but returning a tuple for one key or none too."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda row: tuple(row[key] for key in keys)


def _read_answers(
    cells: Sequence[str], question_ids: list[str], max_code: int, line_no: int
) -> tuple[dict[str, int | None], list[str]]:
    """Read one row's answer cells one by one; None marks a blank cell until the policy resolves it."""
    answers: dict[str, int | None] = {}
    missing: list[str] = []
    for question_id, cell in zip(question_ids, cells):
        cell = cell.strip()
        if cell == "":
            answers[question_id] = None
            missing.append(question_id)
            continue
        try:
            code = int(cell)
        except ValueError:
            raise ResponseError(
                f"answer {cell!r} is not an integer", row=line_no, column=question_id
            ) from None
        if not 0 <= code <= max_code:
            raise ResponseError(
                f"answer {code} out of range 0..{max_code}", row=line_no, column=question_id
            )
        answers[question_id] = code
    return answers, missing


def _blank_beyond(numbered_rows: Iterator[tuple[int, list[str]]], start: int, stop: int) -> Iterator[tuple[int, list[str]]]:
    """Yield each numbered row after checking that its cells start to stop, under the header's trailing unnamed columns, are blank."""
    for line_no, row in numbered_rows:
        for cell in row[start:stop]:
            if cell.strip():
                raise ResponseError(f"a column without a name must be blank, found {cell!r}", row=line_no, column="")
        yield line_no, row


def _check_header(header: list[str], question_ids: list[str], demographics: Sequence[str]) -> None:
    if not header or header[0] != "participant_id":
        raise ResponseError(
            f"first header column must be 'participant_id', found {header[0]!r}" if header else "empty header",
            row=1,
        )
    duplicates = sorted({name for name in header if header.count(name) > 1})
    if duplicates:
        raise ResponseError(f"duplicate header column(s): {_column_names(duplicates)}", row=1)
    expected = {"participant_id", *demographics, *question_ids}
    found = set(header)
    missing = sorted(expected - found)
    unexpected = sorted(found - expected)
    if missing or unexpected:
        parts = []
        if missing:
            parts.append(f"missing column(s): {_column_names(missing)}")
        if unexpected:
            parts.append(f"undeclared column(s): {_column_names(unexpected)}")
        raise ResponseError(f"header mismatch: {'; '.join(parts)}", row=1)


def _column_names(names: list[str]) -> str:
    """Names for a diagnostic, an empty one shown as ''."""
    return ", ".join(name or "''" for name in names)
