"""Response CSV ingestion: header binding, missing-data policy, normalization.

Answers are bound to questions by the question id in the header, never by
column position, because survey exports reorder columns freely. Blank cells
are the only representation of a missing answer; anything else must be an
integer inside the scale range.
"""

from __future__ import annotations

import csv
import enum
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import itemgetter, not_
from typing import Any

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


class _Table(Sequence):
    """A read-only table of records, one tuple column per field of its records, the participant ids first.

    A subclass declares its names (every slot but the last) and columns (the
    last slot) as __slots__ and builds one record from one row of its columns
    (_record). Indexing or iterating builds each record on demand; slicing and
    take give a table. A table equals one of its class with the same names
    and columns, and a list or tuple of equal records. Its attributes cannot
    be set, and it pickles and copies by its names and columns.
    """

    # Read-only by hand rather than a frozen dataclass, whose creation added
    # about 1.4 ms to the import of every command (2-vCPU Linux host).
    __slots__ = ()
    columns: tuple[tuple, ...]

    def __init__(self, *fields: Any):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def _names(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __reduce__(self) -> tuple:
        return type(self), (*self._names(), self.columns)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"

    @property
    def ids(self) -> tuple[str, ...]:
        return self.columns[0]

    def take(self, indices: Sequence[int]) -> Any:
        """The table of the records at these positions, in this order."""
        return type(self)(*self._names(), tuple(map(_columns(indices), self.columns)))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*self._names(), tuple(column[index] for column in self.columns))
        return self._record(tuple(column[index] for column in self.columns))

    def __iter__(self) -> Iterator:
        return map(self._record, zip(*self.columns))

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self) and other._names() == self._names():
            return other.columns == self.columns
        if isinstance(other, (_Table, list, tuple)):
            return list(other) == list(self)
        return NotImplemented


class ParticipantTable(_Table):
    """Every retained participant's record as one tuple column per field, in row order.

    columns holds the participant ids, one column of values per demographic
    (demographics order) and one column of answer codes per question
    (question_ids order: the questionnaire's, for a table from
    parse_responses). As a read-only Sequence[ParticipantRecord], indexing or
    iterating builds each ParticipantRecord, with fresh dict maps, on demand;
    slicing gives a table. ParticipantTable.of is the one adapter for other
    sequences of records.
    """

    __slots__ = ("demographics", "question_ids", "columns")
    demographics: tuple[str, ...]
    question_ids: tuple[str, ...]

    @classmethod
    def of(cls, records: Sequence[ParticipantRecord], demographics: Sequence[str], question_ids: Sequence[str]) -> ParticipantTable:
        """records as a table of exactly these demographics and questions: a table that has them gives its columns, any other sequence is read record by record, its maps by name (a missing name reads as None)."""
        demographics, question_ids = tuple(demographics), tuple(question_ids)
        if isinstance(records, ParticipantTable):
            values, codes = dict(zip(records.demographics, records.demographic_columns)), dict(zip(records.question_ids, records.code_columns))
            if values.keys() >= {*demographics} and codes.keys() >= {*question_ids}:
                return cls(demographics, question_ids, (records.ids, *map(values.__getitem__, demographics), *map(codes.__getitem__, question_ids)))
        rows = [(record.participant_id, *map(record.demographics.get, demographics), *map(record.answers.get, question_ids)) for record in records]
        return cls(demographics, question_ids, tuple(zip(*rows)) if rows else ((),) * (1 + len(demographics) + len(question_ids)))

    @property
    def demographic_columns(self) -> tuple[tuple[str, ...], ...]:
        return self.columns[1 : 1 + len(self.demographics)]

    @property
    def code_columns(self) -> tuple[tuple[int, ...], ...]:
        return self.columns[1 + len(self.demographics) :]

    def _record(self, row: tuple) -> ParticipantRecord:
        n = 1 + len(self.demographics)
        return ParticipantRecord(row[0], dict(zip(self.demographics, row[1:n])), dict(zip(self.question_ids, row[n:])))


@dataclass(frozen=True)
class ResponseSet:
    """A parsed response CSV after the missing-data policy.

    participants is the ParticipantTable of parse_responses, or any other
    sequence of ParticipantRecord, which scoring and the group breakdown read
    through ParticipantTable.of.
    """

    questionnaire_version: str
    participants: Sequence[ParticipantRecord]
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

    The records are transposed once into columns. Passes over whole columns
    check the ids, the unnamed cells and the answer cells, which are read
    through a {text: code} table of the exact text of each valid code. Only
    the rows a pass flags (a blank line, a row of another width, a cell
    outside the table, an empty or repeated id, a cell under an unnamed
    column) are walked one by one, in row order, with the per-row rules; so
    the first faulty row in the file is the one reported.
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
    del lines, reader
    header = rows.pop(0)
    width = named = len(header)
    while named > 1 and not header[named - 1]:
        named -= 1  # a header ending in a comma, as spreadsheet exports write it: these columns must stay blank
    question_ids = questionnaire.question_ids()
    _check_header(header[:named], question_ids, demographics)

    # Rows of the header's width become columns of cells; the others, blank
    # lines or faults, are kept by line number for the row walk.
    line_of: Sequence[int] = range(2, len(rows) + 2)
    irregular: dict[int, list[str]] = {}
    if not all(map(width.__eq__, map(len, rows))):
        regular = list(map(width.__eq__, map(len, rows)))
        line_of = list(compress(count(2), regular))
        irregular = dict(compress(zip(count(2), rows), map(not_, regular)))
        rows = list(compress(rows, regular))
    cells = list(zip(*rows)) or [()] * width
    del rows

    flagged: set[int] = set()  # positions among the regular rows
    for column in cells[named:]:
        flagged.update(compress(count(), map(str.strip, column)))
    ids = tuple(map(str.strip, cells[0]))
    flagged.update(_positions(ids, ""))  # a blank line, or a row without an id
    distinct = set(ids)
    distinct.discard("")
    first_repeat = None
    if len(distinct) < len(ids) - ids.count(""):  # the file is rejected, at the first repeated id or an earlier fault
        seen: set[str] = set()
        first_repeat = next(i for i, participant_id in enumerate(ids) if participant_id and (participant_id in seen or seen.add(participant_id)))
        flagged.add(first_repeat)

    column_of = {name: i for i, name in enumerate(header)}
    max_code = questionnaire.scale.max_code
    code_of = {str(code): code for code in range(max_code + 1)}.get
    codes = []  # one column per question, questionnaire order; -1 marks a cell outside the table
    unread = []  # the positions of each column's -1s
    for question_id in question_ids:
        codes.append(tuple(map(code_of, cells[column_of[question_id]], repeat(-1))))
        unread.append(_positions(codes[-1], -1))
        flagged.update(unread[-1])

    warnings: list[str] = []
    dropped: list[int] = []
    read: dict[int, dict[str, int | None]] = {}  # the answers of the flagged rows kept
    position_of = dict(zip(map(line_of.__getitem__, flagged), flagged))
    for line_no in sorted([*position_of, *irregular]):
        position = position_of.get(line_no)
        row = irregular[line_no] if position is None else [column[position] for column in cells]
        for cell in row[named:width]:
            if cell.strip():
                raise ResponseError(f"a column without a name must be blank, found {cell!r}", row=line_no, column="")
        if not row or all(not cell.strip() for cell in row):
            if position is not None:
                dropped.append(position)
            continue  # ignore fully blank lines
        if len(row) != width:
            raise ResponseError(f"expected {width} cells, found {len(row)}", row=line_no)
        participant_id = ids[position]
        if not participant_id:
            raise ResponseError("empty participant_id", row=line_no, column="participant_id")
        if position == first_repeat:
            raise ResponseError(f"duplicate participant_id {participant_id!r}", row=line_no, column="participant_id")

        answers, missing = _read_answers([row[column_of[question_id]] for question_id in question_ids], question_ids, max_code, line_no)
        if missing:
            if policy is MissingPolicy.EXCLUDE_PARTICIPANT:
                warnings.append(
                    f"participant {participant_id!r} excluded: missing answers for {', '.join(missing)}"
                )
                dropped.append(position)
                continue
            warnings.append(
                f"participant {participant_id!r}: missing answers treated as 0 for {', '.join(missing)}"
            )
            for question_id in missing:
                answers[question_id] = 0
        read[position] = answers

    for j, question_id in enumerate(question_ids):
        if unread[j]:  # each in a row that was read or dropped
            column = list(codes[j])
            for position in unread[j]:
                if position in read:
                    column[position] = read[position][question_id]
            codes[j] = tuple(column)
    table = ParticipantTable(tuple(demographics), tuple(question_ids), (ids, *(tuple(map(str.strip, cells[column_of[name]])) for name in demographics), *codes))
    if dropped:
        keep = [True] * len(ids)
        for position in dropped:
            keep[position] = False
        table = table.take(list(compress(range(len(ids)), keep)))

    return ResponseSet(
        questionnaire_version=questionnaire.structure_version,
        participants=table,
        policy_applied=policy,
        demographics=tuple(demographics),
        warnings=tuple(warnings),
    )


def _positions(column: tuple, value: Any) -> list[int]:
    """The positions of value in column, found by C-level searches."""
    positions = [-1]
    for _ in range(column.count(value)):
        positions.append(column.index(value, positions[-1] + 1))
    return positions[1:]


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
