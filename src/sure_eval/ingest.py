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
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
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
    sequences of records; a ResponseSet calls it once, when it is made.
    """

    __slots__ = ("demographics", "question_ids", "columns")
    demographics: tuple[str, ...]
    question_ids: tuple[str, ...]

    @classmethod
    def of(cls, records: Sequence[ParticipantRecord], demographics: Sequence[str], question_ids: Sequence[str]) -> ParticipantTable:
        """records as a table of exactly these demographics and questions, read record by record, its maps by name (a missing name reads as None, any other name is dropped)."""
        demographics, question_ids = tuple(demographics), tuple(question_ids)
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

    participants is always a ParticipantTable of the declared demographics.
    Such a table, as parse_responses gives, is kept as it is; any other
    sequence of ParticipantRecord is converted once, when the set is made,
    through ParticipantTable.of, its questions every answer name the records
    hold, in the order first seen.
    """

    questionnaire_version: str
    participants: Sequence[ParticipantRecord]
    policy_applied: MissingPolicy
    demographics: tuple[str, ...]
    warnings: tuple[str, ...]

    def __post_init__(self) -> None:
        records = self.participants
        if not (isinstance(records, ParticipantTable) and records.demographics == tuple(self.demographics)):
            records = tuple(records)  # read twice, for the question ids and into columns
            question_ids = dict.fromkeys(name for record in records for name in record.answers)
            object.__setattr__(self, "participants", ParticipantTable.of(records, self.demographics, question_ids))


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

    Each regular row's answer cells are joined, in questionnaire order, with
    ",". When every code of the scale is one character (L <= 10), a row is
    plain if that text has 2k-1 characters for k questions and every even
    character is a code: a blank cell, or a cell of two or more characters,
    puts a "," on an even position, so the test is exact. The codes of all
    plain rows come from one join of their texts, one slice of its even
    characters and one bytes.translate. Every other row (any row, on a scale
    of 11 or more levels) is decoded cell by cell through a {text: code} table
    of the exact text of each valid code. Only the rows flagged (a blank line,
    a row of another width, a cell outside the table, an empty or repeated
    id, a cell under an unnamed column) are walked one by one, in row order,
    with the per-row rules; so the first faulty row in the file is the one
    reported.
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
    del text, lines, reader
    header = rows.pop(0)
    width = named = len(header)
    while named > 1 and not header[named - 1]:
        named -= 1  # a header ending in a comma, as spreadsheet exports write it: these columns must stay blank
    question_ids = questionnaire.question_ids()
    _check_header(header[:named], question_ids, demographics)

    # A row of another width, a blank line or a fault, is kept by position for the
    # row walk; a blank row of the header's width takes its place in the bulk passes.
    line_of = range(2, len(rows) + 2)
    irregular = {} if all(map(width.__eq__, map(len, rows))) else {position: row for position, row in enumerate(rows) if len(row) != width}
    for position in irregular:
        rows[position] = [""] * width
    flagged = set(irregular)  # the positions of the rows walked one by one
    if named < width:
        flagged.update(position for position, row in enumerate(rows) if "".join(row[named:]).strip())
    ids = tuple(map(str.strip, map(itemgetter(0), rows)))
    flagged.update(compress(count(), map(not_, ids)))  # a blank line, or a row without an id
    distinct = set(ids)
    distinct.discard("")
    first_repeat = None
    if len(distinct) < len(ids) - ids.count(""):  # the file is rejected, at the first repeated id or an earlier fault
        seen: set[str] = set()
        first_repeat = next(i for i, participant_id in enumerate(ids) if participant_id and (participant_id in seen or seen.add(participant_id)))
        flagged.add(first_repeat)

    # codes holds size codes per regular row, in questionnaire order: bytes,
    # unless a code may not fit one, with a marker where a code is not known
    # yet. On a scale whose every code is one character, the codes of plain
    # rows come from their text, and a row that is not plain gets a marker on
    # an even character; on any other scale, each cell is decoded through the
    # table, and the marker stands for a cell outside it.
    column_of = {name: i for i, name in enumerate(header)}
    max_code, size = questionnaire.scale.max_code, len(question_ids)
    answer_cells = _columns([column_of[question_id] for question_id in question_ids])
    code_of = {str(code): code for code in range(max_code + 1)}.get
    marker = 255 if max_code < 255 else -1
    if 0 < size and max_code < 10:
        length = 2 * size - 1
        texts = [joined if len(joined) == length else "," * length for joined in map(",".join, map(answer_cells, rows))]
        to_code = (b"\xff" * 48 + bytes(range(max_code + 1))).ljust(256, b"\xff")  # each code's digit to its code, any other byte to the marker
        codes = bytearray(",".join(texts)[::2].encode("ascii", "replace").translate(to_code))
        del texts
    else:
        decoded = map(code_of, chain.from_iterable(map(answer_cells, rows)), repeat(marker))
        codes = bytearray(decoded) if marker == 255 else list(decoded)
    marked: list[int] = []  # the rows holding a marker: each has a cell outside the table
    with suppress(ValueError):
        while True:
            marked.append(codes.index(marker, (marked[-1] + 1) * size if marked else 0) // size)
    flagged.update(marked)

    warnings: list[str] = []
    dropped: list[int] = []
    for position in sorted(flagged):
        line_no = line_of[position]
        row = irregular.get(position, rows[position])
        for cell in row[named:width]:
            if cell.strip():
                raise ResponseError(f"a column without a name must be blank, found {cell!r}", row=line_no, column="")
        if not any(map(str.strip, row)):
            dropped.append(position)
            continue  # ignore fully blank lines
        if position in irregular:
            raise ResponseError(f"expected {width} cells, found {len(row)}", row=line_no)
        participant_id = ids[position]
        if not participant_id:
            raise ResponseError("empty participant_id", row=line_no, column="participant_id")
        if position == first_repeat:
            raise ResponseError(f"duplicate participant_id {participant_id!r}", row=line_no, column="participant_id")

        # Only the cells outside the code table are read; the row's other answers are valid codes.
        cells = answer_cells(row)
        row_codes = [_read_answer(cell, question_id, max_code, line_no) if code is None else code for cell, question_id, code in zip(cells, question_ids, map(code_of, cells))]
        missing = [question_id for question_id, code in zip(question_ids, row_codes) if code is None]
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
            row_codes = [0 if code is None else code for code in row_codes]
        codes[position * size : (position + 1) * size] = row_codes

    if dropped:  # dropped rows leave every column: the rows and codes are cut at them, in one pass each
        spans = list(zip([0, *(position + 1 for position in dropped)], [*dropped, len(rows)]))
        ids = tuple(chain.from_iterable(ids[start:end] for start, end in spans))
        rows = list(chain.from_iterable(rows[start:end] for start, end in spans))
        pieces = [codes[start * size : end * size] for start, end in spans]
        codes = bytes().join(pieces) if marker == 255 else list(chain.from_iterable(pieces))
    columns = [tuple(map(str.strip, map(itemgetter(column_of[name]), rows))) for name in demographics]
    del rows  # the rows are about as large as the code columns: never hold both
    columns += [tuple(codes[j::size]) for j in range(size)]
    table = ParticipantTable(tuple(demographics), tuple(question_ids), (ids, *columns))

    return ResponseSet(
        questionnaire_version=questionnaire.structure_version,
        participants=table,
        policy_applied=policy,
        demographics=tuple(demographics),
        warnings=tuple(warnings),
    )


def _columns(keys: Sequence) -> Callable[[Sequence | Mapping], tuple]:
    """itemgetter(*keys), but returning a tuple for one key or none too."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda row: tuple(row[key] for key in keys)


def _read_answer(cell: str, question_id: str, max_code: int, line_no: int) -> int | None:
    """The code of one answer cell read on its own; None for a blank cell, which the policy resolves."""
    cell = cell.strip()
    if not cell:
        return None
    try:
        code = int(cell)
    except ValueError:
        raise ResponseError(f"answer {cell!r} is not an integer", row=line_no, column=question_id) from None
    if not 0 <= code <= max_code:
        raise ResponseError(f"answer {code} out of range 0..{max_code}", row=line_no, column=question_id)
    return code


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
