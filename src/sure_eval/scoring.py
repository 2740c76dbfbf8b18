"""Score computation on goal structures.

One kernel computes the three rules for every participant at once, each as
a pass over columns of scores. A sub goal scores the mean of its answers,
each mapped linearly onto [0, 1], summed left to right from 0.0. Sub goals
combine into their key goal like a parallel system: one fully reached sub
goal is enough, so the key-goal score is one minus the product of the
sub-goal shortfalls. Key goals combine like a series system: all must be
reached, so the participant score is the plain product of key-goal scores.
Products run in tree order. Both rules keep every score inside [0, 1], are
monotone in every answer, and are exact at the extremes (all-top answers
give exactly 1.0, a fully failed key goal gives exactly 0.0).

Aggregates over participants are arithmetic means, summed in participant
order so repeated runs are bit-identical.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, compress, count, product, repeat
from operator import add, mul, not_, sub, truediv
from typing import Iterable, Iterator, Mapping

from .errors import InvalidQuestionnaireError, NoDataError
from .goal_structure import GoalStructure, KeyGoal, SubGoal
from .ingest import ParticipantRecord, ParticipantTable, ResponseSet, _columns, _Table, normalize
from .questionnaire import Questionnaire, validate_questionnaire


@dataclass(frozen=True)
class ParticipantScore:
    """One respondent's scores at the three per-participant levels."""

    participant_id: str
    sub_goal_scores: Mapping[str, float]
    key_goal_scores: Mapping[str, float]
    overall: float


@dataclass(frozen=True)
class AggregateScores:
    """Cross-participant means plus the exact 0/1 extreme counts."""

    general: float
    key_goal: Mapping[str, float]
    sub_goal: Mapping[str, float]
    n_participants: int
    n_overall_max: int
    n_overall_zero: int


class ScoreTable(_Table):
    """Every participant's scores as one tuple column per score, in participant order.

    columns holds the participant ids, the overall scores, one column per
    key goal (key_ids order) and one per sub goal (sub_ids order). As a
    read-only Sequence[ParticipantScore], indexing or iterating builds each
    ParticipantScore, with fresh dict maps, on demand; slicing gives a table.
    It equals another table with the same ids and columns, and a list or
    tuple of equal ParticipantScore values. Its attributes cannot be set.
    """

    __slots__ = ("key_ids", "sub_ids", "columns")
    key_ids: tuple[str, ...]
    sub_ids: tuple[str, ...]

    @classmethod
    def of(cls, scores: Sequence[ParticipantScore], key_ids: Sequence[str], sub_ids: Sequence[str]) -> ScoreTable:
        """scores as a table over these ids: a table with them as it is, any other sequence read score by score, its maps by id (a missing id is a KeyError)."""
        key_ids, sub_ids = tuple(key_ids), tuple(sub_ids)
        if isinstance(scores, ScoreTable) and (scores.key_ids, scores.sub_ids) == (key_ids, sub_ids):
            return scores
        keys, subs = _columns(key_ids), _columns(sub_ids)
        rows = [(score.participant_id, score.overall, *keys(score.key_goal_scores), *subs(score.sub_goal_scores)) for score in scores]
        return cls(key_ids, sub_ids, tuple(zip(*rows)) if rows else ((),) * (2 + len(key_ids) + len(sub_ids)))

    @property
    def overall(self) -> tuple[float, ...]:
        return self.columns[1]

    @property
    def key_columns(self) -> tuple[tuple[float, ...], ...]:
        return self.columns[2 : 2 + len(self.key_ids)]

    @property
    def sub_columns(self) -> tuple[tuple[float, ...], ...]:
        return self.columns[2 + len(self.key_ids) :]

    def _record(self, row: tuple) -> ParticipantScore:
        n_keys = len(self.key_ids)
        return ParticipantScore(row[0], dict(zip(self.sub_ids, row[2 + n_keys :])), dict(zip(self.key_ids, row[2 : 2 + n_keys])), row[1])


def sub_goal_score(record: ParticipantRecord, sub_goal: SubGoal, questionnaire: Questionnaire) -> float:
    """Mean normalized answer over the questions mapped to one sub goal."""
    if all(question.sub_goal != sub_goal.id for question in questionnaire.questions):
        raise ValueError(f"sub goal {sub_goal.id!r} has no questions")
    plan, unit = _compile(questionnaire, [KeyGoal(sub_goal.parent, "", (sub_goal,))])
    return _kernel((record,), plan, unit).sub_columns[0][0]


def key_goal_score(sub_scores: Sequence[float]) -> float:
    """Parallel rule: 1 - prod(1 - q) over the child sub-goal scores."""
    return next(_parallel([(score,) for score in sub_scores]))


def participant_score(key_scores: Sequence[float]) -> float:
    """Series rule: product of the key-goal scores."""
    return next(_series([(score,) for score in key_scores]))


def score_all(
    responses: ResponseSet,
    questionnaire: Questionnaire,
    structure: GoalStructure,
) -> tuple[ScoreTable, AggregateScores]:
    """Score every retained participant and aggregate across them.

    Participant order is preserved and all reductions run in that order,
    so identical inputs produce bit-identical outputs.
    """
    violations = validate_questionnaire(questionnaire, structure)
    if violations:
        raise InvalidQuestionnaireError(violations)
    plan, unit = _compile(questionnaire, structure.key_goals)
    scores = _kernel(responses.participants, plan, unit)
    return scores, aggregate_scores(scores, structure)  # raises NoDataError for zero participants


def _compile(questionnaire: Questionnaire, key_goals: Sequence[KeyGoal]) -> tuple[list[tuple[str, list[tuple[str, list[str]]]]], dict[int, float]]:
    """The kernel's plan, each key goal's id with its sub goals' ids and question ids (questionnaire order), and its {code: unit score} table."""
    questions_of: dict[str, list[str]] = {sub.id: [] for key_goal in key_goals for sub in key_goal.sub_goals}
    for question in questionnaire.questions:
        questions_of.get(question.sub_goal, []).append(question.id)
    plan = [(key_goal.id, [(sub.id, questions_of[sub.id]) for sub in key_goal.sub_goals]) for key_goal in key_goals]
    return plan, {code: normalize(code, questionnaire.scale) for code in range(questionnaire.scale.size)}


def _kernel(records: Sequence[ParticipantRecord], plan: list[tuple[str, list[tuple[str, list[str]]]]], unit: dict[int, float]) -> ScoreTable:
    """Every participant's scores, by the three rules run as C-level passes over columns, in plan order.

    The answer codes are the records' code columns in plan order, as a
    ParticipantTable holds them: parse_responses' table gives its own
    columns, any other sequence is read through ParticipantTable.of. A
    missing answer or one outside unit's codes fails a pass; only then does
    a walk name the first one, in participant and plan order.
    """
    key_ids = tuple(key_id for key_id, _ in plan)
    sub_ids = tuple(sub_id for _, subs in plan for sub_id, _ in subs)
    if not records:  # nothing to score, whatever the plan: score_all's aggregation names that
        return ScoreTable.of((), key_ids, sub_ids)
    question_ids = [question_id for _, subs in plan for _, ids in subs for question_id in ids]
    table = ParticipantTable.of(records, (), question_ids)
    codes = iter(table.code_columns)
    sub_columns: list[tuple[float, ...]] = []
    key_columns: list[tuple[float, ...]] = []
    try:
        for _, subs in plan:
            means = [tuple(_mean([next(codes) for _ in ids], unit)) for _, ids in subs]
            sub_columns += means
            key_columns.append(tuple(_parallel(means)))
    except KeyError:
        _raise_bad_answer(table, unit)
        raise
    return ScoreTable(key_ids, sub_ids, (table.ids, tuple(_series(key_columns)), *key_columns, *sub_columns))


def _mean(code_columns: Sequence[Sequence[int]], unit: dict[int, float]) -> Iterator[float]:
    """The sub-goal rule over columns of answer codes: the mean of their unit scores, summed left to right from 0.0.

    The mean of one answer is its unit score itself: (0.0 + u) / 1 is u bit
    for bit, as every unit score is a float >= +0.0, so those means skip
    both passes and share unit's floats. k columns of codes on an L-level
    scale hold at most L**k answer combinations; when the columns are longer
    than that, the same passes run once over every combination, and each
    participant's mean is looked up by its answers, so equal answers share
    one float. A bad answer is missing from that table as it is from unit.
    """
    k = len(code_columns)
    if k == 1:
        return map(unit.__getitem__, code_columns[0])
    combinations = tuple(product(unit, repeat=k)) if len(code_columns[0]) > len(unit) ** k else None
    total: Iterator[float] = repeat(0.0)
    for column in code_columns if combinations is None else zip(*combinations):
        total = map(add, total, map(unit.__getitem__, column))
    means = map(truediv, total, repeat(k))
    return means if combinations is None else map(dict(zip(combinations, means)).__getitem__, zip(*code_columns))


def _parallel(sub_columns: Sequence[Iterable[float]]) -> Iterator[float]:
    """The parallel rule over columns of sub-goal scores: 1 - prod(1 - q), the product from 1.0 in column order."""
    if not sub_columns:
        raise ValueError("key goal needs at least one sub-goal score")
    shortfall: Iterator[float] = repeat(1.0)
    for column in sub_columns:
        shortfall = map(mul, shortfall, map(sub, repeat(1.0), column))
    return map(sub, repeat(1.0), shortfall)


def _series(key_columns: Sequence[Iterable[float]]) -> Iterator[float]:
    """The series rule over columns of key-goal scores: their product from 1.0 in column order."""
    if not key_columns:
        raise ValueError("participant needs at least one key-goal score")
    overall: Iterator[float] = repeat(1.0)
    for column in key_columns:
        overall = map(mul, overall, column)
    return overall


def _raise_bad_answer(table: ParticipantTable, unit: dict[int, float]) -> None:
    """Raise the ValueError naming the first participant, and its first question in table order, whose answer is missing or not one of unit's codes."""
    first_bad = (next(compress(count(), map(not_, map(unit.__contains__, column))), len(table)) for column in table.code_columns)
    row, j = min(zip(first_bad, count()))
    if row < len(table):
        raise ValueError(f"participant {table.ids[row]!r}: answer for {table.question_ids[j]!r} must be a level code 0..{len(unit) - 1}, found {table.code_columns[j][row]!r}") from None


def aggregate_scores(scores: Sequence[ParticipantScore], structure: GoalStructure) -> AggregateScores:
    """Arithmetic means over a score table, or any sequence of scores, in its order.

    Each column is summed left to right from 0.0 (_total); sum() compensates
    rounding on Python 3.12+, so results would differ between versions.

    Extreme counts use exact comparison: the scoring rules produce exactly
    1.0 for all-top answers and exactly 0.0 for a fully failed key goal, so
    no tolerance is involved.
    """
    if not scores:
        raise NoDataError("no_data: zero retained participants")
    key_ids, sub_ids = _tree_ids(structure.key_goals)
    table = ScoreTable.of(scores, key_ids, sub_ids)
    n = len(table)
    general, *means = [_total(column) / n for column in table.columns[1:]]
    return AggregateScores(
        general=general,
        key_goal=dict(zip(key_ids, means)),
        sub_goal=dict(zip(sub_ids, means[len(key_ids) :])),
        n_participants=n,
        n_overall_max=table.overall.count(1.0),
        n_overall_zero=table.overall.count(0.0),
    )


def _total(column: Iterable[float]) -> float:
    """The sum of column, added left to right from 0.0: the adds of reduce(add, column, 0.0), run by accumulate, which keeps only the last."""
    return deque(accumulate(column, initial=0.0), maxlen=1)[0]


def _tree_ids(key_goals: Sequence[KeyGoal]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The key-goal ids and the sub-goal ids of a tree, in tree order."""
    return tuple(key.id for key in key_goals), tuple(sub.id for key in key_goals for sub in key.sub_goals)
