"""Score computation on goal structures.

One kernel computes the three rules for each participant. A sub goal scores
the mean of its answers, each mapped linearly onto [0, 1]. Sub goals combine
into their key goal like a parallel system: one fully reached sub goal is
enough, so the key-goal score is one minus the product of the sub-goal
shortfalls. Key goals combine like a series system: all must be reached, so
the participant score is the plain product of key-goal scores. Both rules
keep every score inside [0, 1], are monotone in every answer, and are exact
at the extremes (all-top answers give exactly 1.0, a fully failed key goal
gives exactly 0.0).

Aggregates over participants are arithmetic means, summed in participant
order so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Mapping, Sequence

from .errors import InvalidQuestionnaireError, NoDataError
from .goal_structure import GoalStructure, KeyGoal, SubGoal
from .ingest import ParticipantRecord, ResponseSet, _columns, normalize
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


def sub_goal_score(record: ParticipantRecord, sub_goal: SubGoal, questionnaire: Questionnaire) -> float:
    """Mean normalized answer over the questions mapped to one sub goal."""
    if all(question.sub_goal != sub_goal.id for question in questionnaire.questions):
        raise ValueError(f"sub goal {sub_goal.id!r} has no questions")
    plan, unit = _compile(questionnaire, [KeyGoal(sub_goal.parent, "", (sub_goal,))])
    return _kernel(record, plan, unit).sub_goal_scores[sub_goal.id]


def key_goal_score(sub_scores: Sequence[float]) -> float:
    """Parallel rule: 1 - prod(1 - q) over the child sub-goal scores."""
    if not sub_scores:
        raise ValueError("key goal needs at least one sub-goal score")
    shortfall = 1.0
    for score in sub_scores:
        shortfall *= 1.0 - score
    return 1.0 - shortfall


def participant_score(key_scores: Sequence[float]) -> float:
    """Series rule: product of the key-goal scores."""
    if not key_scores:
        raise ValueError("participant needs at least one key-goal score")
    overall = 1.0
    for score in key_scores:
        overall *= score
    return overall


def score_all(
    responses: ResponseSet,
    questionnaire: Questionnaire,
    structure: GoalStructure,
) -> tuple[list[ParticipantScore], AggregateScores]:
    """Score every retained participant and aggregate across them.

    Participant order is preserved and all reductions run in that order,
    so identical inputs produce bit-identical outputs.
    """
    violations = validate_questionnaire(questionnaire, structure)
    if violations:
        raise InvalidQuestionnaireError(violations)
    plan, unit = _compile(questionnaire, structure.key_goals)
    scores = [_kernel(record, plan, unit) for record in responses.participants]
    return scores, aggregate_scores(scores, structure)  # raises NoDataError for zero participants


def _compile(questionnaire: Questionnaire, key_goals: Sequence[KeyGoal]) -> tuple[list[tuple[str, list[tuple[str, list[str]]]]], dict[int, float]]:
    """The kernel's plan, each key goal's id with its sub goals' ids and question ids (questionnaire order), and its {code: unit score} table."""
    questions_of: dict[str, list[str]] = {sub.id: [] for key_goal in key_goals for sub in key_goal.sub_goals}
    for question in questionnaire.questions:
        questions_of.get(question.sub_goal, []).append(question.id)
    plan = [(key_goal.id, [(sub.id, questions_of[sub.id]) for sub in key_goal.sub_goals]) for key_goal in key_goals]
    return plan, {code: normalize(code, questionnaire.scale) for code in range(questionnaire.scale.size)}


def _kernel(record: ParticipantRecord, plan: list[tuple[str, list[tuple[str, list[str]]]]], unit: dict[int, float]) -> ParticipantScore:
    """One participant's scores: each sub-goal mean summed left to right from 0.0, then the two rules, in plan order.

    A missing answer or one outside unit's codes fails a lookup, named by the loop's question_id.
    """
    answers = record.answers
    sub_scores: dict[str, float] = {}
    key_scores: dict[str, float] = {}
    key_values: list[float] = []
    try:
        for key_id, subs in plan:
            values = []
            for sub_id, question_ids in subs:
                total = 0.0
                for question_id in question_ids:
                    total += unit[answers[question_id]]
                sub_scores[sub_id] = value = total / len(question_ids)
                values.append(value)
            key_scores[key_id] = value = key_goal_score(values)
            key_values.append(value)
    except KeyError:
        raise ValueError(f"participant {record.participant_id!r}: answer for {question_id!r} must be a level code 0..{len(unit) - 1}, found {answers.get(question_id)!r}") from None
    return ParticipantScore(
        participant_id=record.participant_id,
        sub_goal_scores=sub_scores,
        key_goal_scores=key_scores,
        overall=participant_score(key_values),
    )


def aggregate_scores(scores: Sequence[ParticipantScore], structure: GoalStructure) -> AggregateScores:
    """Arithmetic means over a score list, in list order.

    reduce(add, ..., 0.0) sums left to right; sum() compensates rounding on
    Python 3.12+, so results would differ between versions.

    Extreme counts use exact comparison: the scoring rules produce exactly
    1.0 for all-top answers and exactly 0.0 for a fully failed key goal, so
    no tolerance is involved.
    """
    if not scores:
        raise NoDataError("no_data: zero retained participants")
    n = len(scores)
    overalls = [score.overall for score in scores]
    return AggregateScores(
        general=reduce(add, overalls, 0.0) / n,
        key_goal=_means([score.key_goal_scores for score in scores], [kg.id for kg in structure.key_goals]),
        sub_goal=_means([score.sub_goal_scores for score in scores], structure.sub_goal_ids()),
        n_participants=n,
        n_overall_max=overalls.count(1.0),
        n_overall_zero=overalls.count(0.0),
    )


def _means(maps: Sequence[Mapping[str, float]], ids: Sequence[str]) -> dict[str, float]:
    """Mean of each id's scores over maps.

    One running total per id, all advanced together map by map: each id's
    sum is the same left-to-right sum as reduce(add, column, 0.0).
    """
    totals = [0.0] * len(ids)
    for values in map(_columns(ids), maps):
        totals = list(map(add, totals, values))
    return {name: total / len(maps) for name, total in zip(ids, totals)}
