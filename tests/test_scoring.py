from __future__ import annotations

import copy
import pickle
from functools import reduce
from itertools import product
from operator import add

import pytest
from hypothesis import example, given, strategies as st

from sure_eval import scoring
from sure_eval.errors import InvalidQuestionnaireError, NoDataError
from sure_eval.goal_structure import GoalStructure, KeyGoal, SubGoal, confirm_structure
from sure_eval.ingest import MissingPolicy, ParticipantRecord, ResponseSet
from sure_eval.questionnaire import Question, Questionnaire, Scale, ScaleLevel, default_scale, generate_template
from sure_eval.report import RENDER_FORMATS, build_report, parse_report, render_report
from sure_eval.scoring import (
    ParticipantScore,
    ScoreTable,
    _total,
    aggregate_scores,
    key_goal_score,
    participant_score,
    score_all,
    sub_goal_score,
)

# unit scores reachable from the five-level scale (1:1 question mapping)
quarters = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def make_structure(shape):
    """shape: list of sub-goal counts, one entry per key goal."""
    key_goals = []
    for i, n_subs in enumerate(shape, start=1):
        key_id = f"K{i}"
        subs = tuple(SubGoal(id=f"K{i}S{j}", label=f"s{j}", parent=key_id) for j in range(1, n_subs + 1))
        key_goals.append(KeyGoal(id=key_id, label=f"k{i}", sub_goals=subs))
    gs = GoalStructure(title="t", version="1", key_goals=tuple(key_goals))
    return confirm_structure(gs, ["approver"], "2021-01")


def response_set(structure, questionnaire, answer_rows):
    """answer_rows: list of dicts question_id -> code."""
    participants = tuple(
        ParticipantRecord(participant_id=f"P{i}", demographics={}, answers=row)
        for i, row in enumerate(answer_rows, start=1)
    )
    return ResponseSet(
        questionnaire_version=questionnaire.structure_version,
        participants=participants,
        policy_applied=MissingPolicy.EXCLUDE_PARTICIPANT,
        demographics=(),
        warnings=(),
    )


# --- the three closed-form operations ----------------------------------------


def test_sub_goal_score_single_question():
    gs = make_structure([1])
    q = generate_template(gs)
    record = ParticipantRecord("P1", {}, {"Q_K1S1": 3})
    assert sub_goal_score(record, gs.key_goals[0].sub_goals[0], q) == 0.75


def test_sub_goal_score_mean_of_two_questions():
    gs = make_structure([1])
    q = Questionnaire(
        questions=(
            Question(id="qa", text="a", sub_goal="K1S1"),
            Question(id="qb", text="b", sub_goal="K1S1"),
        ),
        scale=default_scale(),
        structure_version="1",
    )
    record = ParticipantRecord("P1", {}, {"qa": 4, "qb": 2})
    # frozen from the exact-rational oracle: (1.0 + 0.5) / 2
    assert sub_goal_score(record, gs.key_goals[0].sub_goals[0], q) == 0.75


def test_sub_goal_score_zero():
    gs = make_structure([1])
    q = generate_template(gs)
    record = ParticipantRecord("P1", {}, {"Q_K1S1": 0})
    assert sub_goal_score(record, gs.key_goals[0].sub_goals[0], q) == 0.0


def test_key_goal_score_examples():
    assert key_goal_score([1.0, 0.0, 0.0]) == 1.0  # one reached sub goal suffices
    assert key_goal_score([0.5, 0.5]) == 0.75  # frozen: 1 - 0.5 * 0.5
    assert key_goal_score([0.0, 0.0, 0.0, 0.0]) == 0.0


def test_participant_score_examples():
    assert participant_score([1.0, 1.0, 1.0, 1.0]) == 1.0
    assert participant_score([1.0, 0.75]) == 0.75  # frozen: plain product
    assert participant_score([0.9, 0.0]) == 0.0  # any failed key goal zeroes the result


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        key_goal_score([])
    with pytest.raises(ValueError):
        participant_score([])


# --- score_all ----------------------------------------------------------------


def test_score_all_all_top(structure, questionnaire):
    rows = [{qid: 4 for qid in questionnaire.question_ids()}]
    rs = response_set(structure, questionnaire, rows)
    scores, agg = score_all(rs, questionnaire, structure)
    assert scores[0].overall == 1.0
    assert agg.general == 1.0
    assert all(v == 1.0 for v in agg.key_goal.values())
    assert all(v == 1.0 for v in agg.sub_goal.values())
    assert agg.n_overall_max == 1


def test_score_all_two_participant_example():
    # frozen from the exact-rational oracle (see oracle.py):
    # P1 (4,0 | 2,2) -> overall 0.75; P2 (0,0 | 4,4) -> overall 0.0
    # general 0.375, key aggregates 0.5 and 0.875
    gs = make_structure([2, 2])
    q = generate_template(gs)
    rows = [
        {"Q_K1S1": 4, "Q_K1S2": 0, "Q_K2S1": 2, "Q_K2S2": 2},
        {"Q_K1S1": 0, "Q_K1S2": 0, "Q_K2S1": 4, "Q_K2S2": 4},
    ]
    scores, agg = score_all(response_set(gs, q, rows), q, gs)
    assert scores[0].overall == 0.75
    assert scores[1].overall == 0.0
    assert agg.general == 0.375
    assert agg.key_goal == {"K1": 0.5, "K2": 0.875}
    assert agg.n_overall_max == 0
    assert agg.n_overall_zero == 1


def test_score_all_rejects_empty(structure, questionnaire):
    rs = response_set(structure, questionnaire, [])
    with pytest.raises(NoDataError):
        score_all(rs, questionnaire, structure)


def test_score_all_rejects_invalid_questionnaire(structure, questionnaire):
    gs_small = make_structure([1])
    rs = response_set(gs_small, questionnaire, [{qid: 1 for qid in questionnaire.question_ids()}])
    with pytest.raises(InvalidQuestionnaireError):
        score_all(rs, questionnaire, gs_small)


def test_score_all_matches_single_operations(structure, questionnaire, responses):
    scores, _ = score_all(responses, questionnaire, structure)
    record = responses.participants[3]
    score = scores[3]
    for key_goal in structure.key_goals:
        subs = [sub_goal_score(record, sub, questionnaire) for sub in key_goal.sub_goals]
        for sub, value in zip(key_goal.sub_goals, subs):
            assert score.sub_goal_scores[sub.id] == value
        assert score.key_goal_scores[key_goal.id] == key_goal_score(subs)
    assert score.overall == participant_score(
        [score.key_goal_scores[kg.id] for kg in structure.key_goals]
    )


def test_score_all_two_questions_per_sub_goal():
    # the same frozen oracle value as test_sub_goal_score_mean_of_two_questions, through score_all
    gs = make_structure([1])
    q = Questionnaire(
        questions=(
            Question(id="qa", text="a", sub_goal="K1S1"),
            Question(id="qb", text="b", sub_goal="K1S1"),
        ),
        scale=default_scale(),
        structure_version="1",
    )
    scores, agg = score_all(response_set(gs, q, [{"qa": 4, "qb": 2}]), q, gs)
    assert scores[0] == ParticipantScore("P1", {"K1S1": 0.75}, {"K1": 0.75}, 0.75)
    assert scores[0].sub_goal_scores["K1S1"] == sub_goal_score(ParticipantRecord("P1", {}, {"qa": 4, "qb": 2}), gs.key_goals[0].sub_goals[0], q)
    assert agg.general == 0.75


@pytest.mark.parametrize("answer", [-1, "L", None], ids=["minus-one", "scale-size", "missing"])
def test_score_all_and_sub_goal_score_reject_the_same_bad_answer(structure, questionnaire, answer):
    # regression: score_all read -1 as the top level (unit[-1]), so A11 and B1 scored 1.0
    answers = {qid: 0 for qid in questionnaire.question_ids()}
    if answer is None:
        del answers["Q_A11"]
    else:
        answers["Q_A11"] = answer = questionnaire.scale.size if answer == "L" else answer
    rs = response_set(structure, questionnaire, [answers])
    message = f"participant 'P1': answer for 'Q_A11' must be a level code 0..{questionnaire.scale.max_code}, found {answer!r}"
    with pytest.raises(ValueError) as from_all:
        score_all(rs, questionnaire, structure)
    with pytest.raises(ValueError) as from_one:
        sub_goal_score(rs.participants[0], structure.key_goals[0].sub_goals[0], questionnaire)
    assert str(from_all.value) == str(from_one.value) == message


# --- invariants and properties -------------------------------------------------


@given(st.lists(quarters, min_size=1, max_size=6))
def test_parallel_dominance(sub_scores):
    value = key_goal_score(sub_scores)
    assert 0.0 <= value <= 1.0
    assert value >= max(sub_scores)
    if sum(sub_scores) == max(sub_scores):  # all others zero
        assert value == max(sub_scores)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_parallel_dominance_arbitrary_floats(sub_scores):
    assert key_goal_score(sub_scores) >= max(sub_scores) - 1e-12


@given(st.lists(quarters, min_size=1, max_size=5))
def test_series_dominance(key_scores):
    value = participant_score(key_scores)
    assert 0.0 <= value <= 1.0
    assert value <= min(key_scores)


def test_series_equality_when_others_perfect():
    assert participant_score([1.0, 0.62, 1.0]) == 0.62


@given(st.lists(quarters, min_size=1, max_size=6), st.integers(0, 5))
def test_key_goal_monotone_in_each_input(sub_scores, position):
    position %= len(sub_scores)
    if sub_scores[position] == 1.0:
        return
    bumped = list(sub_scores)
    bumped[position] = min(1.0, bumped[position] + 0.25)
    assert key_goal_score(bumped) >= key_goal_score(sub_scores)


def test_permutation_of_participants_keeps_values(structure, questionnaire, responses):
    scores, agg = score_all(responses, questionnaire, structure)
    reordered = ResponseSet(
        questionnaire_version=responses.questionnaire_version,
        participants=tuple(reversed(responses.participants)),
        policy_applied=responses.policy_applied,
        demographics=responses.demographics,
        warnings=responses.warnings,
    )
    scores_r, agg_r = score_all(reordered, questionnaire, structure)
    by_id = {s.participant_id: s for s in scores}
    for score in scores_r:
        assert score == by_id[score.participant_id]  # per-participant scores identical
    # aggregate sums run in a different order, so only near-equality holds
    assert agg_r.general == pytest.approx(agg.general, abs=1e-12)
    for key_id, value in agg.key_goal.items():
        assert agg_r.key_goal[key_id] == pytest.approx(value, abs=1e-12)
    assert (agg_r.n_overall_max, agg_r.n_overall_zero) == (agg.n_overall_max, agg.n_overall_zero)


def test_aggregate_structural_inequalities(structure, questionnaire, responses):
    _, agg = score_all(responses, questionnaire, structure)
    for key_goal in structure.key_goals:
        for sub in key_goal.sub_goals:
            assert agg.key_goal[key_goal.id] >= agg.sub_goal[sub.id]
    assert agg.general <= min(agg.key_goal.values())


def test_aggregate_scores_empty_rejected(structure):
    with pytest.raises(NoDataError):
        aggregate_scores([], structure)


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
    st.integers(1, 12),
)
def test_aggregate_means_are_left_to_right_column_sums(shape, pool, n):
    """Every mean is reduce(add, column, 0.0) / n over the scores in list order, bit for bit."""
    gs = make_structure(shape)
    key_ids, sub_ids = [kg.id for kg in gs.key_goals], gs.sub_goal_ids()
    value = iter(pool * (len(sub_ids) + len(key_ids) + 1) * n)
    scores = [
        ParticipantScore(f"P{i}", {s: next(value) for s in sub_ids}, {k: next(value) for k in key_ids}, next(value))
        for i in range(n)
    ]
    agg = aggregate_scores(scores, gs)
    assert agg.general == reduce(add, (s.overall for s in scores), 0.0) / n
    assert agg.key_goal == {k: reduce(add, (s.key_goal_scores[k] for s in scores), 0.0) / n for k in key_ids}
    assert agg.sub_goal == {s_id: reduce(add, (s.sub_goal_scores[s_id] for s in scores), 0.0) / n for s_id in sub_ids}
    assert list(agg.key_goal) == key_ids and list(agg.sub_goal) == sub_ids


# Terms whose sums tell an add from a compensated or reordered one: signed zeros, subnormals, and any float.
SUM_TERMS = st.sampled_from([-0.0, 0.0, 1.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.1]) | st.floats()


@given(st.lists(SUM_TERMS, max_size=40))
def test_the_column_total_is_reduce_add_bit_for_bit(terms):
    assert float.hex(_total(terms)) == float.hex(reduce(add, terms, 0.0))
    assert float.hex(_total(tuple(terms))) == float.hex(reduce(add, terms, 0.0))


@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
def test_a_score_tables_means_are_reduce_add_bit_for_bit(shape, data):
    gs = make_structure(shape)
    key_ids, sub_ids = tuple(kg.id for kg in gs.key_goals), tuple(gs.sub_goal_ids())
    n = data.draw(st.integers(1, 8))
    columns = [tuple(data.draw(st.lists(SUM_TERMS, min_size=n, max_size=n))) for _ in range(1 + len(key_ids) + len(sub_ids))]
    table = ScoreTable(key_ids, sub_ids, (tuple(f"P{i}" for i in range(n)), *columns))
    agg = aggregate_scores(table, gs)
    means = [agg.general, *agg.key_goal.values(), *agg.sub_goal.values()]
    assert list(map(float.hex, means)) == [float.hex(reduce(add, column, 0.0) / n) for column in columns]


# --- the score table -----------------------------------------------------------


@st.composite
def scored_inputs(draw):
    """A random tree whose sub goals have 1-4 questions each, in shuffled questionnaire order, a 2-9 level scale, and participants in 1-3 groups.

    There are 1-8 participants or, about half the time when a sub goal has
    k >= 2 questions and L**k <= 64, L**k to L**k + 2 of them: scoring runs
    that sub goal answer by answer, or from the table of its answer combinations.
    """
    structure = make_structure(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    counts = [draw(st.integers(1, 4)) for key_goal in structure.key_goals for _ in key_goal.sub_goals]
    questions = [Question(id=f"Q_{sub_id}_{j}", text="q", sub_goal=sub_id) for sub_id, k in zip(structure.sub_goal_ids(), counts) for j in range(k)]
    levels = draw(st.integers(2, 9))
    table_sizes = sorted({levels**k for k in counts if k > 1 and levels**k <= 64})
    n = draw(st.integers(1, 8) | (st.sampled_from(table_sizes).flatmap(lambda size: st.integers(size, size + 2)) if table_sizes else st.nothing()))
    questionnaire = Questionnaire(
        questions=tuple(draw(st.permutations(questions))),
        scale=Scale(tuple(ScaleLevel(code, f"level {code}") for code in range(levels))),
        structure_version="1",
    )
    answers = st.fixed_dictionaries({question.id: st.integers(0, levels - 1) for question in questions})
    participants = tuple(
        ParticipantRecord(f"P{i}", {"group": draw(st.sampled_from("abc"))}, row)
        for i, row in enumerate(draw(st.lists(answers, min_size=n, max_size=n)), start=1)
    )
    return structure, questionnaire, ResponseSet("1", participants, MissingPolicy.EXCLUDE_PARTICIPANT, ("group",), ())


def reference_scores(structure, questionnaire, answers):
    """The scoring module's rules, written out: each sub-goal mean summed left to right from 0.0 in questionnaire order, 1 - prod(1 - q) per key goal, the product of the key goals."""
    sub_scores, key_scores, overall = {}, {}, 1.0
    for key_goal in structure.key_goals:
        shortfall = 1.0
        for sub in key_goal.sub_goals:
            codes = [answers[question.id] for question in questionnaire.questions if question.sub_goal == sub.id]
            total = 0.0
            for code in codes:
                total += code / questionnaire.scale.max_code
            sub_scores[sub.id] = total / len(codes)
            shortfall *= 1.0 - sub_scores[sub.id]
        key_scores[key_goal.id] = 1.0 - shortfall
        overall *= key_scores[key_goal.id]
    return sub_scores, key_scores, overall


def assert_the_rules_bit_for_bit(structure, questionnaire, responses):
    """score_all's table holds, for every participant, reference_scores' values by float.hex."""
    table, _ = score_all(responses, questionnaire, structure)
    assert isinstance(table, ScoreTable) and len(table) == len(responses.participants)
    for record, score in zip(responses.participants, table):
        sub_scores, key_scores, overall = reference_scores(structure, questionnaire, record.answers)
        assert score.participant_id == record.participant_id
        assert list(score.sub_goal_scores) == list(sub_scores) and list(score.key_goal_scores) == list(key_scores)
        assert [value.hex() for value in (score.overall, *score.key_goal_scores.values(), *score.sub_goal_scores.values())] == [
            value.hex() for value in (overall, *key_scores.values(), *sub_scores.values())
        ]


# Sub goals of 2 and 3 questions, interleaved in questionnaire order.
COMBINATION_QUESTIONS = {"K1S1": ("Q_K1S1_0", "Q_K1S1_1"), "K1S2": ("Q_K1S2_0", "Q_K1S2_1", "Q_K1S2_2")}


def combination_inputs(levels, n):
    """One key goal over COMBINATION_QUESTIONS' sub goals on an L-level scale, and n participants: participant i answers
    each sub goal of k questions with the (i mod L**k)-th of its answer combinations, so n >= L**k gives every one."""
    structure = make_structure([2])
    order = ("Q_K1S2_0", "Q_K1S1_0", "Q_K1S2_1", "Q_K1S1_1", "Q_K1S2_2")
    questionnaire = Questionnaire(
        questions=tuple(Question(id=question_id, text="q", sub_goal=question_id[2:6]) for question_id in order),
        scale=Scale(tuple(ScaleLevel(code, f"level {code}") for code in range(levels))),
        structure_version="1",
    )
    combinations = {sub_id: list(product(range(levels), repeat=len(ids))) for sub_id, ids in COMBINATION_QUESTIONS.items()}
    rows = [
        {question_id: code for sub_id, ids in COMBINATION_QUESTIONS.items() for question_id, code in zip(ids, combinations[sub_id][i % levels ** len(ids)])}
        for i in range(n)
    ]
    return structure, questionnaire, response_set(structure, questionnaire, rows)


# A 3-question sub goal on a 4-level scale, whose steps of 1/3 are not dyadic, with every answer combination: the two of
# the 64 whose sum rounds by its order, which the drawn inputs seldom hold, tell a table summed in another order.
@example(combination_inputs(4, 65))
@example(combination_inputs(4, 66))
@given(scored_inputs())
def test_the_score_table_is_the_rules_bit_for_bit(inputs):
    assert_the_rules_bit_for_bit(*inputs)


@given(scored_inputs())
def test_the_score_table_and_its_list_give_the_same_results(inputs):
    structure, questionnaire, responses = inputs
    table, aggregates = score_all(responses, questionnaire, structure)
    scores = list(table)
    assert table == scores and table == tuple(scores) and table[1:] == scores[1:] and table[-1] == scores[-1]
    assert aggregate_scores(scores, structure) == aggregate_scores(table, structure) == aggregates
    n = len(scores)
    report, from_list = (
        build_report(given, aggregates, structure, responses, participation=(n, n + 1), group_by=["group"], generated_at="")
        for given in (table, scores)
    )
    assert report == from_list
    for format in RENDER_FORMATS:
        assert render_report(report, format) == render_report(from_list, format)
    data = render_report(report, "json")
    assert parse_report(data) == report == parse_report(render_report(from_list, "json"))


@given(scored_inputs(), st.data())
def test_a_bad_answer_is_named_at_the_first_participant_and_question_in_plan_order(inputs, data):
    structure, questionnaire, responses = inputs
    levels = questionnaire.scale.size
    plan_order = [question.id for key_goal in structure.key_goals for sub in key_goal.sub_goals for question in questionnaire.questions if question.sub_goal == sub.id]
    cells = data.draw(st.lists(st.tuples(st.integers(0, len(responses.participants) - 1), st.sampled_from(plan_order)), min_size=2, max_size=5, unique=True))
    rows = [dict(record.answers) for record in responses.participants]
    for i, question_id in cells:
        bad = data.draw(st.sampled_from([-1, levels, None]))
        if bad is None:
            del rows[i][question_id]
        else:
            rows[i][question_id] = bad
    i, question_id = min(cells, key=lambda cell: (cell[0], plan_order.index(cell[1])))
    participants = tuple(ParticipantRecord(record.participant_id, record.demographics, row) for record, row in zip(responses.participants, rows))
    with pytest.raises(ValueError) as raised:
        score_all(ResponseSet("1", participants, MissingPolicy.EXCLUDE_PARTICIPANT, ("group",), ()), questionnaire, structure)
    assert str(raised.value) == f"participant 'P{i + 1}': answer for {question_id!r} must be a level code 0..{levels - 1}, found {rows[i].get(question_id)!r}"


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_multi_question_sub_goals_score_the_rules_and_name_bad_answers_at_and_past_their_combination_counts(levels):
    # n = L**k scores a k-question sub goal answer by answer, n = L**k + 1 from a table of its combinations
    for n in (levels**2, levels**2 + 1, levels**3, levels**3 + 1):
        structure, questionnaire, responses = combination_inputs(levels, n)
        assert_the_rules_bit_for_bit(structure, questionnaire, responses)
        for question_id in ("Q_K1S1_1", "Q_K1S2_1"):
            for bad in (-1, levels, None, float("nan"), "missing"):
                rows = [dict(record.answers) for record in responses.participants]
                if bad == "missing":
                    del rows[-1][question_id]
                else:
                    rows[-1][question_id] = bad
                with pytest.raises(ValueError) as raised:
                    score_all(response_set(structure, questionnaire, rows), questionnaire, structure)
                assert str(raised.value) == f"participant 'P{n}': answer for {question_id!r} must be a level code 0..{levels - 1}, found {rows[-1].get(question_id)!r}"
        table, _ = score_all(responses, questionnaire, structure)
        rows = [{question_id: (True, 1.0)[i % 2] if code == 1 else code for question_id, code in record.answers.items()} for i, record in enumerate(responses.participants)]
        as_ones, _ = score_all(response_set(structure, questionnaire, rows), questionnaire, structure)
        assert [list(map(float.hex, column)) for column in as_ones.columns[1:]] == [list(map(float.hex, column)) for column in table.columns[1:]]


def test_a_sub_goal_is_scored_from_a_table_only_when_it_is_shorter_than_the_column_and_then_shares_its_floats(monkeypatch):
    tables = []  # the question count of each sub goal scored from a table, in plan order
    monkeypatch.setattr(scoring, "product", lambda codes, repeat: tables.append(repeat) or product(codes, repeat=repeat))
    counts = [len(ids) for ids in COMBINATION_QUESTIONS.values()]
    for levels in (2, 3):
        for n in (levels**2, levels**2 + 1, levels**3, levels**3 + 1):
            tables.clear()
            structure, questionnaire, responses = combination_inputs(levels, n)
            table, _ = score_all(responses, questionnaire, structure)
            assert tables == [k for k in counts if n > levels**k]
            for column, k in zip(table.sub_columns, counts):
                if n > levels**k:
                    assert len({*map(id, column)}) <= levels**k


def test_the_score_table_is_read_only_and_copies(structure, questionnaire, responses):
    table, _ = score_all(responses, questionnaire, structure)
    for change in (lambda: setattr(table, "columns", ()), lambda: delattr(table, "key_ids"), lambda: setattr(table, "cache", {})):
        with pytest.raises(AttributeError):
            change()
    table[0].sub_goal_scores["A11"] = 2.0  # each ParticipantScore is built afresh
    assert table[0].sub_goal_scores["A11"] != 2.0
    assert pickle.loads(pickle.dumps(table)) == table == copy.deepcopy(table)
