"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Criteria 2 and 5 share the randomized instances; the reference values come
from tests/oracle.py, an exact-rational evaluator written independently of
the engine.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

import oracle
from sure_eval import data as bundled
from sure_eval.cli import main
from sure_eval.goal_structure import parse_structure, validate_structure
from sure_eval.ingest import MissingPolicy, ParticipantRecord, ResponseSet, parse_responses
from sure_eval.errors import NoDataError
from sure_eval.questionnaire import generate_template, parse_questionnaire
from sure_eval.report import parse_report, participation_rate, render_report, build_report
from sure_eval.scoring import score_all
from sure_eval.simulate import simulate_responses

GOLDEN_DIR = Path(__file__).parent / "goldens"
TOLERANCE = 1e-12


class _criterion:
    """Prints `criterion N (<name>): PASS|FAIL` when the block finishes."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.name}): {verdict}")
        return False


# --- randomized instances shared by criteria 2 and 5 -------------------------


def random_instance(rng: random.Random):
    """A confirmed structure, its 1:1 template, raw rows, and a CSV."""
    shape = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
    doc = {
        "title": "random instance",
        "version": "1",
        "status": "confirmed",
        "confirmation": {"approvers": ["gen"], "date": "2021-01"},
        "key_goals": [
            {
                "id": f"G{k}",
                "label": f"goal {k}",
                "sub_goals": [{"id": f"G{k}S{j}", "label": f"part {j}"} for j in range(n_subs)],
            }
            for k, n_subs in enumerate(shape)
        ],
    }
    structure = parse_structure(json.dumps(doc).encode())
    template = generate_template(structure)
    question_ids = template.question_ids()

    n_participants = rng.randint(1, 50)
    missing_rate = rng.choice([0.0, 0.0, 0.05, 0.15])
    rows = []
    for i in range(n_participants):
        answers = {
            qid: (None if rng.random() < missing_rate else rng.randint(0, 4))
            for qid in question_ids
        }
        rows.append((f"P{i}", answers))

    lines = [",".join(["participant_id", *question_ids])]
    for participant_id, answers in rows:
        cells = ["" if answers[qid] is None else str(answers[qid]) for qid in question_ids]
        lines.append(",".join([participant_id, *cells]))
    csv_bytes = ("\n".join(lines) + "\n").encode()

    tree = [(kg.id, [sub.id for sub in kg.sub_goals]) for kg in structure.key_goals]
    questions = {sub.id: [f"Q_{sub.id}"] for kg in structure.key_goals for sub in kg.sub_goals}
    return structure, template, rows, csv_bytes, tree, questions


def test_criterion_1_fixture_fidelity():
    with _criterion(1, "fixture fidelity"):
        structure = parse_structure(bundled.online_course_structure())
        assert len(structure.key_goals) == 4
        assert [len(kg.sub_goals) for kg in structure.key_goals] == [5, 6, 4, 5]
        assert len(list(structure.sub_goals())) == 20
        assert validate_structure(structure) == []

        template = generate_template(structure)
        assert len(template.questions) == 20
        labels = [level.label for level in template.scale.levels]
        assert len(labels) == 5
        assert labels[0] == "Disagree at all"
        assert labels[-1] == "76-100% agree"
        # the committed questionnaire is exactly the generated template
        assert parse_questionnaire(bundled.online_course_questionnaire()) == template


def test_criteria_2_and_5_oracle_equivalence_and_inequalities():
    rng = random.Random(20260808)
    policies = [
        (MissingPolicy.EXCLUDE_PARTICIPANT, oracle.EXCLUDE),
        (MissingPolicy.TREAT_AS_ZERO, oracle.ZERO),
    ]
    compared = 0
    with _criterion(2, "oracle equivalence, 200 randomized instances"):
        with _criterion(5, "structural inequalities on complete data"):
            for index in range(200):
                structure, template, rows, csv_bytes, tree, questions = random_instance(rng)
                engine_policy, oracle_policy = policies[index % 2]

                question_ids = template.question_ids()
                kept, dropped = oracle.apply_policy(rows, question_ids, oracle_policy)
                responses = parse_responses(csv_bytes, template, policy=engine_policy)
                assert [p.participant_id for p in responses.participants] == [pid for pid, _ in kept]
                assert len(responses.warnings) == (
                    len(dropped) if oracle_policy == oracle.EXCLUDE
                    else sum(1 for _, a in rows if any(v is None for v in a.values()))
                )

                if not kept:
                    with pytest.raises(NoDataError):
                        score_all(responses, template, structure)
                    continue

                scores, aggregates = score_all(responses, template, structure)
                expected_per, expected_agg = oracle.evaluate(tree, questions, kept, 5)

                for score in scores:
                    exp_sub, exp_key, exp_overall = expected_per[score.participant_id]
                    assert abs(score.overall - exp_overall) <= TOLERANCE
                    for sub_id, value in score.sub_goal_scores.items():
                        assert abs(value - exp_sub[sub_id]) <= TOLERANCE
                    for key_id, value in score.key_goal_scores.items():
                        assert abs(value - exp_key[key_id]) <= TOLERANCE

                assert abs(aggregates.general - expected_agg["general"]) <= TOLERANCE
                for key_id, value in aggregates.key_goal.items():
                    assert abs(value - expected_agg["key_goal"][key_id]) <= TOLERANCE
                for sub_id, value in aggregates.sub_goal.items():
                    assert abs(value - expected_agg["sub_goal"][sub_id]) <= TOLERANCE
                assert aggregates.n_participants == expected_agg["n"]
                assert aggregates.n_overall_max == expected_agg["n_max"]
                assert aggregates.n_overall_zero == expected_agg["n_zero"]

                # criterion 5: retained data is complete, so the structural
                # inequalities must hold exactly
                for key_goal in structure.key_goals:
                    for sub in key_goal.sub_goals:
                        assert aggregates.key_goal[key_goal.id] >= aggregates.sub_goal[sub.id]
                assert aggregates.general <= min(aggregates.key_goal.values())
                compared += 1
    assert compared >= 150  # most instances must survive policy application


def _bundled_pipeline(rows_by_question):
    structure = parse_structure(bundled.online_course_structure())
    template = generate_template(structure)
    participants = tuple(
        ParticipantRecord(participant_id=f"P{i}", demographics={}, answers=row)
        for i, row in enumerate(rows_by_question)
    )
    responses = ResponseSet(
        questionnaire_version=template.structure_version,
        participants=participants,
        policy_applied=MissingPolicy.EXCLUDE_PARTICIPANT,
        demographics=(),
        warnings=(),
    )
    return structure, template, responses


def test_criterion_3_exactness_at_extremes():
    with _criterion(3, "exactness at extremes"):
        structure = parse_structure(bundled.online_course_structure())
        template = generate_template(structure)
        question_ids = template.question_ids()

        # every answer at the top level: every score is exactly 1.0
        structure, template, responses = _bundled_pipeline(
            [{qid: 4 for qid in question_ids} for _ in range(157)]
        )
        scores, aggregates = score_all(responses, template, structure)
        assert all(score.overall == 1.0 for score in scores)
        assert aggregates.general == 1.0
        assert all(value == 1.0 for value in aggregates.key_goal.values())
        assert all(value == 1.0 for value in aggregates.sub_goal.values())
        assert aggregates.n_overall_max == 157

        # one fully failed key goal (B2) zeroes every participant exactly
        rng = random.Random(17)
        rows = []
        for _ in range(17):
            row = {qid: rng.randint(1, 4) for qid in question_ids}
            for sub in structure.key_goals[1].sub_goals:  # B2
                row[f"Q_{sub.id}"] = 0
            rows.append(row)
        structure, template, responses = _bundled_pipeline(rows)
        scores, aggregates = score_all(responses, template, structure)
        assert all(score.overall == 0.0 for score in scores)
        assert aggregates.n_overall_zero == 17
        assert aggregates.general == 0.0


def test_criterion_4_monotonicity():
    rng = random.Random(40404)
    with _criterion(4, "monotonicity under single-answer raises, 1000 trials"):
        for _ in range(1000):
            shape = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            doc = {
                "title": "m",
                "version": "1",
                "status": "confirmed",
                "confirmation": {"approvers": ["gen"], "date": "2021-01"},
                "key_goals": [
                    {
                        "id": f"G{k}",
                        "label": "g",
                        "sub_goals": [{"id": f"G{k}S{j}", "label": "s"} for j in range(n)],
                    }
                    for k, n in enumerate(shape)
                ],
            }
            structure = parse_structure(json.dumps(doc).encode())
            template = generate_template(structure)
            question_ids = template.question_ids()

            n_participants = rng.randint(1, 6)
            rows = [
                {qid: rng.randint(0, 4) for qid in question_ids} for _ in range(n_participants)
            ]
            victim = rng.randrange(n_participants)
            target = rng.choice(question_ids)
            rows[victim][target] = rng.randint(0, 3)  # leave headroom to raise

            def run(answer_rows):
                participants = tuple(
                    ParticipantRecord(f"P{i}", {}, dict(row)) for i, row in enumerate(answer_rows)
                )
                responses = ResponseSet("1", participants, MissingPolicy.EXCLUDE_PARTICIPANT, (), ())
                return score_all(responses, template, structure)

            scores_lo, agg_lo = run(rows)
            rows[victim][target] += 1
            scores_hi, agg_hi = run(rows)

            for before, after in zip(scores_lo, scores_hi):
                assert after.overall >= before.overall
                for sub_id in before.sub_goal_scores:
                    assert after.sub_goal_scores[sub_id] >= before.sub_goal_scores[sub_id]
                for key_id in before.key_goal_scores:
                    assert after.key_goal_scores[key_id] >= before.key_goal_scores[key_id]
            assert agg_hi.general >= agg_lo.general
            for key_id in agg_lo.key_goal:
                assert agg_hi.key_goal[key_id] >= agg_lo.key_goal[key_id]
            for sub_id in agg_lo.sub_goal:
                assert agg_hi.sub_goal[sub_id] >= agg_lo.sub_goal[sub_id]


def test_criterion_6_participation_arithmetic():
    with _criterion(6, "participation arithmetic"):
        rate = participation_rate(552, 1062)
        assert rate == 51.98
        assert f"{rate:.2f}%" == "51.98%"


GOLDEN_ARGS = [
    "--demographics", "gender",
    "--group-by", "gender",
    "--enrolled", "20",
    "--reproducible",
]


def test_criterion_7_report_golden_files(sample_files, tmp_path, capsys):
    with _criterion(7, "report golden files"):
        structure, questionnaire, responses = sample_files
        rendered = {}
        for fmt, suffix in (("markdown", "md"), ("json", "json"), ("csv", "csv")):
            out_path = tmp_path / f"report.{suffix}"
            code = main(["score", str(structure), str(questionnaire), str(responses),
                         "--format", fmt, "--out", str(out_path), *GOLDEN_ARGS])
            assert code == 0
            rendered[fmt] = out_path.read_bytes()
        capsys.readouterr()  # drop captured warnings

        assert rendered["markdown"] == (GOLDEN_DIR / "online_course.report.md").read_bytes()
        assert rendered["json"] == (GOLDEN_DIR / "online_course.report.json").read_bytes()
        assert rendered["csv"] == (GOLDEN_DIR / "online_course.report.csv").read_bytes()

        # lossless json round-trip: the report read back writes every golden
        report = parse_report(rendered["json"])
        for fmt in ("json", "csv", "markdown"):
            assert render_report(report, fmt) == rendered[fmt]

        # key-goal table lists B1..B4 in order at two decimals
        table_rows = [
            line for line in rendered["markdown"].decode().splitlines()
            if line.startswith("| B") and line.count("|") == 4
        ]
        assert [row.split("|")[1].strip() for row in table_rows] == ["B1", "B2", "B3", "B4"]
        for row in table_rows:
            value = row.split("|")[3].strip()
            whole, frac = value.split(".")
            assert len(frac) == 2


def test_criterion_8_determinism_and_scale(sample_files, capsys):
    with _criterion(8, "determinism and scale, 10000 participants"):
        structure_path, questionnaire_path, _ = sample_files
        structure = parse_structure(structure_path.read_bytes())
        questionnaire = parse_questionnaire(questionnaire_path.read_bytes())
        csv_bytes = simulate_responses(questionnaire, 10_000, seed=42)

        outputs = []
        for _ in range(2):
            responses = parse_responses(csv_bytes, questionnaire)
            started = time.perf_counter()
            scores, aggregates = score_all(responses, questionnaire, structure)
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0, f"scoring 10k participants took {elapsed:.3f}s"
            report = build_report(scores, aggregates, structure, responses, generated_at="")
            outputs.append(render_report(report, "json"))
        assert outputs[0] == outputs[1]
        capsys.readouterr()


def test_criterion_9_error_paths(sample_files, tmp_path, capsys):
    with _criterion(9, "error-path coverage"):
        structure, questionnaire, responses = sample_files
        score = ["score", str(structure), str(questionnaire)]

        # missing question column -> exit 2, diagnostic names the column
        lines = responses.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("Q_A26")
        bad = tmp_path / "missing.csv"
        bad.write_text("\n".join(
            ",".join(cell for i, cell in enumerate(line.split(",")) if i != drop) for line in lines
        ) + "\n")
        assert main([*score, str(bad), "--demographics", "gender"]) == 2
        assert "Q_A26" in capsys.readouterr().err

        # out-of-range cell -> exit 2, diagnostic names row and column
        bad = tmp_path / "range.csv"
        bad.write_text(responses.read_text().replace("S003,F,3", "S003,F,9", 1))
        assert main([*score, str(bad), "--demographics", "gender"]) == 2
        err = capsys.readouterr().err
        assert "row 4" in err and "Q_A11" in err

        # duplicate participant id -> exit 2, diagnostic names the id
        bad = tmp_path / "dupe.csv"
        bad.write_text(responses.read_text().replace("S009,", "S002,", 1))
        assert main([*score, str(bad), "--demographics", "gender"]) == 2
        assert "'S002'" in capsys.readouterr().err

        # template from a draft structure -> exit 1
        doc = json.loads(structure.read_text())
        doc["status"] = "draft"
        doc["confirmation"] = None
        draft = tmp_path / "draft.json"
        draft.write_text(json.dumps(doc))
        assert main(["template", str(draft), str(tmp_path / "q.json")]) == 1
        assert "structure_not_confirmed" in capsys.readouterr().err

        # empty response set -> exit 1, named diagnostic
        header_only = tmp_path / "header_only.csv"
        header_only.write_text(lines[0] + "\n")
        assert main([*score, str(header_only), "--demographics", "gender"]) == 1
        assert "no_data" in capsys.readouterr().err
