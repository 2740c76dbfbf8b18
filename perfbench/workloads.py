"""Seeded input generators for the benchmark workloads.

Every input the program sees is built here from the workload seed: the goal
structure and questionnaire documents, the response CSV, and the generator's
truth about that CSV (answer codes, demographics, which rows the default
``exclude`` policy drops). The truth is what the reference check in
``verify.py`` compares reports against; nothing here calls ``sure_eval``.

Why these workloads:

* ``json-roundtrip-25k`` -- the bundled 4x20 structure with 25,000 complete
  rows, rendered as json and read back with ``parse_report``. Every layer
  of the library runs: ingest and scoring of one question per sub goal, and
  the json writer and reader, which dominate.
* ``groups-wide-10k`` -- a generated 8x6 structure with three questions per
  sub goal on a 7-level scale and three demographic columns, 5% of rows with
  one blank answer, grouped by two keys, csv output. Rows are wide, scoring
  averages several questions per sub goal, the exclude policy emits warnings,
  ``build_report`` re-aggregates each group and the csv writer runs.

Both workloads are smaller than 100k rows on purpose: at 100k rows a json
operation takes 10-17 s, so a run of the benchmark's length would hold two
or three samples of each operation, and five such runs spread by 23-30%.
At these sizes a 55 s run holds six to ten samples of each. A third workload,
``md-100k`` (the bundled structure, 100k rows, markdown output), was
dropped: with three workloads a run could measure for 35 s only, and its
figures spread 9-14% between quartiles over five seeds. Its layers are all
measured here; only the markdown writer, a negligible share of its time,
is not.

Known ingest defect, counted rather than hidden: about 1% of ``comment``
cells in ``groups-wide-10k`` are quoted multi-line values. The reader drops
the line break (``"two\\nlines"`` is read as ``twolines``), which the
``ingest.rows_misread`` counter records; the report bytes stay correct
because ``comment`` is never reported. Cells holding U+2028 or a form feed
abort the whole run today, so they are kept out of the timed workloads; the
regression tests for all three ingest defects belong to ROADMAP item 2.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

BLANK = 255  # answer code marking a blank cell in the truth rows

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_STRUCTURE = ROOT / "src/sure_eval/data/online_course.structure.json"
BUNDLED_QUESTIONNAIRE = ROOT / "src/sure_eval/data/online_course.questionnaire.json"

WIDE_KEY_GOALS = 8
WIDE_SUB_GOALS = 6
WIDE_QUESTIONS_PER_SUB = 3
WIDE_LEVELS = 7
WIDE_BLANK_SHARE = 0.05
WIDE_TOP_SHARE = 0.03  # straight-liners answering every question at the top
WIDE_ZERO_KEY_SHARE = 0.02  # rows with one key goal answered all-zero
WIDE_MULTILINE_SHARE = 0.01
WIDE_COMMENT_SHARE = 0.15

COHORTS = tuple(f'{year}, "{term}" intake' for year in (2021, 2022, 2023) for term in ("Spring", "Summer", "Autumn", "Winter"))
MODES = ("online", "in-person", "hybrid")
WORDS = ("clear", "slides", "pace", "too fast", "helpful", "labs", "more examples", "audio", "great", "confusing", "quiz")


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    kind: str  # "bundled" or "wide"
    format: str
    roundtrip: bool  # the library operation ends with parse_report
    demographics: tuple[str, ...] = ()
    group_by: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("json-roundtrip-25k", 25_000, "bundled", "json", True),
        Workload(
            "groups-wide-10k", 10_000, "wide", "csv", False,
            demographics=("cohort", "mode", "comment"), group_by=("cohort", "mode"),
        ),
    )
}


@dataclass(frozen=True)
class Truth:
    """What the generator put into the response CSV, row by row."""

    tree: list[tuple[str, list[str]]]  # (key goal id, [sub goal ids])
    questions: dict[str, list[str]]  # sub goal id -> question ids
    question_ids: list[str]  # questionnaire order
    levels: int
    ids: list[str]
    codes: list[bytes]  # per row, questionnaire order, BLANK for a blank cell
    demographics: list[tuple[str, ...]]  # per row, in Workload.demographics order

    def retained(self) -> list[int]:
        """Row indices the default exclude policy keeps."""
        return [i for i, row in enumerate(self.codes) if BLANK not in row]

    def answers(self, i: int) -> dict[str, int]:
        return dict(zip(self.question_ids, self.codes[i]))


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    structure: bytes
    questionnaire: bytes
    responses: bytes
    truth: Truth

    @property
    def enrolled(self) -> int | None:
        """Enrolled head count passed with --enrolled; only grouped workloads use it."""
        return len(self.truth.ids) + len(self.truth.ids) // 4 if self.workload.group_by else None


def build(workload: Workload, seed: int, rows: int | None = None) -> Inputs:
    """Generate the workload's inputs; the same seed gives the same bytes."""
    rng = random.Random(seed)
    n = workload.rows if rows is None else rows
    if workload.kind == "bundled":
        structure, questionnaire = BUNDLED_STRUCTURE.read_bytes(), BUNDLED_QUESTIONNAIRE.read_bytes()
    else:
        structure, questionnaire = _wide_documents()
    tree, questions, question_ids, levels = _shape(structure, questionnaire)
    if workload.kind == "bundled":
        codes, demographics = _uniform_rows(rng, n, len(question_ids), levels), [()] * n
    else:
        codes, demographics = _wide_rows(rng, n, tree, questions, question_ids, levels)
    ids = [f"P{i:06d}" for i in range(1, n + 1)]

    # Header binding is by name, so the free-text column goes last, as survey exports put it.
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["participant_id", *workload.demographics[:2], *question_ids, *workload.demographics[2:]])
    for pid, row, demo in zip(ids, codes, demographics):
        cells = ["" if code == BLANK else str(code) for code in row]
        writer.writerow([pid, *demo[:2], *cells, *demo[2:]])
    truth = Truth(tree, questions, question_ids, levels, ids, codes, demographics)
    return Inputs(workload, structure, questionnaire, out.getvalue().encode("utf-8"), truth)


def _shape(structure: bytes, questionnaire: bytes):
    s, q = json.loads(structure), json.loads(questionnaire)
    tree = [(k["id"], [sub["id"] for sub in k["sub_goals"]]) for k in s["key_goals"]]
    questions: dict[str, list[str]] = {sub: [] for _, subs in tree for sub in subs}
    for question in q["questions"]:
        questions[question["sub_goal"]].append(question["id"])
    return tree, questions, [question["id"] for question in q["questions"]], len(q["scale"])


def _uniform_rows(rng: random.Random, n: int, width: int, levels: int) -> list[bytes]:
    flat = bytes(rng.choices(range(levels), k=n * width))
    return [flat[i * width:(i + 1) * width] for i in range(n)]


def _wide_rows(rng, n, tree, questions, question_ids, levels):
    top = levels - 1
    column = {qid: i for i, qid in enumerate(question_ids)}
    rows = _uniform_rows(rng, n, len(question_ids), levels)
    codes, demographics = [], []
    for row in rows:
        row = bytearray(row)
        kind = rng.random()
        if kind < WIDE_TOP_SHARE:
            row[:] = bytes([top]) * len(row)
        elif kind < WIDE_TOP_SHARE + WIDE_ZERO_KEY_SHARE:
            for sub in rng.choice(tree)[1]:
                for qid in questions[sub]:
                    row[column[qid]] = 0
        if rng.random() < WIDE_BLANK_SHARE:
            row[rng.randrange(len(row))] = BLANK
        codes.append(bytes(row))
        demographics.append((rng.choice(COHORTS), rng.choice(MODES), _comment(rng)))
    return codes, demographics


def _comment(rng: random.Random) -> str:
    kind = rng.random()
    if kind < WIDE_MULTILINE_SHARE:
        return f"{rng.choice(WORDS)}\n{rng.choice(WORDS)}, {rng.choice(WORDS)}"
    if kind < WIDE_COMMENT_SHARE:
        return ", ".join(rng.sample(WORDS, rng.randint(1, 3)))
    return ""


def _wide_documents() -> tuple[bytes, bytes]:
    key_goals = []
    questions = []
    for k in range(1, WIDE_KEY_GOALS + 1):
        subs = []
        for s in range(1, WIDE_SUB_GOALS + 1):
            sub_id = f"G{k}S{s}"
            subs.append({"id": sub_id, "label": f"Sub goal {s} of key goal {k}"})
            for j in range(1, WIDE_QUESTIONS_PER_SUB + 1):
                questions.append({"id": f"Q{k}_{s}_{j}", "text": f"Rate aspect {j} of sub goal {sub_id}", "sub_goal": sub_id})
        key_goals.append({"id": f"G{k}", "label": f"Key goal {k}", "sub_goals": subs})
    structure = {
        "title": "Wide programme evaluation",
        "version": "2.0",
        "status": "confirmed",
        "confirmation": {"approvers": ["Programme board"], "date": "2024-06"},
        "key_goals": key_goals,
    }
    questionnaire = {
        "structure_version": "2.0",
        "status": "confirmed",
        "scale": [{"code": code, "label": f"Level {code}"} for code in range(WIDE_LEVELS)],
        "questions": questions,
    }
    return (json.dumps(structure, indent=2) + "\n").encode(), (json.dumps(questionnaire, indent=2) + "\n").encode()
