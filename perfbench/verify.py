"""Reference check of a rendered report against the generator's truth.

The check is independent of the engine. Per-participant scores are compared
with ``tests/oracle.py`` (exact rationals) on a seeded sample of participants.
The counts ``n``, ``n_max``, ``n_zero``, the group sizes and the excluded
participants come from the generator's truth and must match exactly; the
histogram must have 10 bins summing to ``n``. Sub-goal means are compared
with exact rational column sums of the generated answers. Key-goal, general
and group means are compared with an exactly rounded sum (``math.fsum``) of
the per-participant values, over the members the truth names.

Tolerances: a per-participant score may differ from the exact rational by at
most ``SCORE_TOLERANCE`` (a few ulps are expected); a full-precision mean
over up to 100,000 participants by at most ``MEAN_TOLERANCE`` (sequential
summation error is below 1e-11). Markdown shows two decimals, so a shown
value may differ from the reference by at most half a cent plus
``MEAN_TOLERANCE``.

Markdown reports carry no per-participant values, so on that format the
sample, the histogram and the key-goal and general means are checked on the
score objects of the library call that rendered the report.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import random
import re
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from operator import itemgetter

from workloads import ROOT, Inputs

SAMPLE_SIZE = 300
SCORE_TOLERANCE = Fraction(1, 10**12)
MEAN_TOLERANCE = 1e-9
BINS = 10


def _load_oracle():
    path = ROOT / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("sure_eval_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Reference:
    """Exact expectations for one workload input, computed once per run."""

    def __init__(self, inputs: Inputs, seed: int):
        truth = inputs.truth
        self.inputs = inputs
        retained = truth.retained()
        self.n = len(retained)
        self.ids = [truth.ids[i] for i in retained]
        self.excluded = len(truth.ids) - self.n
        column = {qid: j for j, qid in enumerate(truth.question_ids)}
        self.n_max, self.n_zero = _extremes(truth, column, retained)
        totals = [sum(col) for col in zip(*(truth.codes[i] for i in retained))]
        top = truth.levels - 1
        self.sub_means = {
            sub: Fraction(sum(totals[column[q]] for q in qids), len(qids) * top * self.n)
            for sub, qids in truth.questions.items()
        }

        self.members: dict[str, dict[str, list[str]]] = {}
        for key in inputs.workload.group_by:
            index = inputs.workload.demographics.index(key)
            groups = self.members.setdefault(key, {})
            for i in retained:
                groups.setdefault(truth.demographics[i][index], []).append(truth.ids[i])

        oracle = _load_oracle()
        picked = sorted(random.Random(seed).sample(retained, min(SAMPLE_SIZE, self.n)))
        rows = [(truth.ids[i], truth.answers(i)) for i in picked]
        self.sample, _ = oracle.evaluate(truth.tree, truth.questions, rows, truth.levels)

    def check(self, data: bytes, scores=None) -> list[str]:
        """Problems in a rendered report; an empty list means it is correct.

        ``scores`` are the library's ParticipantScore objects behind the
        report; they are needed only for markdown.
        """
        fmt = self.inputs.workload.format
        problems: list[str] = []
        try:
            text = data.decode("utf-8")
            if fmt == "json":
                doc = _from_json(text)
            elif fmt == "csv":
                doc = _from_csv(text)
            else:
                doc = _from_markdown(text, scores)
            self._compare(doc, fmt == "markdown", problems)
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
            problems.append(f"report does not have the expected shape: {exc!r}")
        return problems

    def _compare(self, doc: dict, rounded: bool, problems: list[str]) -> None:
        truth = self.inputs.truth
        expect = {"n": self.n, "n_max": self.n_max, "n_zero": self.n_zero}
        for name, value in expect.items():
            if doc[name] != value:
                problems.append(f"{name}: report {doc[name]}, truth {value}")
        histogram = doc["histogram"]
        if len(histogram) != BINS or sum(histogram) != self.n:
            problems.append(f"histogram {histogram} does not have {BINS} bins summing to {self.n}")

        participants = doc["participants"]
        if [p[0] for p in participants] != self.ids:
            problems.append("participant ids or order differ from the retained rows")
            return
        keys = [key for key, _ in truth.tree]
        by_id = {p[0]: p for p in participants}
        for pid, (sub_exact, key_exact, overall_exact) in self.sample.items():
            _, overall, key_scores, sub_scores = by_id[pid]
            for label, got, exact in (
                ("overall", overall, overall_exact),
                *((f"key goal {k}", key_scores[k], key_exact[k]) for k in keys),
                *((f"sub goal {s}", sub_scores[s], sub_exact[s]) for s in sub_exact),
            ):
                if abs(Fraction(got) - exact) > SCORE_TOLERANCE:
                    problems.append(f"participant {pid} {label}: report {got!r}, oracle {float(exact)!r}")
        expected_bins = [0] * BINS
        for p in participants:
            expected_bins[min(int(p[1] * BINS), BINS - 1)] += 1
        if histogram != expected_bins:
            problems.append(f"histogram {histogram} does not match the participant scores {expected_bins}")

        slack = 0.005 + MEAN_TOLERANCE if rounded else MEAN_TOLERANCE
        _close(problems, "general", doc["general"], math.fsum(p[1] for p in participants) / self.n, slack)
        for k in keys:
            _close(problems, f"key goal {k}", doc["key_goals"][k], math.fsum(p[2][k] for p in participants) / self.n, slack)
        for sub, exact in self.sub_means.items():
            _close(problems, f"sub goal {sub}", doc["sub_goals"][sub], float(exact), slack)

        if doc["warnings"] != self.excluded:
            problems.append(f"{doc['warnings']} warnings, truth excludes {self.excluded} participants")
        groups = doc["groups"]
        expected_groups = {key: {value: len(ids) for value, ids in by.items()} for key, by in self.members.items()}
        sizes = {key: {value: agg["n"] for value, agg in by.items()} for key, by in (groups or {}).items()}
        if sizes != expected_groups:
            problems.append(f"group sizes {sizes} differ from the truth {expected_groups}")
            return
        for key, by in self.members.items():
            for value, ids in by.items():
                agg = groups[key][value]
                members = [by_id[pid] for pid in ids]
                where = f"group {key}={value!r}"
                _close(problems, f"{where} general", agg["general"], math.fsum(p[1] for p in members) / len(ids), slack)
                for k in keys:
                    _close(problems, f"{where} key goal {k}", agg["key_goals"][k], math.fsum(p[2][k] for p in members) / len(ids), slack)
                for sub in self.sub_means:
                    _close(problems, f"{where} sub goal {sub}", agg["sub_goals"][sub], math.fsum(p[3][sub] for p in members) / len(ids), slack)

        enrolled = self.inputs.enrolled
        expected_participation = None
        if enrolled is not None:
            rate = float((Decimal(self.n) * 100 / Decimal(enrolled)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
            expected_participation = (self.n, enrolled, rate)
        if doc["participation"] != expected_participation:
            problems.append(f"participation {doc['participation']}, expected {expected_participation}")


def _extremes(truth, column: dict[str, int], retained: list[int]) -> tuple[int, int]:
    """Rows scoring exactly 1.0 and exactly 0.0, decided on the answer codes.

    A participant scores exactly 1.0 when every key goal has a sub goal whose
    answers are all at the top level, and exactly 0.0 when some key goal has
    every one of its answers at 0.
    """
    width = len(truth.question_ids)
    all_top, all_zero = bytes([truth.levels - 1]) * width, bytes(width)
    tops, zeros = [], []
    for _, subs in truth.tree:
        getters = [itemgetter(*(column[q] for q in truth.questions[sub])) for sub in subs]
        tops.append([(get, get(all_top)) for get in getters])
        get = itemgetter(*(column[q] for sub in subs for q in truth.questions[sub]))
        zeros.append((get, get(all_zero)))
    n_max = n_zero = 0
    for i in retained:
        row = truth.codes[i]
        n_max += all(any(get(row) == top for get, top in key) for key in tops)
        n_zero += any(get(row) == zero for get, zero in zeros)
    return n_max, n_zero


def _close(problems: list[str], label: str, got: float, want: float, slack: float) -> None:
    if not abs(got - want) <= slack:
        problems.append(f"{label}: report {got!r}, reference {want!r}")


# Each reader turns one report format into the same plain shape:
# participants are (id, overall, {key: score}, {sub: score}) tuples.


def _from_json(text: str) -> dict:
    obj = json.loads(text)
    dist = obj["distribution"]
    participation = obj["participation"]
    return {
        "n": dist["n"],
        "n_max": dist["n_max"],
        "n_zero": dist["n_zero"],
        "histogram": dist["histogram"],
        "general": obj["general"],
        "key_goals": {k["id"]: k["score"] for k in obj["key_goals"]},
        "sub_goals": {s["id"]: s["score"] for k in obj["key_goals"] for s in k["sub_goals"]},
        "participants": [(p["id"], p["overall"], p["key_goals"], p["sub_goals"]) for p in obj["participants"]],
        "warnings": len(obj["warnings"]),
        "groups": {
            key: {value: {"n": a["n"], "general": a["general"], "key_goals": a["key_goals"], "sub_goals": a["sub_goals"]} for value, a in by.items()}
            for key, by in obj["groups"].items()
        } if obj["groups"] is not None else None,
        "participation": None if participation is None else (participation["respondents"], participation["enrolled"], participation["rate_percent"]),
    }


def _from_csv(text: str) -> dict:
    sections: dict[str, list[list[str]]] = {}
    current: list[list[str]] = []
    for record in csv.reader(io.StringIO(text, newline="")):
        if len(record) == 1 and record[0].startswith("# "):
            current = sections.setdefault(record[0][2:], [])
        else:
            current.append(record)
    general = {field: value for field, value in sections["general"][1:]}
    header = sections["participants"][0]
    key_ids = [row[0] for row in sections["key_goals"][1:]]
    sub_ids = [row[0] for row in sections["sub_goals"][1:]]
    if header != ["participant_id", "overall", *key_ids, *sub_ids]:
        raise ValueError(f"participants header {header}")
    participants = []
    for row in sections["participants"][1:]:
        values = [float(v) for v in row[1:]]
        participants.append((row[0], values[0], dict(zip(key_ids, values[1:])), dict(zip(sub_ids, values[1 + len(key_ids):]))))
    groups = None
    if "groups" in sections:
        groups = {}
        for demographic, value, n, scope, item, score in sections["groups"][1:]:
            agg = groups.setdefault(demographic, {}).setdefault(value, {"n": int(n), "key_goals": {}, "sub_goals": {}})
            if scope == "general":
                agg["general"] = float(score)
            else:
                agg[f"{scope}s"][item] = float(score)
    participation = None
    if "participation" in sections:
        respondents, enrolled, rate = sections["participation"][1]
        participation = (int(respondents), int(enrolled), float(rate))
    return {
        "n": int(general["n_participants"]),
        "n_max": int(general["n_overall_max"]),
        "n_zero": int(general["n_overall_zero"]),
        "histogram": [int(row[2]) for row in sections["distribution"][1:]],
        "general": float(general["general"]),
        "key_goals": {row[0]: float(row[2]) for row in sections["key_goals"][1:]},
        "sub_goals": {row[0]: float(row[3]) for row in sections["sub_goals"][1:]},
        "participants": participants,
        "warnings": len(sections.get("warnings", [[]])) - 1,
        "groups": groups,
        "participation": participation,
    }


_ROW = re.compile(r"^\| (.+?) \| (.+?) \|(?: (.+?) \|)?$")


def _from_markdown(text: str, scores) -> dict:
    section = ""
    general: dict[str, str] = {}
    key_goals: dict[str, float] = {}
    sub_goals: dict[str, float] = {}
    histogram: list[int] = []
    for line in text.split("\n"):
        if line.startswith("## "):
            section = line[3:]
            continue
        match = _ROW.match(line)
        if not match or line.startswith("|-") or match.group(1) in ("Metric", "Id", "Overall range"):
            continue
        first, second, third = match.groups()
        if section in ("General", "Distribution") and third is None:
            if section == "Distribution" and re.fullmatch(r"\d\.\d-\d\.\d", first):
                histogram.append(int(second))
            else:
                general[first] = second
        elif section == "Key goals":
            key_goals[first] = float(third)
        elif section == "Sub goals" and third is not None:
            sub_goals[first] = float(third.split(" ")[0])
    if scores is None:
        raise ValueError("markdown reports are checked together with the library's scores")
    return {
        "n": int(general["Participants"]),
        "n_max": int(general["Overall score exactly 1.0"]),
        "n_zero": int(general["Overall score exactly 0.0"]),
        "histogram": histogram,
        "general": float(general["General evaluation score"]),
        "key_goals": key_goals,
        "sub_goals": sub_goals,
        "participants": [(s.participant_id, s.overall, s.key_goal_scores, s.sub_goal_scores) for s in scores],
        "warnings": 0 if "\n## Warnings\n" not in text else text.split("\n## Warnings\n", 1)[1].count("\n- "),
        "groups": None,
        "participation": None,
    }
