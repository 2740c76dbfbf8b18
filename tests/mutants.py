"""Mutation checks: each entry breaks the package in one place, and the tests it names must fail.

Usage, from anywhere, on a Python with pytest and hypothesis (pytest does
not collect it):

    python tests/mutants.py   # exit 1, listing each mutant that survives

For each entry of CATALOGUE, ``src/`` is copied to a temporary directory
and the entry's old text, which must occur exactly once in its file, is
replaced there. The entry's pytest node ids then run from this checkout
with ``-x`` and ``-p no:cacheprovider``, ``PYTHONPATH`` pointing at the
copy, under the ``mutants`` Hypothesis profile of ``tests/conftest.py`` (no
shrink phase, no example database, no deadline) and the entry's seed. The
child imports ``sure_eval`` before pytest starts and stops unless it is the
copy's. A mutant is killed only when a test fails (pytest's exit status 1)
within TIME_LIMIT seconds; one whose tests pass, run out of time or cannot
run survives. An entry that needs a newer Python than the running one is
skipped and said to be: before Python 3.12, ``sum()`` of floats adds left to
right from 0.0 as ``_total`` does, so that mutant changes nothing there.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT = 120  # seconds per mutant; a shrinking Hypothesis run took minutes before the profile dropped the shrink phase

# Run in the child before pytest, so that the tests import the copy whatever sys.path pytest sets up.
BOOTSTRAP = """import sys
import sure_eval
if not sure_eval.__file__.startswith(sys.argv[1]):
    print(f"imported {sure_eval.__file__}, not the mutant copy under {sys.argv[1]}", file=sys.stderr)
    sys.exit(64)
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    node_ids: tuple[str, ...]
    seed: int
    python: tuple[int, int] = (3, 10)  # the oldest Python on which the mutant changes behaviour


CATALOGUE = (
    Mutant(
        "_read_checked without the score walk",
        "src/sure_eval/report.py",
        '_check_scores(map("$.participants[{}]".format, count()), "overall",',
        'None and _check_scores(map("$.participants[{}]".format, count()), "overall",',
        ("tests/test_report.py::test_parse_report_words_what_the_gathered_pass_rejects_as_before",),
        1,
    ),
    Mutant(
        "_read_checked without putting each record's fields in order",
        "src/sure_eval/report.py",
        'return _read_gathered({**data, "participants": [{name: record[name] for name in fields} for record in participants]})',
        "return _read_gathered(data)",
        ("tests/test_report.py::test_parse_report_words_what_the_gathered_pass_rejects_as_before",),
        1,
    ),
    Mutant(
        "_read_answer with < for <= at the top code",
        "src/sure_eval/ingest.py",
        "if not 0 <= code <= max_code:",
        "if not 0 <= code < max_code:",
        ("tests/test_ingest.py::test_padded_or_signed_code_reads_as_its_value",),
        1,
    ),
    Mutant(
        "the zero policy without the zero-fill",
        "src/sure_eval/ingest.py",
        "row_codes = [0 if code is None else code for code in row_codes]",
        "pass",
        ("tests/test_ingest.py::test_zero_policy_fills_and_warns",),
        1,
    ),
    Mutant(
        "build_report without the group-value check",
        "src/sure_eval/report.py",
        "if not {*map(type, values)} <= {str}:",
        "if False:",
        ("tests/test_report.py::test_groups_name_the_first_participant_whose_value_is_not_a_string",),
        1,
    ),
    Mutant(
        "the plain-row test joining cells without a separator",
        "src/sure_eval/ingest.py",
        'texts = [joined if len(joined) == length else "," * length for joined in map(",".join, map(answer_cells, rows))]',
        'texts = [",".join(joined) if len(joined) == size else "," * length for joined in map("".join, map(answer_cells, rows))]',
        ("tests/test_ingest.py::test_the_column_reader_gives_what_the_row_loop_gives",),
        1,
    ),
    Mutant(
        "_score_table without its id check",
        "src/sure_eval/report.py",
        "if getattr(score, field).keys() != id_set:",
        "if False:",
        ("tests/test_report.py::test_a_score_map_without_exactly_the_tree_ids_is_a_report_error",),
        1,
    ),
    Mutant(
        "ScoreReport without __post_init__",
        "src/sure_eval/report.py",
        'object.__setattr__(self, "participants", _score_table(self.participants, self.key_goals))',
        "pass",
        ("tests/test_report.py::test_report_participants_are_a_score_table_of_the_tree_ids",),
        1,
    ),
    Mutant(
        "_colons without the participant-id term",
        "src/sure_eval/report.py",
        ' + len(table) * members + "".join(table.ids).count(":")',
        " + len(table) * members",
        ("tests/test_report.py::test_parse_report_accepts_a_written_report_without_the_hooked_loader",),
        1,
    ),
    Mutant(
        "parse_report without the colon check",
        "src/sure_eval/report.py",
        "if n_colons != _colons(data, report.participants):",
        "if False:",
        ("tests/test_report.py::test_parse_report_rejects_a_repeated_name",),
        1,
    ),
    Mutant(
        "parse_report without the hooked load on a rejection",
        "src/sure_eval/report.py",
        '_schema.load_json(document, "report")  # raises first if an object repeats a name',
        "pass",
        ("tests/test_report.py::test_parse_report_names_a_repeated_name_whose_later_copy_is_a_score_fault",),
        1,
    ),
    Mutant(
        "_mean with the table's sum order rotated by one question",
        "src/sure_eval/scoring.py",
        "else zip(*combinations):",
        "else [*zip(*combinations)][1:] + [*zip(*combinations)][:1]:",
        ("tests/test_scoring.py::test_the_score_table_is_the_rules_bit_for_bit",),
        1,
    ),
    Mutant(
        "sum() in _total",
        "src/sure_eval/scoring.py",
        "return deque(accumulate(column, initial=0.0), maxlen=1)[0]",
        "return sum(column, 0.0)",
        ("tests/test_scoring.py::test_aggregate_means_are_left_to_right_column_sums",),
        1,
        (3, 12),
    ),
)


def run(mutant: Mutant) -> str | None:
    """Why the mutant survives, or None when a test it names fails."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = Path(tmp) / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"its old text occurs {text.count(mutant.old)} times in {mutant.file}, not once"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        argv = ["-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=mutants", f"--hypothesis-seed={mutant.seed}", *mutant.node_ids]
        env = {**os.environ, "PYTHONPATH": str(copy)}
        try:
            result = subprocess.run([sys.executable, "-c", BOOTSTRAP, str(copy), *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            return f"its tests ran out of time ({TIME_LIMIT} s)"
    if result.returncode == 1:
        return None
    last = (result.stdout.strip().splitlines() or [""])[-1]
    return f"its tests exited with {result.returncode}: {result.stderr.strip() or last}"


def main() -> int:
    survivors = []
    for mutant in CATALOGUE:
        if sys.version_info < mutant.python:
            print(f"skipped  {mutant.name}: changes nothing before Python {'.'.join(map(str, mutant.python))}")
            continue
        start = time.perf_counter()
        why = run(mutant)
        print(f"{'killed  ' if why is None else 'SURVIVED'} {mutant.name} ({time.perf_counter() - start:.1f} s){'' if why is None else ': ' + why}", flush=True)
        if why is not None:
            survivors.append(mutant.name)
    print(f"{len(survivors)} survivor(s){': ' if survivors else ''}{', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
