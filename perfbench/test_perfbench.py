"""Self-tests of the benchmark: small runs of every workload, metric names, corrupted reports.

Run with ``python3 -m pytest perfbench -q`` from the root of the checkout.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from verify import Reference

assert not run.load_program(), "the benchmark tests need a sure-eval source checkout"

SMOKE_ROWS = 400
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(name: str) -> workloads.Inputs:
    return workloads.build(workloads.WORKLOADS[name], seed=5, rows=SMOKE_ROWS)


def test_metric_and_workload_names_are_well_formed():
    spec = run.load_benchmark()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_of_every_workload(name, trace):
    lines, result = run.run_workload(workloads.WORKLOADS[name], seed=3, seconds=0, trace=trace, rows=SMOKE_ROWS)
    spec = run.load_benchmark()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in expected]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace and name == "groups-wide-10k":
        assert result["metrics"]["ingest.rows_misread"]["value"] > 0  # the multi-line comment defect
    json.dumps(result)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_check_catches_one_changed_digit(name):
    inputs = small(name)
    outcome = run.library_op(inputs)
    reference = Reference(inputs, seed=5)
    assert reference.check(outcome.data, outcome.scores) == []

    general = re.search(rb"(General evaluation score \| |\"general\": |\ngeneral,)0\.(\d)", outcome.data)
    at = general.start(2)
    digit = b"%d" % ((int(outcome.data[at:at + 1]) + 1) % 10)
    corrupted = outcome.data[:at] + digit + outcome.data[at + 1:]
    assert reference.check(corrupted, outcome.scores)


def test_operation_with_a_changed_digit_counts_as_failed(tmp_path, monkeypatch):
    inputs = small("json-roundtrip-25k")
    bench = run.Run(inputs, run.write_files(inputs, tmp_path), seed=5)
    bench.verified_library_op()
    assert bench.failed == 0

    render = run.sure_eval.render_report

    def render_with_one_digit_changed(report, format):
        data = render(report, format)
        at = data.index(b"0.") + 2
        return data[:at] + (b"1" if data[at:at + 1] != b"1" else b"2") + data[at + 1:]

    monkeypatch.setattr(run.sure_eval, "render_report", render_with_one_digit_changed)
    bench.library_sample()
    assert bench.failed >= 1 and bench.problems


def test_library_child_report_is_checked_against_the_verified_digest(tmp_path):
    inputs = small("groups-wide-10k")
    bench = run.Run(inputs, run.write_files(inputs, tmp_path), seed=5)
    bench.verified_library_op()
    assert bench.library_child() > 0
    assert bench.failed == 0, bench.problems

    bench.reference_digest = "0" * 64
    bench.library_child()
    assert bench.failed == 1 and bench.problems


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "json-roundtrip-25k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

