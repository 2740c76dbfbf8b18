"""sure-eval benchmark: one workload, end-to-end or traced, with a correctness check.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload json-roundtrip-25k --seed 1 --seconds 55 --trace 0

The benchmark drives sure-eval from outside, the way its users do: the
``sure-eval`` command line in fresh child processes (``python -m sure_eval``
with ``src`` on the path), and the public library functions in this process.
It generates the workload's inputs from ``--seed`` (see ``workloads.py``),
checks the first report against the exact-rational oracle (see
``verify.py``), and then every operation's report against that verified
digest. Human-readable lines go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics, as medians over repeated
operations for ``--seconds`` seconds:

* ``wall_s`` -- one ``sure-eval score ... --reproducible --out FILE`` child,
  spawn to exit;
* ``lib_s`` -- the library pipeline with ``sure_eval`` imported and the
  inputs in memory, one operation per fresh child (``library_child.py``);
* ``setup_s`` -- one ``sure-eval check STRUCTURE QUESTIONNAIRE`` child;
* ``peak_rss_mb`` -- peak RSS of the ``wall_s`` child, from ``os.wait4``.

``--trace 1`` makes a separate traced run that reports the per-layer
metrics: spans around each public call give the stage self times, a
tracemalloc pass gives the ``*.peak_mb`` figures, and the difference between
a traced and an untraced library run is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import ROOT, Inputs, Workload

SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 11  # check children per run, at least
CHECKS_PER_OPERATION = 2
IMPORT_SAMPLES = 7
MB = 1e6

TRACE_REPEATS = 3

# The public calls of the library operation, in order.
LIBRARY_STAGES = (
    "goal_structure.parse", "questionnaire.parse", "ingest.parse", "scoring.score_all",
    "report.build", "report.render", "report.parse_report",
)
# Stages the CLI runs in-process; cli.overhead_s is its wall time minus these.
CLI_STAGES = LIBRARY_STAGES[:-1] + ("questionnaire.validate",)
PEAK_METRICS = {"ingest.parse": "ingest.peak_mb", "scoring.score_all": "scoring.peak_mb", "report.render": "report.render_peak_mb"}

sure_eval = None  # imported from SRC by main()


# --- library and child operations ------------------------------------------


@dataclass
class Outcome:
    structure: object
    questionnaire: object
    responses: object
    scores: list
    report: object
    data: bytes
    parsed: object


def call(name, fn, *args, **kwargs):
    """Stage runner of the timed runs: call the public function, record nothing."""
    return fn(*args, **kwargs)


def library_op(inputs: Inputs, stage=call) -> Outcome:
    """The library pipeline a program embedding sure-eval runs on one input."""
    w = inputs.workload
    structure = stage("goal_structure.parse", sure_eval.parse_structure, inputs.structure)
    questionnaire = stage("questionnaire.parse", sure_eval.parse_questionnaire, inputs.questionnaire)
    responses = stage("ingest.parse", sure_eval.parse_responses, inputs.responses, questionnaire, demographics=w.demographics)
    scores, aggregates = stage("scoring.score_all", sure_eval.score_all, responses, questionnaire, structure)
    report = stage(
        "report.build", sure_eval.build_report, scores, aggregates, structure, responses,
        participation=None if inputs.enrolled is None else (len(responses.participants), inputs.enrolled),
        group_by=list(w.group_by) or None,
        generated_at="",
    )
    data = stage("report.render", sure_eval.render_report, report, w.format)
    parsed = stage("report.parse_report", sure_eval.parse_report, data) if w.roundtrip else None
    return Outcome(structure, questionnaire, responses, scores, report, data, parsed)


@dataclass(frozen=True)
class Files:
    structure: Path
    questionnaire: Path
    responses: Path
    out: Path
    stdout: Path
    stderr: Path


def write_files(inputs: Inputs, directory: Path) -> Files:
    files = Files(*(directory / name for name in ("structure.json", "questionnaire.json", "responses.csv", "report.out", "child.stdout", "child.stderr")))
    files.structure.write_bytes(inputs.structure)
    files.questionnaire.write_bytes(inputs.questionnaire)
    files.responses.write_bytes(inputs.responses)
    return files


def score_argv(inputs: Inputs, files: Files) -> list[str]:
    w = inputs.workload
    argv = [
        sys.executable, "-m", "sure_eval", "score", str(files.structure), str(files.questionnaire), str(files.responses),
        "--format", w.format, "--reproducible", "--out", str(files.out),
    ]
    if w.demographics:
        argv += ["--demographics", ",".join(w.demographics)]
    if w.group_by:
        argv += ["--group-by", ",".join(w.group_by), "--enrolled", str(inputs.enrolled)]
    return argv


def check_argv(files: Files) -> list[str]:
    return [sys.executable, "-m", "sure_eval", "check", str(files.structure), str(files.questionnaire)]


def spawn(argv: list[str], files: Files) -> tuple[float, int, float]:
    """Run one child to exit: (wall seconds, exit code, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(files.stdout, "wb") as out, open(files.stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss * 1024 / MB


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- the run ----------------------------------------------------------------


class Run:
    """The inputs, files and operation counts of one benchmark run."""

    def __init__(self, inputs: Inputs, files: Files, seed: int):
        self.inputs = inputs
        self.files = files
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_digest = ""

    def record(self, problems: list[str]) -> None:
        """Count one operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
            for problem in problems:
                print(f"failed: {problem}", file=sys.stderr)

    def output_problems(self, outcome: Outcome) -> list[str]:
        problems = []
        if digest(outcome.data) != self.reference_digest:
            problems.append("library report differs from the verified report")
        if outcome.parsed is not None and outcome.parsed != outcome.report:
            problems.append("parse_report did not return the report that was rendered")
        return problems

    def verified_library_op(self) -> float:
        """The first library run: timed, then its report checked against the oracle."""
        from verify import Reference

        reference = Reference(self.inputs, self.seed)
        gc.collect()
        start = time.perf_counter()
        outcome = library_op(self.inputs)
        elapsed = time.perf_counter() - start
        self.reference_digest = digest(outcome.data)
        problems = self.output_problems(outcome)
        scores, data = outcome.scores, outcome.data
        del outcome
        self.record(problems + [f"reference check: {p}" for p in reference.check(data, scores)])
        return elapsed

    def library_sample(self) -> float:
        gc.collect()
        start = time.perf_counter()
        try:
            outcome = library_op(self.inputs)
        except Exception as exc:  # noqa: BLE001 - a raising operation is counted as failed
            self.record([f"library operation raised {exc!r}"])
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.record(self.output_problems(outcome))
        return elapsed

    def score_child(self) -> tuple[float, float]:
        elapsed, code, rss = spawn(score_argv(self.inputs, self.files), self.files)
        if code != 0:
            self.record([f"sure-eval score exited {code}: {self.files.stderr.read_text(errors='replace')[-500:]}"])
        elif digest(self.files.out.read_bytes()) != self.reference_digest:
            self.record(["sure-eval score wrote a report that differs from the verified report"])
        else:
            self.record([])
        self.files.out.unlink(missing_ok=True)
        return elapsed, rss

    def library_child(self) -> float:
        """One ``lib_s`` sample, timed inside a fresh child process."""
        w, enrolled = self.inputs.workload, self.inputs.enrolled
        argv = [sys.executable, str(HERE / "library_child.py"), w.name, str(self.files.structure.parent), "-" if enrolled is None else str(enrolled)]
        elapsed, code, _ = spawn(argv, self.files)
        if code != 0:
            self.record([f"library child exited {code}: {self.files.stderr.read_text(errors='replace')[-500:]}"])
            return elapsed
        result = json.loads(self.files.stdout.read_text())
        problems = []
        if result["digest"] != self.reference_digest:
            problems.append("library child's report differs from the verified report")
        if not result["roundtrip_ok"]:
            problems.append("parse_report did not return the report that was rendered")
        self.record(problems)
        return result["seconds"]

    def child(self, argv: list[str]) -> float:
        elapsed, code, _ = spawn(argv, self.files)
        self.record([f"{' '.join(argv[1:])} exited {code}"] if code != 0 else [])
        return elapsed

    def check_child(self) -> float:
        return self.child(check_argv(self.files))


def timed_run(run: Run, seconds: float) -> dict[str, list[float]]:
    """Alternate CLI and library operations for ``seconds``; return every sample.

    The verified library run comes first and is not timed. A round is the
    ``check`` children and one CLI or library operation. A round starts only
    if a round as long as the last one still ends within ``seconds``, so a
    run does not overrun its time, except that it always holds at least one
    CLI and one library operation.
    """
    samples: dict[str, list[float]] = {"wall_s": [], "lib_s": [], "setup_s": [], "peak_rss_mb": []}
    run.verified_library_op()
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    while not samples["wall_s"] or time.perf_counter() + last_round <= deadline:
        started = time.perf_counter()
        for _ in range(CHECKS_PER_OPERATION):
            samples["setup_s"].append(run.check_child())
        if len(samples["wall_s"]) < len(samples["lib_s"]):
            wall, rss = run.score_child()
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
        else:
            samples["lib_s"].append(run.library_child())
        last_round = time.perf_counter() - started
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        samples["setup_s"].append(run.check_child())
    return samples


class Spans:
    """Spans kept in memory: name, start, end, parent span and operation id."""

    def __init__(self):
        self.records: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.records), "name": name,
            "op": parent["op"] if op is None else op,
            "parent": None if parent is None else parent["id"],
            "start": time.perf_counter(), "end": None,
        }
        self.records.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def stage(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_time(self, record: dict) -> float:
        """Duration minus the part of it covered by child spans."""
        covered, last = 0.0, record["start"]
        for start, end in sorted((c["start"], c["end"]) for c in self.records if c["parent"] == record["id"]):
            start = max(start, last)
            if end > start:
                covered += end - start
                last = end
        return record["end"] - record["start"] - covered

    def self_times(self, op: int) -> dict[str, float]:
        return {r["name"]: self.self_time(r) for r in self.records if r["op"] == op}


def memory_peaks(inputs: Inputs) -> tuple[dict[str, float], Outcome]:
    """tracemalloc peak of each measured stage above what was live when it began."""
    peaks: dict[str, float] = {}

    def stage(name, fn, *args, **kwargs):
        if name not in PEAK_METRICS:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            peaks[PEAK_METRICS[name]] = tracemalloc.get_traced_memory()[1] / MB
        finally:
            tracemalloc.stop()
        return result

    gc.collect()
    return peaks, library_op(inputs, stage)


def traced_run(run: Run, spans: Spans) -> dict[str, float]:
    """The per-layer metrics of one workload.

    Untraced and traced library runs alternate ``TRACE_REPEATS`` times. A
    stage's time is the median of its span self times, ``trace.stages_s``
    the median over traced runs of their summed stage self times, and the
    tracing overhead the median traced run minus the median untraced run.
    """
    inputs, truth = run.inputs, run.inputs.truth
    untraced, traced, self_times, stage_sums = [run.verified_library_op()], [], {}, []
    for op in range(1, TRACE_REPEATS + 1):
        if op > 1:
            untraced.append(run.library_sample())
        gc.collect()
        with spans.span("library", op) as root:
            outcome = library_op(inputs, spans.stage)
        traced.append(root["end"] - root["start"])
        run.record(run.output_problems(outcome))
        with spans.span("extra", op):
            spans.stage("questionnaire.validate", sure_eval.validate_questionnaire, outcome.questionnaire, outcome.structure)
            spans.stage("scoring.aggregate", sure_eval.aggregate_scores, outcome.scores, outcome.structure)
        op_times = spans.self_times(op)
        for name, seconds in op_times.items():
            self_times.setdefault(name, []).append(seconds)
        stage_sums.append(sum(op_times.get(name, 0.0) for name in LIBRARY_STAGES))
        if op < TRACE_REPEATS:
            del outcome  # free it outside the next operation's timing
    stage_s = {name: statistics.median(xs) for name, xs in self_times.items()}
    lib_s = statistics.median(untraced)

    responses, report = outcome.responses, outcome.report
    demographics = inputs.workload.demographics
    retained = [truth.demographics[i] for i in truth.retained()]
    parsed_demographics = [tuple(p.demographics[name] for name in demographics) for p in responses.participants]
    rows = len(truth.ids)
    metrics = {
        "goal_structure.parse_s": stage_s["goal_structure.parse"],
        "questionnaire.parse_s": stage_s["questionnaire.parse"],
        "questionnaire.validate_s": stage_s["questionnaire.validate"],
        "ingest.parse_s": stage_s["ingest.parse"],
        "ingest.rows": rows,
        "ingest.cells": rows * (1 + len(demographics) + len(truth.question_ids)),
        "ingest.bytes": len(inputs.responses),
        "ingest.rows_per_s": rows / stage_s["ingest.parse"],
        "ingest.retained_ratio": len(responses.participants) / rows,
        "ingest.warnings": len(responses.warnings),
        "ingest.rows_misread": sum(1 for got, want in zip(parsed_demographics, retained) if got != want),
        "scoring.score_all_s": stage_s["scoring.score_all"],
        "scoring.aggregate_s": stage_s["scoring.aggregate"],
        "scoring.participants": len(outcome.scores),
        "scoring.values": len(outcome.scores) * (1 + len(truth.tree) + len(truth.questions)),
        "report.build_s": stage_s["report.build"],
        "report.groups": sum(len(by) for by in (report.groups or {}).values()),
        "report.render_s": stage_s["report.render"],
        "report.bytes_out": len(outcome.data),
        "report.parse_report_s": stage_s.get("report.parse_report", 0.0),
        "trace.lib_s": lib_s,
        "trace.stages_s": statistics.median(stage_sums),
        "trace.overhead_s": statistics.median(traced) - lib_s,
    }
    del outcome, responses, report

    op = TRACE_REPEATS + 1
    with spans.span("memory", op):
        peaks, outcome = memory_peaks(inputs)
    run.record(run.output_problems(outcome))
    metrics.update(peaks)
    del outcome

    walls = []
    for _ in range(TRACE_REPEATS):
        with spans.span("cli.score", op + 1):
            walls.append(run.score_child()[0])
    metrics["cli.overhead_s"] = statistics.median(walls) - sum(stage_s[name] for name in CLI_STAGES)

    imports, bare = [], []
    for _ in range(IMPORT_SAMPLES):
        with spans.span("cli.import", op + 2):
            imports.append(run.child([sys.executable, "-c", "import sure_eval"]))
        with spans.span("cli.bare", op + 2):
            bare.append(run.child([sys.executable, "-c", "pass"]))
    metrics["cli.import_s"] = statistics.median(imports) - statistics.median(bare)
    return metrics


# --- output -----------------------------------------------------------------


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return f"nproc={os.cpu_count()} python={platform.python_version()} loadavg={load}"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, rows: int | None = None) -> tuple[list[str], dict]:
    """Run one workload; return the report lines and the result object."""
    spec = load_benchmark()
    inputs = workloads.build(workload, seed, rows)
    lines = [
        f"workload {workload.name} seed {seed} rows {len(inputs.truth.ids)} format {workload.format} trace {int(trace)}",
        f"env start {environment()}",
    ]
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        run = Run(inputs, write_files(inputs, directory), seed)
        if trace:
            spans = Spans()
            values = traced_run(run, spans)
            wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            (WORK / "spans").mkdir(exist_ok=True)
            (WORK / "spans" / f"{workload.name}-seed{seed}.json").write_text(json.dumps(spans.records))
            gap = values["trace.lib_s"] - values["trace.stages_s"]
            lines.append(
                f"trace: stage self times sum to {values['trace.stages_s']:.4f} s, untraced lib_s is {values['trace.lib_s']:.4f} s, "
                f"tracing overhead {values['trace.overhead_s']:+.4f} s (medians of {TRACE_REPEATS}; {len(spans.records)} spans); "
                f"stages account for lib_s within the overhead: {'yes' if abs(gap) <= abs(values['trace.overhead_s']) + 1e-3 else 'no'}"
            )
        else:
            samples = timed_run(run, seconds)
            values = {name: statistics.median(xs) for name, xs in samples.items()}
            wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
            for name, xs in samples.items():
                lines.append(f"{name} samples={len(xs)}: {' '.join(f'{x:.4f}' for x in xs)}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted}
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [
        f"failed_ratio {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} operations)",
        f"correct {'yes' if not run.problems else 'NO'}",
        f"env end {environment()}",
    ]
    lines += [f"problem: {p}" for p in run.problems[:20]]
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    return lines, result


def load_program() -> list[str]:
    """Import sure_eval from this checkout's ``src``; return the missing files if it cannot."""
    global sure_eval
    missing = [str(p) for p in (SRC / "sure_eval" / "__init__.py", ROOT / "tests" / "oracle.py", ROOT / "BENCHMARK.json") if not p.is_file()]
    if not missing:
        sys.path.insert(0, str(SRC))
        import sure_eval
    return missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = load_program()
    if missing:
        print(f"error: not a sure-eval source checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    lines, result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
