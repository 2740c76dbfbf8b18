"""Byte parity of the reports: render fixed inputs in every format and compare their sha256 digests with tests/parity.sha256.

Usage, from anywhere, on any supported Python (only the standard library
and this checkout's ``src`` are imported; pytest does not collect it):

    python tests/parity.py           # exit 1, naming each render that differs
    python tests/parity.py --update  # rewrite tests/parity.sha256 from this tree

The inputs are the bundled sample, with the golden reports' arguments, and
the two benchmark workloads (``perfbench/workloads.py``, seed 1, 2,000
rows), with the arguments the benchmark gives ``sure-eval score``
(``perfbench/run.py``). Each is rendered as markdown, json and csv by the
command line, in this process. Each json report is then read back with
parse_report, and must render the same bytes again in all three formats.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  perfbench/run.py
import workloads  # noqa: E402  perfbench/workloads.py
from sure_eval import cli, data, parse_report, render_report  # noqa: E402

DIGESTS = Path(__file__).with_name("parity.sha256")
GOLDEN_ARGS = ["--demographics", "gender", "--group-by", "gender", "--enrolled", "20", "--reproducible"]
WORKLOAD_SEED, WORKLOAD_ROWS = 1, 2000
SUFFIXES = {"markdown": "md", "json": "json", "csv": "csv"}


def score_argvs(directory: Path) -> dict[str, list[str]]:
    """The score command's arguments for each input, by name, with the input files written under directory."""
    sample = directory / "online_course"
    sample.mkdir()
    paths = [sample / "structure.json", sample / "questionnaire.json", sample / "responses.csv"]
    for path, document in zip(paths, (data.online_course_structure(), data.online_course_questionnaire(), data.online_course_responses())):
        path.write_bytes(document)
    argvs = {"online_course": ["score", *map(str, paths), "--format", "json", "--out", str(sample / "report.out"), *GOLDEN_ARGS]}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workloads.build(workload, WORKLOAD_SEED, rows=WORKLOAD_ROWS)
        (directory / name).mkdir()
        argvs[name] = run.score_argv(inputs, run.write_files(inputs, directory / name))[3:]  # less the interpreter and "-m sure_eval"
    return argvs


def renders() -> dict[str, bytes]:
    """Every input's report in every format, by file name, as `sure-eval score` writes it."""
    rendered = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in score_argvs(Path(tmp)).items():
            out = Path(argv[argv.index("--out") + 1])
            for format, suffix in SUFFIXES.items():
                argv[argv.index("--format") + 1] = format
                with redirect_stderr(io.StringIO()):  # the exclude policy's warnings
                    code = cli.main(argv)
                if code:
                    raise SystemExit(f"{name}: sure-eval score --format {format} exited with {code}")
                rendered[f"{name}.{suffix}"] = out.read_bytes()
    return rendered


def main(argv: list[str]) -> int:
    rendered = renders()
    failures = []
    for name in [name for name in rendered if name.endswith(".json")]:
        report = parse_report(rendered[name])
        for format, suffix in SUFFIXES.items():
            again = f"{name[: -len('.json')]}.{suffix}"
            if render_report(report, format) != rendered[again]:
                failures.append(f"{again}: the report read back from {name} renders other bytes")
    digests = {name: hashlib.sha256(document).hexdigest() for name, document in rendered.items()}
    if argv == ["--update"]:
        DIGESTS.write_text("".join(f"{digest}  {name}\n" for name, digest in digests.items()))
    expected = {name: digest for digest, name in (line.split("  ") for line in DIGESTS.read_text().splitlines())}
    failures += [f"{name}: sha256 {digests.get(name)}, expected {expected.get(name)}" for name in {**expected, **digests} if digests.get(name) != expected.get(name)]
    print("\n".join(failures) or f"{len(digests)} renders match {DIGESTS.name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
