"""One ``lib_s`` sample: the library operation, timed in a fresh process.

Usage (from the root of a source checkout; ``run.py`` starts it):

    python3 perfbench/library_child.py WORKLOAD DIRECTORY ENROLLED

Imports ``sure_eval`` from the checkout's ``src``, reads the inputs that
``run.py`` wrote to DIRECTORY into memory, runs ``gc.collect()`` and times
one library operation, as a program embedding sure-eval would run it. A
fresh process gives every sample the same heap: in the benchmark's own
process, which holds the generator's truth and earlier reports, the same
operation drifted by up to 30% within one run. Prints one JSON object:
``seconds``, the report's ``digest`` (sha256) and ``roundtrip_ok``, whether
``parse_report`` gave back the rendered report (true when not called).
ENROLLED is ``-`` for workloads without ``--enrolled``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import run
import workloads


def main(argv: list[str]) -> int:
    name, directory, enrolled = argv
    directory = Path(directory)
    if run.load_program():
        return 2
    inputs = SimpleNamespace(
        workload=workloads.WORKLOADS[name],
        structure=(directory / "structure.json").read_bytes(),
        questionnaire=(directory / "questionnaire.json").read_bytes(),
        responses=(directory / "responses.csv").read_bytes(),
        enrolled=None if enrolled == "-" else int(enrolled),
    )
    gc.collect()
    start = time.perf_counter()
    outcome = run.library_op(inputs)
    elapsed = time.perf_counter() - start
    roundtrip_ok = outcome.parsed is None or outcome.parsed == outcome.report
    print(json.dumps({"seconds": elapsed, "digest": run.digest(outcome.data), "roundtrip_ok": roundtrip_ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
