from __future__ import annotations

import subprocess
import sys
from pathlib import Path


def test_the_reports_of_the_sample_and_the_workloads_keep_their_digests():
    result = subprocess.run([sys.executable, str(Path(__file__).with_name("parity.py"))], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, ""), result.stdout
