"""Every fenced python block of README.md runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# Each block's source, and the README line its first line is on.
BLOCKS = [(match["source"], TEXT.count("\n", 0, match.start("source")) + 1) for match in re.finditer(r"^```python\n(?P<source>.*?)^```$", TEXT, re.M | re.S)]


def test_the_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("source, line", BLOCKS, ids=[f"line-{line}" for _, line in BLOCKS])
def test_a_readme_python_block_runs(source, line, capsys):
    # Padded with blank lines, so that a traceback names the README's own line; capsys holds what the block prints, under -s too.
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "__readme__"})
