from __future__ import annotations

import pytest
from mutants import CATALOGUE, ROOT


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[mutant.name for mutant in CATALOGUE])
def test_each_mutants_old_text_occurs_once_in_its_file(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
