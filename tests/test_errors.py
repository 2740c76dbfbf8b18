from __future__ import annotations

import copy
import pickle

import pytest

from sure_eval.errors import InvalidQuestionnaireError, InvalidStructureError, Violation


def pickled(error):
    return pickle.loads(pickle.dumps(error))


@pytest.mark.parametrize("error_type", [InvalidStructureError, InvalidQuestionnaireError])
@pytest.mark.parametrize("duplicate", [pickled, copy.copy], ids=["pickle", "copy"])
def test_violations_error_survives_pickle_and_copy(error_type, duplicate):
    error = error_type([Violation("a", "b", "c"), Violation("duplicate_id", "$.key_goals[1]", "id B1 repeats")])
    again = duplicate(error)
    assert type(again) is error_type
    assert str(again) == str(error)
    assert again.violations == error.violations
