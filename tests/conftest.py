from __future__ import annotations

import warnings
from contextlib import suppress

import pytest

# Hypothesis's pytest plugin imports this module, and with it libcst where that
# is installed, to report a failing property. Under -W error, libcst's TypedDict
# classes raise mypy_extensions' DeprecationWarning at that import, and pytest
# ends in INTERNALERROR instead of printing the falsifying example. Importing it
# once here, with that warning ignored, lets the report run.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from sure_eval import data as bundled
from sure_eval.goal_structure import parse_structure
from sure_eval.ingest import parse_responses
from sure_eval.questionnaire import parse_questionnaire


@pytest.fixture(scope="session")
def structure():
    return parse_structure(bundled.online_course_structure())


@pytest.fixture(scope="session")
def questionnaire():
    return parse_questionnaire(bundled.online_course_questionnaire())


@pytest.fixture(scope="session")
def responses_bytes():
    return bundled.online_course_responses()


@pytest.fixture()
def responses(responses_bytes, questionnaire):
    return parse_responses(responses_bytes, questionnaire, demographics=["gender"])


@pytest.fixture()
def sample_files(tmp_path, responses_bytes):
    """The bundled sample copied to disk for CLI runs."""
    structure_path = tmp_path / "structure.json"
    questionnaire_path = tmp_path / "questionnaire.json"
    responses_path = tmp_path / "responses.csv"
    structure_path.write_bytes(bundled.online_course_structure())
    questionnaire_path.write_bytes(bundled.online_course_questionnaire())
    responses_path.write_bytes(responses_bytes)
    return structure_path, questionnaire_path, responses_path
