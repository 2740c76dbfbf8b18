"""Structure-oriented (SURE) evaluation toolkit.

Defines and validates key-goal/sub-goal structures, generates and checks
questionnaires, ingests survey responses, computes the four SURE score
levels (general, per key goal, per sub goal, per participant), and renders
reports.
"""

from .errors import (
    InvalidQuestionnaireError,
    InvalidStructureError,
    NoDataError,
    NotConfirmedError,
    ReportError,
    ResponseError,
    SchemaError,
    SureError,
    Violation,
)
from .goal_structure import (
    STATUS_CONFIRMED,
    STATUS_DRAFT,
    Confirmation,
    GoalStructure,
    KeyGoal,
    SubGoal,
    confirm_structure,
    parse_structure,
    serialize_structure,
    validate_structure,
)
from .questionnaire import (
    Question,
    Questionnaire,
    Scale,
    ScaleLevel,
    default_scale,
    generate_template,
    parse_questionnaire,
    render_questionnaire,
    serialize_questionnaire,
    validate_questionnaire,
)


# The rest of the public names, by module, imported on first use (PEP 562):
# commands that only read the documents do not import the ingest, scoring
# and report modules, nor csv, decimal and datetime.
_LAZY = {
    "ingest": ("MissingPolicy", "ParticipantRecord", "ParticipantTable", "ResponseSet", "normalize", "parse_responses"),
    "report": ("Participation", "ScoreReport", "build_report", "parse_report", "participation_rate", "render_report"),
    "scoring": ("AggregateScores", "ParticipantScore", "ScoreTable", "aggregate_scores", "key_goal_score", "participant_score", "score_all", "sub_goal_score"),
    "simulate": ("simulate_responses",),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_MODULE_OF} - {"__getattr__", "__dir__", "_LAZY", "_MODULE_OF"})


__version__ = "0.1.0"

__all__ = [
    "AggregateScores",
    "Confirmation",
    "GoalStructure",
    "InvalidQuestionnaireError",
    "InvalidStructureError",
    "KeyGoal",
    "MissingPolicy",
    "NoDataError",
    "NotConfirmedError",
    "ParticipantRecord",
    "ParticipantScore",
    "ParticipantTable",
    "Participation",
    "Question",
    "Questionnaire",
    "ReportError",
    "ResponseError",
    "ResponseSet",
    "Scale",
    "ScaleLevel",
    "SchemaError",
    "ScoreReport",
    "ScoreTable",
    "STATUS_CONFIRMED",
    "STATUS_DRAFT",
    "SubGoal",
    "SureError",
    "Violation",
    "aggregate_scores",
    "build_report",
    "confirm_structure",
    "default_scale",
    "generate_template",
    "key_goal_score",
    "normalize",
    "parse_questionnaire",
    "parse_report",
    "parse_responses",
    "parse_structure",
    "participant_score",
    "participation_rate",
    "render_questionnaire",
    "render_report",
    "score_all",
    "serialize_questionnaire",
    "serialize_structure",
    "simulate_responses",
    "sub_goal_score",
    "validate_questionnaire",
    "validate_structure",
]
