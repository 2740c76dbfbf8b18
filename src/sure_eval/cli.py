"""Command-line front end.

Exit codes come from one table in ``main``:

* 0: success.
* 1: validation failures reported: structure violations under ``validate``,
  questionnaire violations under ``check``, a draft structure
  (``NotConfirmedError``) or no participant left to score (``NoDataError``).
* 2: input or parse error: any other ``SureError``, including questionnaire
  violations under ``score``/``simulate``, a file that cannot be read or
  written, and a report or summary line that stdout does not take (a
  closed pipe).
* 3: internal error: any other exception.

Violations print one per line on stderr; every other failure prints one
``error:`` line. Reports go to stdout (or --out) so output can be piped.
Files are written atomically (temp file then rename) so an error never
leaves a partial report behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from pathlib import Path

from .errors import InvalidStructureError, NoDataError, NotConfirmedError, SchemaError, SureError
from .goal_structure import parse_structure
from .ingest import MissingPolicy, parse_responses
from .questionnaire import (
    generate_template,
    parse_questionnaire,
    serialize_questionnaire,
    validate_questionnaire,
)
from .report import RENDER_FORMATS, build_report, render_report
from .scoring import score_all
from .simulate import simulate_responses

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# The first matching row picks the exit code of a SureError that reaches main.
_EXIT_CODES = (
    (NotConfirmedError, EXIT_VIOLATIONS),
    (NoDataError, EXIT_VIOLATIONS),
    (SureError, EXIT_INPUT),
)

_POLICIES = {
    "exclude": MissingPolicy.EXCLUDE_PARTICIPANT,
    "zero": MissingPolicy.TREAT_AS_ZERO,
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _names(text: str) -> list[str]:
    return [name for name in text.split(",") if name]


def _read(path: str, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read {what} {path!r}: {exc}") from exc


def _write_atomic(path: str, data: bytes, what: str) -> None:
    target = Path(path)
    tmp = target.parent / f".{target.name}.{os.urandom(6).hex()}"
    try:
        # Mode 0o666 less the umask, as open() gives a new file; mkstemp's
        # 0o600 would survive the rename.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, target)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:  # strerror only: str(exc) would name the random temp file
        raise SchemaError(f"cannot write {what} {path!r}: {exc.strerror or exc}") from exc


def _write_stdout(data: bytes, what: str) -> None:
    try:
        rest = memoryview(data)
        while rest:  # a pipe closed during a write can end it short with no error; writing the rest raises one
            rest = rest[sys.stdout.buffer.write(rest):]
        sys.stdout.buffer.flush()
    except OSError as exc:
        raise SchemaError(f"cannot write {what} to stdout: {exc.strerror or exc}") from exc


def _report_violations(violations, code: int) -> int:
    for violation in violations:
        print(str(violation), file=sys.stderr)
    return code


def _documents(args: argparse.Namespace):
    """Parse the structure and questionnaire; return both and the questionnaire's violations."""
    structure = parse_structure(_read(args.structure, "goal structure"))
    questionnaire = parse_questionnaire(_read(args.questionnaire, "questionnaire"))
    return structure, questionnaire, validate_questionnaire(questionnaire, structure)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        parse_structure(_read(args.structure, "goal structure"))
    except InvalidStructureError as exc:
        return _report_violations(exc.violations, EXIT_VIOLATIONS)
    return EXIT_OK


def cmd_template(args: argparse.Namespace) -> int:
    questionnaire = generate_template(parse_structure(_read(args.structure, "goal structure")))
    _write_atomic(args.out, serialize_questionnaire(questionnaire), "questionnaire")
    _write_stdout(b"%d questions\n" % len(questionnaire.questions), "summary")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    _, _, violations = _documents(args)
    return _report_violations(violations, EXIT_VIOLATIONS) if violations else EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    structure, questionnaire, violations = _documents(args)
    if violations:
        return _report_violations(violations, EXIT_INPUT)
    responses = parse_responses(
        _read(args.responses, "response CSV"),
        questionnaire,
        demographics=args.demographics,
        policy=_POLICIES[args.policy],
    )
    for warning in responses.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    scores, aggregates = score_all(responses, questionnaire, structure)
    report = build_report(
        scores,
        aggregates,
        structure,
        responses,
        participation=(len(responses.participants), args.enrolled) if args.enrolled is not None else None,
        group_by=args.group_by or None,
        generated_at="" if args.reproducible else None,
    )
    data = render_report(report, args.format)
    if args.out:
        _write_atomic(args.out, data, "report")
    else:
        _write_stdout(data, "report")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.participants < 1:
        _fail("--participants must be at least 1")
        return EXIT_INPUT
    _, questionnaire, violations = _documents(args)
    if violations:
        return _report_violations(violations, EXIT_INPUT)
    _write_atomic(args.out, simulate_responses(questionnaire, args.participants, args.seed), "response CSV")
    _write_stdout(b"wrote %d participants to %s\n" % (args.participants, os.fsencode(args.out)), "summary")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sure-eval",
        description="Structure-oriented evaluation: validate goal structures, build questionnaires, score responses, render reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a goal-structure file")
    p.add_argument("structure")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("template", help="generate a questionnaire template from a confirmed structure")
    p.add_argument("structure")
    p.add_argument("out")
    p.set_defaults(func=cmd_template)

    p = sub.add_parser("check", help="validate a questionnaire against its goal structure")
    p.add_argument("structure")
    p.add_argument("questionnaire")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("score", help="score a response CSV and render the report")
    p.add_argument("structure")
    p.add_argument("questionnaire")
    p.add_argument("responses")
    p.add_argument("--policy", choices=sorted(_POLICIES), default="exclude", help="missing-answer policy (default: exclude)")
    p.add_argument("--demographics", type=_names, default="", help="comma-separated demographic column names")
    p.add_argument("--enrolled", type=int, default=None, help="enrolled head count for the participation rate")
    p.add_argument("--group-by", type=_names, default="", help="comma-separated demographic keys to break down by")
    p.add_argument("--format", choices=RENDER_FORMATS, default="markdown")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--reproducible", action="store_true", help="omit the timestamp so identical inputs yield identical bytes")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("simulate", help="write a deterministic synthetic response CSV")
    p.add_argument("structure")
    p.add_argument("questionnaire")
    p.add_argument("out")
    p.add_argument("--participants", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SureError as exc:
        _fail(str(exc))
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 3
        _fail(f"internal error: {exc!r}")
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())
