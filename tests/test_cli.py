from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import sure_eval
from sure_eval.cli import main
from sure_eval.report import parse_report


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate -----------------------------------------------------------------


def test_validate_sample(sample_files, capsys):
    structure, _, _ = sample_files
    code, out, err = run(capsys, "validate", structure)
    assert code == 0
    assert err == ""


def test_validate_duplicate_id(sample_files, tmp_path, capsys):
    structure, _, _ = sample_files
    doc = json.loads(structure.read_text())
    doc["key_goals"][1]["sub_goals"][0]["id"] = "A11"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", bad)
    assert code == 1
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("duplicate_id: ")


def test_validate_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, "validate", tmp_path / "nope.json")
    assert code == 2
    assert "error:" in err


def test_validate_garbled_file(tmp_path, capsys):
    bad = tmp_path / "garbled.json"
    bad.write_bytes(b"{not json")
    code, out, err = run(capsys, "validate", bad)
    assert code == 2
    assert "line 1" in err


# --- template -----------------------------------------------------------------


def test_template_writes_questionnaire(sample_files, tmp_path, capsys):
    structure, questionnaire, _ = sample_files
    out_path = tmp_path / "generated.json"
    code, out, err = run(capsys, "template", structure, out_path)
    assert code == 0
    assert out.strip() == "20 questions"
    assert out_path.read_bytes() == questionnaire.read_bytes()  # bundled file is the template


def test_template_refuses_draft(sample_files, tmp_path, capsys):
    structure, _, _ = sample_files
    doc = json.loads(structure.read_text())
    doc["status"] = "draft"
    doc["confirmation"] = None
    draft = tmp_path / "draft.json"
    draft.write_text(json.dumps(doc))
    out_path = tmp_path / "generated.json"
    code, out, err = run(capsys, "template", draft, out_path)
    assert code == 1
    assert "structure_not_confirmed" in err
    assert not out_path.exists()  # no partial output on failure


# --- check --------------------------------------------------------------------


def test_check_sample(sample_files, capsys):
    structure, questionnaire, _ = sample_files
    code, out, err = run(capsys, "check", structure, questionnaire)
    assert code == 0


def test_check_uncovered_sub_goal(sample_files, tmp_path, capsys):
    structure, questionnaire, _ = sample_files
    doc = json.loads(questionnaire.read_text())
    doc["questions"] = [q for q in doc["questions"] if q["sub_goal"] != "A26"]
    pruned = tmp_path / "pruned.json"
    pruned.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", structure, pruned)
    assert code == 1
    assert "uncovered_sub_goal" in err and "A26" in err


# --- score --------------------------------------------------------------------


def test_score_json_matches_oracle(sample_files, capsys):
    structure, questionnaire, responses = sample_files
    code, out, err = run(
        capsys, "score", structure, questionnaire, responses,
        "--demographics", "gender", "--format", "json", "--reproducible",
    )
    assert code == 0
    report = json.loads(out)
    # frozen from tests/oracle.py run over the bundled CSV (exclude policy)
    assert report["general"] == 0.7142097751040839
    assert report["distribution"]["n"] == 9
    assert report["distribution"]["n_max"] == 2
    assert report["distribution"]["n_zero"] == 2
    assert "S004" in err and "excluded" in err


def test_score_participation_and_groups(sample_files, capsys):
    structure, questionnaire, responses = sample_files
    code, out, err = run(
        capsys, "score", structure, questionnaire, responses,
        "--demographics", "gender", "--group-by", "gender",
        "--enrolled", "20", "--format", "json", "--reproducible",
    )
    assert code == 0
    report = json.loads(out)
    assert report["participation"] == {"respondents": 9, "enrolled": 20, "rate_percent": 45.0}
    assert report["groups"]["gender"]["F"]["n"] == 6
    assert report["groups"]["gender"]["M"]["n"] == 3


def test_score_writes_out_file(sample_files, tmp_path, capsys):
    structure, questionnaire, responses = sample_files
    out_path = tmp_path / "report.md"
    code, out, err = run(
        capsys, "score", structure, questionnaire, responses,
        "--demographics", "gender", "--reproducible", "--out", out_path,
    )
    assert code == 0
    assert out == ""
    assert out_path.read_bytes().startswith(b"# Evaluation report:")


def test_score_zero_policy_keeps_all_rows(sample_files, capsys):
    structure, questionnaire, responses = sample_files
    code, out, err = run(
        capsys, "score", structure, questionnaire, responses,
        "--demographics", "gender", "--policy", "zero", "--format", "json", "--reproducible",
    )
    assert code == 0
    assert json.loads(out)["distribution"]["n"] == 10
    assert "treated as 0" in err


def test_score_missing_column(sample_files, tmp_path, capsys):
    structure, questionnaire, responses = sample_files
    lines = responses.read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("Q_A26")
    trimmed = "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines)
    bad = tmp_path / "missing_column.csv"
    bad.write_text(trimmed + "\n")
    code, out, err = run(capsys, "score", structure, questionnaire, bad, "--demographics", "gender")
    assert code == 2
    assert "Q_A26" in err


def test_score_out_of_range_cell(sample_files, tmp_path, capsys):
    structure, questionnaire, responses = sample_files
    bad = tmp_path / "range.csv"
    bad.write_text(responses.read_text().replace("S005,M,2", "S005,M,7", 1))
    code, out, err = run(capsys, "score", structure, questionnaire, bad, "--demographics", "gender")
    assert code == 2
    assert "out of range" in err and "row 6" in err and "Q_A11" in err


def test_score_duplicate_participant(sample_files, tmp_path, capsys):
    structure, questionnaire, responses = sample_files
    bad = tmp_path / "dupe.csv"
    bad.write_text(responses.read_text().replace("S010,", "S001,", 1))
    code, out, err = run(capsys, "score", structure, questionnaire, bad, "--demographics", "gender")
    assert code == 2
    assert "duplicate participant_id" in err and "S001" in err


def test_score_empty_response_set(sample_files, tmp_path, capsys):
    structure, questionnaire, responses = sample_files
    header_only = tmp_path / "empty.csv"
    header_only.write_text(responses.read_text().splitlines()[0] + "\n")
    code, out, err = run(capsys, "score", structure, questionnaire, header_only, "--demographics", "gender")
    assert code == 1
    assert "no_data" in err


def test_score_zero_byte_file(sample_files, tmp_path, capsys):
    structure, questionnaire, _ = sample_files
    empty = tmp_path / "zero.csv"
    empty.write_bytes(b"")
    code, out, err = run(capsys, "score", structure, questionnaire, empty)
    assert code == 2
    assert "empty response file" in err


def test_score_unknown_group_key(sample_files, capsys):
    structure, questionnaire, responses = sample_files
    code, out, err = run(
        capsys, "score", structure, questionnaire, responses,
        "--demographics", "gender", "--group-by", "program",
    )
    assert code == 2
    assert "program" in err


def test_score_json_reproducible_round_trip(sample_files, capsys):
    structure, questionnaire, responses = sample_files
    args = ("score", structure, questionnaire, responses, "--demographics", "gender",
            "--format", "json", "--reproducible")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    report = parse_report(out_a.encode())
    assert report.generated_at == ""


def test_score_without_reproducible_has_timestamp(sample_files, capsys):
    structure, questionnaire, responses = sample_files
    code, out, err = run(
        capsys, "score", structure, questionnaire, responses,
        "--demographics", "gender", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["generated_at"] != ""


# --- simulate -------------------------------------------------------------------


def test_simulate_deterministic(sample_files, tmp_path, capsys):
    structure, questionnaire, _ = sample_files
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run(capsys, "simulate", structure, questionnaire, a, "--participants", "10", "--seed", "1")
    code2, _, _ = run(capsys, "simulate", structure, questionnaire, b, "--participants", "10", "--seed", "1")
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_single_row(sample_files, tmp_path, capsys):
    structure, questionnaire, _ = sample_files
    out_path = tmp_path / "one.csv"
    code, out, err = run(capsys, "simulate", structure, questionnaire, out_path, "--participants", "1", "--seed", "3")
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 2


def test_simulate_rejects_zero_participants(sample_files, tmp_path, capsys):
    structure, questionnaire, _ = sample_files
    code, out, err = run(capsys, "simulate", structure, questionnaire, tmp_path / "x.csv", "--participants", "0")
    assert code == 2
    assert "at least 1" in err


def test_simulate_feeds_score(sample_files, tmp_path, capsys):
    structure, questionnaire, _ = sample_files
    generated = tmp_path / "gen.csv"
    run(capsys, "simulate", structure, questionnaire, generated, "--participants", "25", "--seed", "11")
    code, out, err = run(capsys, "score", structure, questionnaire, generated, "--format", "json", "--reproducible")
    assert code == 0
    assert json.loads(out)["distribution"]["n"] == 25


# --- exit-code hygiene ------------------------------------------------------------


def test_internal_errors_exit_three(sample_files, capsys, monkeypatch):
    structure, questionnaire, responses = sample_files

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(sure_eval, "score_all", boom)
    code, out, err = run(capsys, "score", structure, questionnaire, responses, "--demographics", "gender")
    assert code == 3
    assert "internal error" in err


# --- exit-code and stderr contract ---------------------------------------------

DUPLICATE_ID = "duplicate_id: $.key_goals[1].sub_goals[0]: id 'A11' is already used"
UNCOVERED = (
    "uncovered_sub_goal: $.questions: sub goal 'A11' has no question\n"
    "uncovered_sub_goal: $.questions: sub goal 'A26' has no question\n"
)
EXCLUDED_S004 = "warning: participant 'S004' excluded: missing answers for Q_A26\n"
NOT_JSON = "is not valid JSON: Expecting property name enclosed in double quotes (line 1, column 2)"


@pytest.fixture()
def broken_inputs(sample_files):
    """Write one faulty variant of each sample file next to the sample."""
    structure, questionnaire, responses = sample_files
    folder = structure.parent
    doc = json.loads(structure.read_text())
    doc["key_goals"][1]["sub_goals"][0]["id"] = "A11"
    (folder / "invalid.json").write_text(json.dumps(doc))
    doc = json.loads(structure.read_text())
    doc["status"] = "draft"
    doc["confirmation"] = None
    (folder / "draft.json").write_text(json.dumps(doc))
    doc = json.loads(questionnaire.read_text())
    doc["questions"] = [q for q in doc["questions"] if q["sub_goal"] not in ("A11", "A26")]
    (folder / "uncovered.json").write_text(json.dumps(doc))
    (folder / "garbled.json").write_bytes(b"{not json")
    (folder / "repeated.json").write_text(structure.read_text().replace('"title": ', '"title": "X", "title": ', 1))
    (folder / "repeated-q.json").write_text(questionnaire.read_text().replace('"code": 0', '"code": 1, "code": 0', 1))
    text = responses.read_text()
    (folder / "header.csv").write_text(text.splitlines()[0] + "\n")
    (folder / "zero.csv").write_bytes(b"")
    (folder / "range.csv").write_text(text.replace("S005,M,2", "S005,M,7", 1))
    (folder / "dupe.csv").write_text(text.replace("S010,", "S001,", 1))
    (folder / "huge.csv").write_text(text.replace("S005,", "S" * 200_000 + ",", 1))
    return folder


S, Q, R = "{tmp}/structure.json", "{tmp}/questionnaire.json", "{tmp}/responses.csv"
SIMULATE_OUT = ("{tmp}/sim.csv", "--participants", "3")

FAILURES = [
    # (id, argv, exit code, stderr); "{tmp}" is the folder holding the inputs
    ("validate-missing-file", ["validate", "{tmp}/nope.json"], 2,
     "error: cannot read goal structure '{tmp}/nope.json': [Errno 2] No such file or directory: '{tmp}/nope.json'\n"),
    ("validate-garbled", ["validate", "{tmp}/garbled.json"], 2, f"error: goal structure {NOT_JSON}\n"),
    ("validate-invalid-structure", ["validate", "{tmp}/invalid.json"], 1, f"{DUPLICATE_ID}\n"),
    ("validate-repeated-name", ["validate", "{tmp}/repeated.json"], 2,
     "error: goal structure repeats the name 'title' in one object\n"),
    ("template-missing-structure", ["template", "{tmp}/nope.json", "{tmp}/q.json"], 2,
     "error: cannot read goal structure '{tmp}/nope.json': [Errno 2] No such file or directory: '{tmp}/nope.json'\n"),
    ("template-invalid-structure", ["template", "{tmp}/invalid.json", "{tmp}/q.json"], 2,
     f"error: goal structure has 1 violation(s): {DUPLICATE_ID}\n"),
    ("template-draft", ["template", "{tmp}/draft.json", "{tmp}/q.json"], 1,
     "error: structure_not_confirmed: confirm the goal structure before generating a template\n"),
    ("check-invalid-structure", ["check", "{tmp}/invalid.json", Q], 2,
     f"error: goal structure has 1 violation(s): {DUPLICATE_ID}\n"),
    ("check-missing-questionnaire", ["check", S, "{tmp}/nope.json"], 2,
     "error: cannot read questionnaire '{tmp}/nope.json': [Errno 2] No such file or directory: '{tmp}/nope.json'\n"),
    ("check-garbled-questionnaire", ["check", S, "{tmp}/garbled.json"], 2, f"error: questionnaire {NOT_JSON}\n"),
    ("check-uncovered", ["check", S, "{tmp}/uncovered.json"], 1, UNCOVERED),
    ("check-repeated-name", ["check", S, "{tmp}/repeated-q.json"], 2,
     "error: questionnaire repeats the name 'code' in one object\n"),
    ("score-invalid-structure", ["score", "{tmp}/invalid.json", Q, R], 2,
     f"error: goal structure has 1 violation(s): {DUPLICATE_ID}\n"),
    ("score-garbled-questionnaire", ["score", S, "{tmp}/garbled.json", R], 2, f"error: questionnaire {NOT_JSON}\n"),
    ("score-uncovered", ["score", S, "{tmp}/uncovered.json", R], 2, UNCOVERED),
    ("score-missing-responses", ["score", S, Q, "{tmp}/nope.csv"], 2,
     "error: cannot read response CSV '{tmp}/nope.csv': [Errno 2] No such file or directory: '{tmp}/nope.csv'\n"),
    ("score-zero-byte", ["score", S, Q, "{tmp}/zero.csv"], 2, "error: empty response file: no header row\n"),
    ("score-undeclared-demographic", ["score", S, Q, R], 2,
     "error: header mismatch: undeclared column(s): gender (row 1)\n"),
    ("score-out-of-range", ["score", S, Q, "{tmp}/range.csv", "--demographics", "gender"], 2,
     "error: answer 7 out of range 0..4 (row 6, column 'Q_A11')\n"),
    ("score-duplicate-participant", ["score", S, Q, "{tmp}/dupe.csv", "--demographics", "gender"], 2,
     "error: duplicate participant_id 'S001' (row 11, column 'participant_id')\n"),
    ("score-oversized-cell", ["score", S, Q, "{tmp}/huge.csv", "--demographics", "gender"], 2,
     "error: cannot read CSV record: field larger than field limit (131072) (row 6)\n"),
    ("score-header-only", ["score", S, Q, "{tmp}/header.csv", "--demographics", "gender"], 1,
     "error: no_data: zero retained participants\n"),
    ("score-unknown-group-key", ["score", S, Q, R, "--demographics", "gender", "--group-by", "program"], 2,
     EXCLUDED_S004 + "error: group_by key 'program' is not a declared demographic ('gender',)\n"),
    ("score-enrolled-below-respondents", ["score", S, Q, R, "--demographics", "gender", "--enrolled", "3"], 2,
     EXCLUDED_S004 + "error: enrolled (3) is smaller than respondents (9)\n"),
    ("score-enrolled-zero", ["score", S, Q, R, "--demographics", "gender", "--enrolled", "0"], 2,
     EXCLUDED_S004 + "error: enrolled count must be at least 1\n"),
    ("simulate-invalid-structure", ["simulate", "{tmp}/invalid.json", Q, *SIMULATE_OUT], 2,
     f"error: goal structure has 1 violation(s): {DUPLICATE_ID}\n"),
    ("simulate-missing-questionnaire", ["simulate", S, "{tmp}/nope.json", *SIMULATE_OUT], 2,
     "error: cannot read questionnaire '{tmp}/nope.json': [Errno 2] No such file or directory: '{tmp}/nope.json'\n"),
    ("simulate-uncovered", ["simulate", S, "{tmp}/uncovered.json", *SIMULATE_OUT], 2, UNCOVERED),
    ("simulate-zero-participants", ["simulate", S, Q, "{tmp}/sim.csv", "--participants", "0"], 2,
     "error: --participants must be at least 1\n"),
]


@pytest.mark.parametrize(
    "argv, expected_code, expected_err",
    [case[1:] for case in FAILURES],
    ids=[case[0] for case in FAILURES],
)
def test_failure_exit_code_and_stderr(broken_inputs, capsys, argv, expected_code, expected_err):
    tmp = str(broken_inputs)
    code, out, err = run(capsys, *(arg.replace("{tmp}", tmp) for arg in argv))
    assert (code, err) == (expected_code, expected_err.replace("{tmp}", tmp))
    assert out == ""
    assert not (broken_inputs / "q.json").exists() and not (broken_inputs / "sim.csv").exists()


def test_internal_error_message(sample_files, capsys, monkeypatch):
    structure, questionnaire, responses = sample_files

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(sure_eval, "score_all", boom)
    code, out, err = run(capsys, "score", structure, questionnaire, responses, "--demographics", "gender")
    assert (code, err) == (3, EXCLUDED_S004 + "error: internal error: RuntimeError('boom')\n")


@pytest.mark.parametrize(
    "argv, what",
    [
        (["template", S, "{tmp}/no/dir.json"], "questionnaire"),
        (["score", S, Q, R, "--demographics", "gender", "--out", "{tmp}/no/dir.md"], "report"),
        (["simulate", S, Q, "{tmp}/no/dir.csv", "--participants", "3"], "response CSV"),
    ],
    ids=["template", "score", "simulate"],
)
def test_write_to_missing_directory_is_input_error(sample_files, capsys, argv, what):
    tmp = str(sample_files[0].parent)
    argv = [arg.replace("{tmp}", tmp) for arg in argv]
    code, out, err = run(capsys, *argv)
    target = next(arg for arg in argv if "/no/dir." in arg)
    assert code == 2
    assert err.splitlines()[-1] == f"error: cannot write {what} {target!r}: No such file or directory"
    assert out == ""


def test_failed_replace_leaves_no_temp_file(sample_files, capsys):
    structure, questionnaire, responses = sample_files
    target = structure.parent / "report.md"
    target.mkdir()  # a directory cannot be replaced by a file
    code, out, err = run(
        capsys, "score", structure, questionnaire, responses, "--demographics", "gender", "--out", target,
    )
    assert code == 2
    assert err.splitlines()[-1] == f"error: cannot write report {str(target)!r}: Is a directory"
    assert list(structure.parent.glob(".report.md.*")) == []



@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask-022", "umask-027"])
@pytest.mark.parametrize("command", ["template", "score", "simulate"])
def test_output_file_mode_follows_the_umask(sample_files, capsys, command, umask, mode):
    # regression: the temp file's 0600 mode survived the rename
    structure, questionnaire, responses = sample_files
    target = structure.parent / "out"
    argv = {
        "template": ["template", structure, target],
        "score": ["score", structure, questionnaire, responses, "--demographics", "gender", "--out", target],
        "simulate": ["simulate", structure, questionnaire, target, "--participants", "3"],
    }[command]
    previous = os.umask(umask)
    try:
        code, _, _ = run(capsys, *argv)
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert list(structure.parent.glob(".out.*")) == []

# --- the installed entry point -----------------------------------------------------


def run_python(*argv, stdout=subprocess.PIPE):
    """Run ``python ARGV`` in a child process on this checkout's package."""
    env = dict(os.environ)
    src = str(Path(sure_eval.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *(str(a) for a in argv)], env=env, stdout=stdout, stderr=subprocess.PIPE, check=False,
    )


def run_module(*argv, stdout=subprocess.PIPE):
    """Run ``python -m sure_eval`` in a child process on this checkout's package."""
    return run_python("-m", "sure_eval", *argv, stdout=stdout)


GOLDEN_ARGS = ("--demographics", "gender", "--group-by", "gender", "--enrolled", "20", "--reproducible")


def test_module_entry_point_writes_golden_report(sample_files):
    result = run_module("score", *sample_files, *GOLDEN_ARGS)
    assert result.returncode == 0
    assert result.stdout == (Path(__file__).parent / "goldens" / "online_course.report.md").read_bytes()


def test_module_entry_point_exit_code(broken_inputs):
    result = run_module("score", broken_inputs / "structure.json", broken_inputs / "questionnaire.json",
                        broken_inputs / "header.csv", "--demographics", "gender")
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr == b"error: no_data: zero retained participants\n"


def _read_a_little_and_close(fd):
    os.read(fd, 10)
    os.close(fd)


@pytest.mark.parametrize(
    "participants, warnings, read_first",
    [(None, EXCLUDED_S004, False), (2000, "", False), (2000, "", True)],
    ids=["buffered", "larger-than-the-buffer", "closed-during-the-write"],
)
def test_score_into_a_closed_pipe_is_a_write_error(sample_files, participants, warnings, read_first):
    structure, questionnaire, responses = sample_files
    options = GOLDEN_ARGS
    if participants is not None:  # a report larger than the stdout buffer and the pipe, so the write itself meets the closed pipe
        responses.write_bytes(sure_eval.simulate_responses(sure_eval.parse_questionnaire(questionnaire.read_bytes()), participants, 7))
        options = ("--reproducible",)
    read_end, write_end = os.pipe()
    reader = threading.Thread(target=_read_a_little_and_close, args=(read_end,))
    if read_first:  # the reader closes the pipe while the write waits for room in it
        reader.start()
    else:
        os.close(read_end)
    try:
        result = run_module("score", structure, questionnaire, responses, "--format", "json", *options, stdout=write_end)
    finally:
        os.close(write_end)
    if read_first:
        reader.join(timeout=10)
        assert not reader.is_alive()
    assert result.returncode == 2
    assert result.stderr.decode() == warnings + "error: cannot write report to stdout: Broken pipe\n"


@pytest.mark.parametrize("command", ["template", "simulate"])
def test_summary_into_a_closed_pipe_is_a_write_error(sample_files, tmp_path, command):
    # regression: the summary line went through print, so a closed pipe exited 3 with "internal error: BrokenPipeError"
    structure, questionnaire, _ = sample_files
    target = tmp_path / "written"
    argv = ["template", structure, target] if command == "template" else ["simulate", structure, questionnaire, target, "--participants", "3"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_module(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == b"error: cannot write summary to stdout: Broken pipe\n"
    assert target.stat().st_size > 0  # the file was written before the summary


# --- what each command imports ------------------------------------------------------

SCORING_PATH = ("sure_eval.ingest", "sure_eval.scoring", "sure_eval.report", "sure_eval.simulate", "csv", "decimal", "datetime")


def stdout_of(code):
    """The stdout of code run in a child process on this checkout's package."""
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.decode()


@pytest.mark.parametrize("command", ["validate", "template", "check"])
def test_commands_that_read_only_the_documents_import_no_scoring_path(sample_files, tmp_path, command):
    structure, questionnaire, _ = sample_files
    argv = {"validate": [structure], "template": [structure, tmp_path / "q.json"], "check": [structure, questionnaire]}[command]
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['sure-eval', {command!r}, *{[str(path) for path in argv]!r}]\n"
        "try:\n"
        "    runpy.run_module('sure_eval', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print(sorted(set({SCORING_PATH!r}) & set(sys.modules)))\n"
    )
    assert stdout_of(code).splitlines()[-1] == "[]"


def test_score_with_a_fixed_stamp_imports_no_datetime(sample_files, tmp_path):
    # Each format with --reproducible, then once without it, which stamps the time.
    runs = [[*GOLDEN_ARGS, "--format", format] for format in sure_eval.report.RENDER_FORMATS] + [["--demographics", "gender", "--format", "json"]]
    code = (
        "import runpy, sys\n"
        f"for options in {runs!r}:\n"
        f"    sys.argv = ['sure-eval', 'score', *{[str(path) for path in sample_files]!r}, *options, '--out', {str(tmp_path / 'report')!r}]\n"
        "    try:\n"
        "        runpy.run_module('sure_eval', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "    print('datetime' in sys.modules)\n"
    )
    assert stdout_of(code).splitlines() == ["False", "False", "False", "True"]


def test_the_package_exports_every_name_on_first_use():
    code = (
        "import sys\n"
        "import sure_eval\n"
        f"print(sorted(set({SCORING_PATH!r}) & set(sys.modules)))\n"
        "names = {}\n"
        "exec('from sure_eval import *', names)\n"
        "print(sorted(set(sure_eval.__all__) - set(names)), sure_eval.score_all is sys.modules['sure_eval.scoring'].score_all)\n"
        "print(set(sure_eval.__all__) <= set(dir(sure_eval)), {'ingest', 'report', 'scoring', 'simulate'} <= set(dir(sure_eval)))\n"
    )
    assert stdout_of(code).splitlines() == ["[]", "[] True", "True True"]
    with pytest.raises(AttributeError, match="has no attribute 'not_a_name'"):
        sure_eval.not_a_name


def test_score_builds_no_record_per_participant(sample_files, capsys, monkeypatch):
    from sure_eval.ingest import ParticipantTable
    from sure_eval.scoring import ScoreTable

    def no_record(self, row):
        raise AssertionError("a record was built")

    monkeypatch.setattr(ParticipantTable, "_record", no_record)
    monkeypatch.setattr(ScoreTable, "_record", no_record)
    for format in sure_eval.report.RENDER_FORMATS:
        code, out, err = run(capsys, "score", *sample_files, "--format", format, *GOLDEN_ARGS)
        assert (code, out.count("S001")) == (0, format != "markdown")
