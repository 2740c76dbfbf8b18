from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sure_eval import _schema
from sure_eval._schema import Columns, Nullable, check, dumps
from sure_eval.errors import SchemaError
from sure_eval.goal_structure import STRUCTURE_SHAPE, KeyGoal, SubGoal
from sure_eval.questionnaire import QUESTIONNAIRE_SHAPE
from sure_eval.report import REPORT_SHAPE, ScoreReport, _report_shape, render_report
from sure_eval.scoring import AggregateScores, ScoreTable

SHAPES = {"structure": STRUCTURE_SHAPE, "questionnaire": QUESTIONNAIRE_SHAPE, "report": REPORT_SHAPE}
GOLDEN_REPORT = Path(__file__).parent / "goldens" / "online_course.report.json"

# Characters JSON escapes, and ones json.dumps(ensure_ascii=False) writes as they are.
TEXT = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\r\t\u2028\u2029\ufeff\U0001f600\xe9') | st.characters(exclude_categories=["Cs"]), max_size=8)


def values(shape):
    """Values of shape, with fields in the shape's order."""
    kind = type(shape)
    if shape is str:
        return TEXT
    if shape is int:
        return st.integers()
    if shape is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    if kind is tuple:
        return st.sampled_from(shape)
    if kind is Nullable:
        return st.none() | values(shape.shape)
    if kind is list:
        return st.lists(values(shape[0]), max_size=3)
    if str in shape:
        return st.dictionaries(TEXT, values(shape[str]), max_size=3)
    fields = st.fixed_dictionaries({name: values(field) for name, field in shape.items()})
    return fields.map(lambda record: {name: record[name] for name in shape})


@pytest.mark.parametrize("name", SHAPES)
@given(data=st.data())
def test_dumps_writes_the_bytes_of_json_dumps_indent_2(name, data):
    shape = SHAPES[name]
    value = data.draw(values(shape))
    check(value, shape)
    written = dumps(value, shape)
    assert written == (json.dumps(value, indent=2, ensure_ascii=False) + "\n").encode()
    check(json.loads(written), shape)


@pytest.mark.parametrize("shape", [[{"a": str, "b": [int]}], {str: {str: float}}, Nullable({"a": [str]}), float, [{"a": {}}]])
@given(data=st.data())
def test_dumps_writes_a_document_that_is_not_a_record(shape, data):
    value = data.draw(values(shape))
    assert dumps(value, shape) == (json.dumps(value, indent=2, ensure_ascii=False) + "\n").encode()


@pytest.fixture()
def report():
    return json.loads(GOLDEN_REPORT.read_bytes())


DELETE = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["distribution", "n"], True, "$.distribution.n: expected an integer, got boolean"),
        (["distribution", "histogram", 3], False, "$.distribution.histogram[3]: expected an integer, got boolean"),
        (["participation", "enrolled"], 1.0, "$.participation.enrolled: expected an integer, got number"),
        (["general"], float("nan"), "$.general: expected a number, got NaN"),
        (["general"], float("inf"), "$.general: expected a number, got Infinity"),
        (["participants", 0, "overall"], float("-inf"), "$.participants[0].overall: expected a number, got -Infinity"),
        (["participants", 0, "sub_goals", "A11"], float("nan"), "$.participants[0].sub_goals.A11: expected a number, got NaN"),
        (["participants", 0, "key_goals", "B1"], float("inf"), "$.participants[0].key_goals.B1: expected a number, got Infinity"),
        (["key_goals", 0, "score"], 1, "$.key_goals[0].score: expected a number, got integer"),
        (["participants", 1, "sub_goals", "A12"], 1, "$.participants[1].sub_goals.A12: expected a number, got integer"),
        (["title"], 3, "$.title: expected a string, got integer"),
        (["warnings"], [None], "$.warnings[0]: expected a string, got null"),
        (["warnings"], ("a tuple",), "$.warnings: expected an array, got tuple"),
        (["distribution", "n_max"], DELETE, "$.distribution: missing field(s): n_max"),
        (["participants", 2, "id"], DELETE, "$.participants[2]: missing field(s): id"),
        (["participation", "extra"], 1, "$.participation: unknown field(s): extra"),
    ],
    ids=lambda case: ".".join(map(str, case)) if type(case) is list else None,
)
def test_dumps_raises_on_a_report_outside_its_shape(report, path, value, message):
    *parents, last = path
    target = report
    for step in parents:
        target = target[step]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    with pytest.raises(SchemaError) as err:
        dumps(report, REPORT_SHAPE)
    assert str(err.value) == message


def test_dumps_raises_on_a_status_outside_its_tuple():
    document = {"structure_version": "1", "status": "approved", "scale": [], "questions": []}
    with pytest.raises(SchemaError, match=r"^\$\.status: must be one of"):
        dumps(document, QUESTIONNAIRE_SHAPE)
    document["status"] = "draft"
    document["scale"] = [{"code": True, "label": "yes"}]
    with pytest.raises(SchemaError, match=r"^\$\.scale\[0\]\.code: expected an integer, got boolean$"):
        dumps(document, QUESTIONNAIRE_SHAPE)


def test_check_rejects_a_non_finite_number_read_as_an_overflow():
    # json.loads reads 1e999 as inf; only NaN and Infinity reach load_json's parse_constant.
    with pytest.raises(SchemaError, match=r"^\$\.general: expected a number, got Infinity$"):
        check(json.loads('{"general": 1e999}'), {"general": float})


# The report as render_report checks it: each score map a record of the tree's ids.
TREE_REPORT_SHAPE = _report_shape(dict.fromkeys(["B1", "B2"], float), dict.fromkeys(["A11", "A12", "A21"], float))
_EXPECTED = {str: "a string", int: "an integer", float: "a number", list: "an array", dict: "an object"}
_JSON_TYPES = {str: "string", int: "integer", float: "number", bool: "boolean", list: "array", dict: "object", type(None): "null"}


def parts(holder, key, shape, path):
    """holder[key] and each part of it, as (holder, key, shape, JSON path), the whole first."""
    yield holder, key, shape, path
    value = holder[key]
    if type(shape) is Nullable:
        if value is None:
            return
        shape = shape.shape
    if type(shape) is list:
        for index in range(len(value)):
            yield from parts(value, index, shape[0], f"{path}[{index}]")
    elif type(shape) is dict:
        for name in value:
            yield from parts(value, name, shape[str] if str in shape else shape[name], f"{path}.{name}")


def faults(data, shape, value):
    """Replacements for value that shape does not admit, each with the problem check names."""
    nullable = type(shape) is Nullable
    if nullable:
        shape = shape.shape
    kind = type(shape)
    wanted = shape if kind is type else kind
    found = []
    for other in ("x", 1, 0.5, True, [], {}, None):
        if type(other) is wanted or other is None and nullable or kind is tuple and type(other) is str:
            continue
        got = f"must be one of {shape}, got {other!r}" if kind is tuple else f"expected {_EXPECTED[wanted]}, got {_JSON_TYPES[type(other)]}"
        found.append((other, got))
    if shape is float:
        found += [(float("nan"), "expected a number, got NaN"), (float("-inf"), "expected a number, got -Infinity")]
    if kind is tuple:
        found.append(("other", f"must be one of {shape}, got 'other'"))
    if kind is dict and str not in shape and value is not None:  # a record edit needs a record
        for name in shape:
            found.append(({key: field for key, field in value.items() if key != name}, f"missing field(s): {name}"))
        extra = data.draw(TEXT.filter(lambda name: name not in shape), label="extra field")
        found.append(({**value, extra: 1}, f"unknown field(s): {extra}"))
    return found


@pytest.mark.parametrize("shape", [STRUCTURE_SHAPE, QUESTIONNAIRE_SHAPE, REPORT_SHAPE, TREE_REPORT_SHAPE], ids=["structure", "questionnaire", "report", "tree-report"])
@given(data=st.data())
def test_check_names_a_single_fault_at_its_own_path(shape, data):
    root = [data.draw(values(shape), label="document")]
    holder, key, part_shape, path = data.draw(st.sampled_from(list(parts(root, 0, shape, "$"))), label="location")
    faulty, problem = data.draw(st.sampled_from(faults(data, part_shape, holder[key])), label="fault")
    holder[key] = faulty
    with pytest.raises(SchemaError) as err:
        check(root[0], shape)
    assert str(err.value) == f"{path}: {problem}"


def test_the_repr_cache_keeps_zeros_and_writes_a_negative_zero_as_one():
    # regression: a zero was never kept, so every zero score ran the cache's __missing__
    reprs = _schema.Reprs()
    assert list(reprs.texts((0.0,) * 300 + (0.5,))) == ["0.0"] * 300 + ["0.5"]
    assert reprs == {0.0: "0.0", 0.5: "0.5"}
    assert list(reprs.texts((0.0,) * 300 + (-0.0, 0.0))) == ["0.0"] * 300 + ["-0.0", "0.0"]
    column = [0.0] * 300 + [-0.0] + [0.0] * 3
    assert dumps(column, [float]) == (json.dumps(column, indent=2) + "\n").encode()
    records = Columns([[f"P{i}" for i in range(len(column))], column])
    assert dumps(records, [{"id": str, "score": float}]) == (json.dumps([{"id": f"P{i}", "score": x} for i, x in enumerate(column)], indent=2) + "\n").encode()


def test_the_repr_cache_reads_only_a_column_of_floats():
    # regression: 0 == 0.0 == False and 1 == 1.0 == True are one key, so an int or bool column in the cache wrote 0.0 as "0" and 1.0 as "True";
    # both report writers now refuse such a column before any text is written
    key_goals = (KeyGoal("K1", "k", (SubGoal("S1", "s", "K1"),)),)
    column = (0, 1, 0.0, 1.0, -0.0, True)
    table = ScoreTable(("K1",), ("S1",), (tuple(f"P{i}" for i in range(6)), (0.5,) * 6, (0.5,) * 6, column))
    report = ScoreReport("t", "1", "", AggregateScores(0.5, {"K1": 0.5}, {"S1": 0.5}, 6, 0, 0), key_goals, table, (0,) * 5 + (6,) + (0,) * 4, None, None, ())
    for format in ("json", "csv"):
        with pytest.raises(SchemaError, match=r"^\$\.participants\[0\]\.sub_goals\.S1: expected a number, got integer$"):
            render_report(report, format)


def test_a_negative_zero_is_found_only_where_a_value_starts():
    # on a little-endian host, 0.0 then this float hold the bytes of -0.0 one byte off a value's start
    straddling = struct.unpack("<d", b"\x80" + bytes(5) + b"\xe0\x3f")[0]
    assert not _schema._has_negative_zero((0.0, straddling, 0.5))
    assert _schema._has_negative_zero((0.0, straddling, -0.0))


def test_finite_floats_fit_when_their_sum_overflows():
    assert _schema.fits([1e308, 1e308], [float]) and _schema.fits([-1e308, -1e308], [float])
    assert not _schema.fits([1e308, 1e308, float("-inf")], [float]) and not _schema.fits([float("inf"), float("-inf")], [float])


@pytest.mark.parametrize(
    "value, shape, message",
    [
        ([0] * 4095 + ["x"], [int], r"^\$\[4095\]: expected an integer, got string$"),
        ({f"k{i}": 0.5 for i in range(4096)} | {"k4000": 1}, {str: float}, r"^\$\.k4000: expected a number, got integer$"),
        (Columns([[f"P{i}" for i in range(4096)], [0.5] * 4000 + [float("nan")] + [0.5] * 95]), [{"id": str, "score": {"v": float}}], r"^\$\[4000\]\.score\.v: expected a number, got NaN$"),
    ],
    ids=["array", "map", "columns"],
)
def test_a_misfit_among_many_elements_is_named_by_bisection(monkeypatch, value, shape, message):
    # regression: the misfit walk ran the fit test once per element, 4096 times here
    calls = []
    fit = _schema._all_fit
    monkeypatch.setattr(_schema, "_all_fit", lambda values, shape: calls.append(shape) or fit(values, shape))
    with pytest.raises(SchemaError, match=message):
        check(value, shape)
    assert len(calls) <= 4 * (4096).bit_length()


def in_order(value, shape):
    """Whether value, of a record shape, holds the shape's fields in the shape's order, and so do the records in its fields."""
    if type(shape) is not dict or str in shape:
        return True
    return list(value) == list(shape) and all(in_order(value[name], field) for name, field in shape.items())


def leaf_columns(shape, values):
    """The columns of leaf values, in slot order, of a list of values of a leaf or record shape: what Columns holds and columns_of gives."""
    if type(shape) is not dict:
        return [values]
    return [column for name, field in shape.items() for column in leaf_columns(field, [value[name] for value in values])]


RECORD_SHAPES = {
    "participant": TREE_REPORT_SHAPE["participants"][0],
    "mixed": {"a": str, "b": {"c": int, "d": float, "e": ("x", "y")}, "f": float},
    "records-of-one-shape": {"p": {"q": int}, "r": {"q": int}},
    "empty": {},
}


@pytest.mark.parametrize("shape", RECORD_SHAPES.values(), ids=RECORD_SHAPES)
@given(data=st.data())
def test_columns_of_gathers_exactly_the_records_that_fit_with_their_fields_in_order(shape, data):
    records = data.draw(st.lists(values(shape), max_size=4), label="records")
    inside = list(parts([records], 0, [shape], "$"))[1:]
    reorderable = [part for part in inside if type(part[2]) is dict and len(part[2]) > 1]
    change = data.draw(st.sampled_from(["none", "fault", "reorder"]), label="change")
    if change == "fault" and inside:
        holder, key, part_shape, _ = data.draw(st.sampled_from(inside), label="location")
        holder[key] = data.draw(st.sampled_from([other for other, _ in faults(data, part_shape, holder[key])]), label="fault")
    if change == "reorder" and reorderable:  # one record's fields in another order
        holder, key, _, _ = data.draw(st.sampled_from(reorderable), label="location")
        holder[key] = dict(reversed(holder[key].items()))
    gathered = _schema.columns_of(records, shape)
    if _schema.fits(records, [shape]) and all(in_order(record, shape) for record in records):
        assert gathered is not None and list(map(list, gathered)) == leaf_columns(shape, records)
    else:
        assert gathered is None


# Records whose fields are leaves or such records, with a float among their leaves: what Columns may stand for, with a column the repr cache writes.
RECORDS_OF_LEAVES = st.dictionaries(
    TEXT, st.recursive(st.sampled_from([str, int, float, ("x", "y\n", "\u2028")]), lambda fields: st.dictionaries(TEXT, fields, max_size=3), max_leaves=6), min_size=1, max_size=3
).filter(lambda shape: float in _schema._leaves(shape))


def record_values(shape):
    """Values of a record of leaves, with fields in the shape's order and zeros of both signs among the floats."""
    if shape is float:
        return st.sampled_from([0.0, -0.0]) | values(float)
    if type(shape) is dict:
        return st.fixed_dictionaries({name: record_values(field) for name, field in shape.items()}).map(lambda record: {name: record[name] for name in shape})
    return values(shape)


@given(data=st.data())
def test_columns_and_the_equal_list_of_records_write_the_same_bytes(data):
    shape = data.draw(RECORDS_OF_LEAVES, label="shape")
    records = data.draw(st.lists(record_values(shape), max_size=6), label="records")
    written = (json.dumps(records, indent=2, ensure_ascii=False) + "\n").encode()
    assert dumps(records, [shape]) == written
    assert dumps(Columns(leaf_columns(shape, records)), [shape]) == written
