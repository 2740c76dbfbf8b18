from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from sure_eval.errors import InvalidStructureError, SchemaError
from sure_eval.goal_structure import (
    Confirmation,
    GoalStructure,
    KeyGoal,
    SubGoal,
    confirm_structure,
    parse_structure,
    serialize_structure,
    validate_structure,
)


def minimal_doc():
    return {
        "title": "t",
        "version": "1",
        "status": "draft",
        "confirmation": None,
        "key_goals": [{"id": "K1", "label": "k", "sub_goals": [{"id": "S1", "label": "s"}]}],
    }


def test_bundled_sample_shape(structure):
    assert len(structure.key_goals) == 4
    assert [len(kg.sub_goals) for kg in structure.key_goals] == [5, 6, 4, 5]
    assert len(list(structure.sub_goals())) == 20
    assert structure.status == "confirmed"
    assert validate_structure(structure) == []


def test_bundled_sample_repeats_a_label(structure):
    # two distinct sub goals may carry the same label
    labels = [sub.label for sub in structure.key_goals[1].sub_goals]
    assert labels.count("Knowledge") == 2


def test_parse_minimal():
    gs = parse_structure(json.dumps(minimal_doc()).encode())
    assert len(gs.key_goals) == 1
    assert len(gs.key_goals[0].sub_goals) == 1
    assert gs.key_goals[0].sub_goals[0].parent == "K1"


def test_parse_preserves_order(structure):
    assert [kg.id for kg in structure.key_goals] == ["B1", "B2", "B3", "B4"]
    assert [sub.id for sub in structure.key_goals[2].sub_goals] == ["A31", "A32", "A33", "A34"]


def test_parse_rejects_zero_sub_goals():
    doc = minimal_doc()
    doc["key_goals"][0]["sub_goals"] = []
    with pytest.raises(InvalidStructureError) as err:
        parse_structure(json.dumps(doc).encode())
    assert any(v.code == "no_sub_goals" for v in err.value.violations)


def test_parse_rejects_unknown_field():
    doc = minimal_doc()
    doc["weight"] = 2
    with pytest.raises(SchemaError, match="unknown field"):
        parse_structure(json.dumps(doc).encode())


def test_parse_rejects_a_repeated_name():
    text = serialize_structure(parse_structure(json.dumps(minimal_doc()).encode())).decode()
    with pytest.raises(SchemaError, match=r"^goal structure repeats the name 'title' in one object$"):
        parse_structure(text.replace('"title": ', '"title": "X", "title": ', 1))


def test_parse_reports_syntax_position():
    with pytest.raises(SchemaError, match=r"line \d+, column \d+"):
        parse_structure(b'{"title": "x",}')


def test_parse_rejects_duplicate_id():
    doc = minimal_doc()
    doc["key_goals"].append({"id": "K2", "label": "k2", "sub_goals": [{"id": "S1", "label": "dup"}]})
    with pytest.raises(InvalidStructureError) as err:
        parse_structure(json.dumps(doc).encode())
    codes = [v.code for v in err.value.violations]
    assert codes == ["duplicate_id"]


def test_validate_empty_structure():
    gs = GoalStructure(title="t", version="1", key_goals=())
    assert [v.code for v in validate_structure(gs)] == ["empty_structure"]


def test_validate_flags_parent_mismatch():
    gs = GoalStructure(
        title="t",
        version="1",
        key_goals=(KeyGoal(id="K1", label="k", sub_goals=(SubGoal(id="S1", label="s", parent="K2"),)),),
    )
    assert [v.code for v in validate_structure(gs)] == ["parent_mismatch"]


def test_validate_confirmed_needs_record():
    gs = GoalStructure(
        title="t",
        version="1",
        status="confirmed",
        key_goals=(KeyGoal(id="K1", label="k", sub_goals=(SubGoal(id="S1", label="s", parent="K1"),)),),
    )
    assert [v.code for v in validate_structure(gs)] == ["missing_confirmation"]


def test_confirm_produces_new_value():
    gs = parse_structure(json.dumps(minimal_doc()).encode())
    confirmed = confirm_structure(gs, ["Evaluation expert", "Course professors"], "2020-12")
    assert confirmed.status == "confirmed"
    assert confirmed.confirmation == Confirmation(("Evaluation expert", "Course professors"), "2020-12")
    assert gs.status == "draft"
    assert gs.confirmation is None


def test_confirm_refuses_invalid():
    gs = GoalStructure(title="t", version="1", key_goals=())
    with pytest.raises(InvalidStructureError) as err:
        confirm_structure(gs, ["someone"], "2021-01")
    assert err.value.violations


def test_confirm_refuses_empty_approvers():
    gs = parse_structure(json.dumps(minimal_doc()).encode())
    with pytest.raises(ValueError, match="empty_approvers"):
        confirm_structure(gs, [], "2021-01")


# --- round-trip property -----------------------------------------------------

_ident = st.text(alphabet="ABCDEFGHijklmn0123456789_", min_size=1, max_size=6)
_label = st.text(min_size=0, max_size=20).filter(lambda s: "\x00" not in s)


@st.composite
def structures(draw):
    # ids carry an index so uniqueness is structural; the drawn suffix still
    # exercises arbitrary identifier content
    suffix = draw(_ident)
    key_goals = []
    for k in range(draw(st.integers(1, 4))):
        key_id = f"K{k}.{suffix}"
        subs = tuple(
            SubGoal(id=f"K{k}S{j}.{suffix}", label=draw(_label), parent=key_id)
            for j in range(draw(st.integers(1, 4)))
        )
        key_goals.append(KeyGoal(id=key_id, label=draw(_label), sub_goals=subs))
    confirmed = draw(st.booleans())
    return GoalStructure(
        title=draw(_label),
        version=draw(_label),
        key_goals=tuple(key_goals),
        status="confirmed" if confirmed else "draft",
        confirmation=Confirmation((draw(_label) or "x",), draw(_label)) if confirmed else None,
    )


@given(structures())
def test_serialize_parse_round_trip(gs):
    assert validate_structure(gs) == []
    assert parse_structure(serialize_structure(gs)) == gs


@given(structures())
def test_serialize_is_deterministic(gs):
    assert serialize_structure(gs) == serialize_structure(gs)
