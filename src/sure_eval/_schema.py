"""Strict JSON documents: each layout is declared once, as a shape, which both checks what is read and lays out what is written.

A shape is a nested literal: ``str``, ``int`` or ``float`` for a JSON
string, integer (not ``true``/``false``) or finite number (not an integer);
``[item]`` for an array of ``item``; ``{"field": shape, ...}`` for an
object with exactly these fields; ``{str: shape}`` for an object used as a
map, its names strings; ``Nullable(shape)`` for ``null`` or ``shape``; a
tuple of strings for one of those strings.

``check(value, shape)`` names the JSON path of the first part of a
document that does not fit its shape; ``fits(value, shape)`` only tells
whether it fits. One fit test decides what a shape admits: it takes a list of values apart into leaf columns, one C-level pass
each. Only a document that does not fit is walked, with the same test on
slices of its arrays and maps (bisection) and on its fields in turn, to name
the first misfit and word its problem. ``columns_of`` reads an array of
records that fits, each with its fields in order, straight into leaf
columns: every record field is its own column, tested by the one leaf rule.
The loaders give one float per distinct number text in a document.

``dumps(value, shape)`` checks a value against the same shape and then
writes it, in the shape's field order with two-space indentation, so the
reader accepts the layout of every document the writer writes. Only an
array given as ``Columns``, the leaf columns of its records, is written by
row template: the literal texts of its record shape filled with one column of
leaf texts per slot, its floats through one repr cache per call, because
scores repeat. Every other value is written by walking its shape.
"""

from __future__ import annotations

import json
import struct
from functools import partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring
from math import isfinite
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import SchemaError


# The formats of report.render_report, kept here so that the command line
# offers them without importing the report writers.
RENDER_FORMATS = ("markdown", "json", "csv")


class Nullable(NamedTuple):
    shape: Any


class Columns:
    """An array of records whose fields are leaves or records of leaves, given as one column of leaf values per slot of their text (the leaves in shape order, records flattened), all of one length.

    It stands for the array in a value given to check or dumps, where the
    shape has ``[record]``. Indexing gives one element's leaf values,
    slicing the elements of the slice as Columns.
    """

    __slots__ = ("leaves",)

    def __init__(self, leaves: Sequence[Sequence]):
        self.leaves = tuple(leaves)

    def __len__(self) -> int:
        return len(self.leaves[0]) if self.leaves else 0

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return Columns([column[index] for column in self.leaves])
        return [column[index] for column in self.leaves]


class _NonFinite(str):
    """NaN, Infinity or -Infinity as loaded: not JSON (RFC 8259 section 6), so no shape accepts one and check() names its path."""

    __repr__ = str.__str__


def load_json(document: bytes | str, what: str = "document") -> Any:
    """document loaded as JSON; not UTF-8, not JSON, or an object that repeats a name is a SchemaError."""
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{what} is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(document, parse_float=_Floats().__getitem__, parse_constant=_NonFinite, object_pairs_hook=partial(_object, what))
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{what} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc


class _Floats(dict):
    """float(text) for each number text looked up, computed once per distinct text: one call's parse_float, so equal texts load as one shared float.

    The key is the text, not the value, so each float is the one float(text)
    gives, and "-0.0" and "0.0" stay two floats.
    """

    def __missing__(self, text: str) -> float:
        self[text] = value = float(text)
        return value


def _object(what: str, pairs: list[tuple[str, Any]]) -> dict:
    """A loaded object; a name given twice is a SchemaError, where json.loads would keep the last value."""
    value = dict(pairs)
    if len(value) < len(pairs):
        seen: set[str] = set()
        name = next(name for name, _ in pairs if name in seen or seen.add(name))
        raise SchemaError(f"{what} repeats the name {name!r} in one object")
    return value


def load_plain(document: bytes | str) -> tuple[Any, int] | None:
    """document loaded without load_json's repeated-name hook, a Python call per object, and the number of ":" in its text; None for a document that load_json must read: one that is not a str or UTF-8 bytes, not JSON, or holds a \\u escape.

    Without a \\u escape, each ":" of the text either separates the name and
    value of one object member or is a character of a name or string, so the
    count equals colons(value) exactly when no object repeats a name: a
    repeated name drops a member, and its colons, from the loaded value.
    The decoded text is dropped on return, before any check of the value.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if not isinstance(document, str) or ("\\" in document and "\\u" in document):  # a bytearray, say, is load_json's to read; one character is found many times faster than two
        return None
    try:
        return json.loads(document, parse_float=_Floats().__getitem__, parse_constant=_NonFinite), document.count(":")
    except json.JSONDecodeError:
        return None


def colons(value: Any) -> int:
    """The members of every object in a loaded value plus the ":" characters of every name and string in it."""
    kind = type(value)
    if kind is str:
        return value.count(":")
    if kind is list:
        return sum(map(colons, value))
    if kind is dict:
        return len(value) + sum(map(colons, value)) + sum(map(colons, value.values()))
    return 0


def check(value: Any, shape: Any) -> None:
    """Raise SchemaError, naming the JSON path ("$.a[2].b"), at the first part of value that does not match shape."""
    if not fits(value, shape):
        raise SchemaError(_misfit(value, shape, "$"))


def fits(value: Any, shape: Any) -> bool:
    """Whether value matches shape, without naming what does not."""
    return _all_fit([value], shape)


def columns_of(values: Sequence, shape: Any) -> list[Sequence] | None:
    """The leaf columns, in slot order, of values, an array of records of shape whose fields are leaves or records of leaves (as Columns holds them), when every record holds the shape's fields in the shape's order, at every level, and every leaf fits; None when one does not, for check to name the misfit (a record with its fields in another order fits, but is not gathered).

    Each level of records takes one pass: one compare of all its records'
    names, flattened, with the shape's repeated, and one tuple of all their
    values, whose strided slices are the fields' columns. Each field is one
    column, and each leaf column is tested by _all_fit, the one leaf rule.
    """
    if type(shape) is not dict:
        return [values] if _all_fit(values, shape) else None
    names = tuple(shape)
    if not ({*map(type, values)} <= {dict} and tuple(chain.from_iterable(values)) == names * len(values)):  # no record repeats a name, so each then holds exactly these
        return None
    flat = tuple(chain.from_iterable(map(dict.values, values)))
    leaves: list[Sequence] = []
    for j, field in enumerate(shape.values()):
        field_leaves = columns_of(flat[j :: len(names)], field)
        if field_leaves is None:
            return None
        leaves += field_leaves
    return leaves


_EXPECTED = {str: "a string", int: "an integer", float: "a number", list: "an array", dict: "an object"}
_JSON_TYPES = {str: "string", int: "integer", float: "number", bool: "boolean", list: "array", dict: "object", type(None): "null"}


def _all_fit(values: list, shape: Any) -> bool:
    """Whether every one of a list of values fits shape, by C-level passes over its leaf columns: the one rule of what a shape admits."""
    kind = type(shape)
    if kind is type:
        return {*map(type, values)} <= {shape} and (shape is not float or isfinite(sum(values)) or all(map(isfinite, values)))  # a sum of floats is finite only if each one is, and takes one C-level add per value
    if kind is tuple:
        return all(map(shape.__contains__, values))
    if kind is Nullable:
        return _all_fit([value for value in values if value is not None], shape.shape)
    if kind is list and {*map(type, values)} == {Columns}:  # each leaf's values, one column per leaf
        leaf_columns = zip(*(value.leaves for value in values))
        return all(_all_fit(columns[0] if len(values) == 1 else list(chain.from_iterable(columns)), leaf) for columns, leaf in zip(leaf_columns, _leaves(shape[0])))
    if not {*map(type, values)} <= {kind}:
        return False
    if kind is list:
        return _all_fit(values[0] if len(values) == 1 else list(chain.from_iterable(values)), shape[0])
    if str in shape:
        return _all_fit(list(chain.from_iterable(values)), str) and _all_fit(list(chain.from_iterable(map(dict.values, values))), shape[str])
    names = tuple(shape)
    if not (all(map(names.__eq__, map(tuple, values))) or all(map(shape.keys().__eq__, map(dict.keys, values)))):  # the fields in order, else in any order
        return False
    return all(_all_fit(list(map(itemgetter(name), values)), field) for name, field in shape.items())


def _misfit(value: Any, shape: Any, path: str) -> str:
    """The JSON path and problem of the first misfit in value, which does not fit shape, found with _all_fit alone.

    The elements of an array or the values of a map are narrowed down by
    bisection, with _all_fit on slices, so naming the misfit among n elements
    takes O(log n) column passes, not n record checks.
    """
    kind = type(shape)
    if kind is Nullable:  # value is not None, or it would fit
        return _misfit(value, shape.shape, path)
    if kind is tuple:
        return f"{path}: must be one of {shape}, got {value!r}"
    if type(value) is shape:  # a float that is NaN or infinite, named as a loaded one is
        return f"{path}: expected a number, got {json.dumps(value)}"
    expected = shape if kind is type else kind
    if type(value) is not expected and not (kind is list and type(value) is Columns):
        got = value if type(value) is _NonFinite else _JSON_TYPES.get(type(value), type(value).__name__)  # a written value may be no JSON type
        return f"{path}: expected {_EXPECTED[expected]}, got {got}"
    if kind is list:
        index = _first_misfit(len(value), lambda start, stop: _all_fit([value[start:stop]], shape))
        element = value[index] if type(value) is list else _record(shape[0], iter(value[index]))
        return _misfit(element, shape[0], f"{path}[{index}]")
    if str in shape:
        names, elements = list(value), list(value.values())
        if not _all_fit(names, str):
            return f"{path}: expected string names, got {next(name for name in names if type(name) is not str)!r}"
        index = _first_misfit(len(elements), lambda start, stop: _all_fit(elements[start:stop], shape[str]))
        return _misfit(elements[index], shape[str], f"{path}.{names[index]}")
    if value.keys() - shape.keys():
        return f"{path}: unknown field(s): {', '.join(sorted(value.keys() - shape.keys()))}"
    if value.keys() != shape.keys():
        return f"{path}: missing field(s): {', '.join(name for name in shape if name not in value)}"
    return next(_misfit(value[name], field, f"{path}.{name}") for name, field in shape.items() if not _all_fit([value[name]], field))


def _first_misfit(n: int, fits: Callable[[int, int], bool]) -> int:
    """The index of the first misfit among n elements, at least one of which does not fit; fits(start, stop) tells whether elements start to stop all fit."""
    start, stop = 0, n
    while stop - start > 1:
        middle = (start + stop) // 2
        if fits(start, middle):
            start = middle
        else:
            stop = middle
    return start


def _leaves(shape: Any) -> list:
    """The leaf shapes of a record of leaves and such records, in slot order; a leaf's own shape for a leaf."""
    return [leaf for field in shape.values() for leaf in _leaves(field)] if type(shape) is dict else [shape]


def _record(shape: Any, leaves: Iterator) -> Any:
    """The record of shape that one element of Columns stands for, from an iterator over its leaf values in slot order."""
    return {name: _record(field, leaves) for name, field in shape.items()} if type(shape) is dict else next(leaves)


def dumps(value: Any, shape: Any) -> bytes:
    """Write value as UTF-8 JSON laid out by shape: two-space indentation, fields in the shape's order, a final newline.

    value is first checked against shape, so a value the reader would reject
    (a boolean where an integer belongs, a NaN, a missing field) raises
    SchemaError, naming its JSON path, instead of being written. For a value
    that passes, with its maps' keys in the order they should be written, the
    bytes are those of ``json.dumps(value, indent=2, ensure_ascii=False) + "\n"``;
    a record is written in its shape's field order, whatever its own order.

    Only an array given as Columns is written by row template, from its leaf
    columns; every other value is written by walking its shape. The text
    comes in pieces, a record field by field and an array or map element by
    element, which are joined 128 at a time, encoded, and the bytes joined
    once, so the only copy of the whole text is the bytes returned.
    Joining a field on its own and copying it into the document made two to
    four copies of a 25k-row report's 15 MB participants array, and how many
    were alive at once depended on how the allocator reused freed blocks, so
    the peak memory of a write moved by 15 MB from one input to the next.
    Encoding each piece on its own kept 50k bytes objects alive until the
    join, with their headers and the heap holes between them: 6 MB more
    traced memory and 7 MB more RSS for that report than 128 at a time.
    """
    check(value, shape)
    # Compiling the shape takes tens of microseconds, so each call compiles its own, with its own repr cache, and nothing outlives it.
    return b"".join(map(str.encode, batches(chain(_writer(shape, "\n", Reprs())(value), ("\n",)))))


def batches(pieces: Iterator[str]) -> Iterator[str]:
    """pieces joined 128 at a time, none of which may be empty: only the end joins to ""."""
    return iter(lambda: "".join(islice(pieces, 128)), "")


class Reprs(dict):
    """repr(value) for each float looked up, computed once per distinct value, zeros included.

    Keys that compare equal share one text, so only floats may be looked up
    (an int 0 or 1, or a bool, would take, or leave, the text of 0.0 or 1.0):
    texts() is given only columns that check() has found all floats. And 0.0
    and -0.0 have different reprs, so texts() makes one C-level pass over the
    column's bytes to find no -0.0 in it; the cache only holds a zero as "0.0".
    """

    def __missing__(self, value: float) -> str:
        self[value] = text = repr(value)
        return text

    def texts(self, values: Sequence[float]) -> Iterator[str]:
        """The repr of each of a column of floats."""
        return map(repr if _has_negative_zero(values) else self.__getitem__, values)


_NEGATIVE_ZERO = struct.pack("d", -0.0)


def _has_negative_zero(values: Sequence[float]) -> bool:
    """Whether a column of floats holds a -0.0."""
    data = struct.pack(f"{len(values)}d", *values)
    at = data.find(_NEGATIVE_ZERO)
    while at > 0 and at % len(_NEGATIVE_ZERO):  # a match across two values
        at = data.find(_NEGATIVE_ZERO, at + 1)
    return at >= 0


def _writer(shape: Any, pad: str, reprs: Reprs) -> Callable[[Any], Iterable[str]]:
    """Compile shape into a function giving the text of one checked value in pieces, by walking the shape, but for an array given as Columns, whose elements fill one row template (_parts) from its leaf columns; pad is the newline and indentation of the value's own line."""
    kind = type(shape)
    if kind is type or kind is tuple:
        text = _LEAF_TEXTS.get(shape, encode_basestring)
        return lambda value: (text(value),)
    if kind is Nullable:
        write = _writer(shape.shape, pad, reprs)
        return lambda value: ("null",) if value is None else write(value)
    inner = pad + "  "
    if kind is dict and str not in shape:
        if not shape:
            return lambda value: ("{}",)
        fields = [((("," if i else "{") + inner + encode_basestring(name) + ": ",), name, _writer(field, inner, reprs)) for i, (name, field) in enumerate(shape.items())]
        close = (pad + "}",)
        return lambda value: chain(*[pieces for prefix, name, write in fields for pieces in (prefix, write(value[name]))], close)
    is_map = kind is dict
    item = shape[str] if is_map else shape[0]
    write = _writer(item, inner, reprs)
    parts = _parts(item, inner)
    slot_texts = [reprs.texts if leaf is float else partial(map, _LEAF_TEXTS.get(leaf, encode_basestring)) for leaf in _leaves(item)] if parts else None
    empty = "{}" if is_map else "[]"
    open_, separator, close = empty[0] + inner, "," + inner, pad + empty[1]

    def container(value: Any) -> Iterable[str]:
        if not value:
            return (empty,)
        if type(value) is Columns:
            elements = filled(parts, [texts(column) for texts, column in zip(slot_texts, value.leaves)])
        elif is_map:
            elements = map("{}: {}".format, map(encode_basestring, value), map("".join, map(write, value.values())))
        else:
            elements = map("".join, map(write, value))
        return chain((open_, next(elements)), chain.from_iterable(zip(repeat(separator), elements)), (close,))

    return container


_LEAF_TEXTS = {str: encode_basestring, int: int.__repr__, float: float.__repr__}


def _parts(shape: Any, pad: str) -> Sequence[str] | None:
    """The literal texts before, between and after the slots of a leaf or of a record of leaves and such records, one slot per leaf; None for any other shape."""
    kind = type(shape)
    if kind is type or kind is tuple:
        return ("", "")
    if kind is not dict or str in shape:
        return None
    inner = pad + "  "
    parts = ["{"]
    for i, (name, field) in enumerate(shape.items()):
        field_parts = _parts(field, inner)
        if field_parts is None:
            return None
        parts[-1] += ("," if i else "") + inner + encode_basestring(name) + ": " + field_parts[0]
        parts += field_parts[1:]
    parts[-1] += pad + "}" if shape else "}"
    return parts


def filled(parts: Sequence[str], columns: Sequence[Iterable[str]]) -> Iterator[str]:
    """parts[0] + columns[0][i] + parts[1] + ... + columns[-1][i] + parts[-1] for each i, by one join per i."""
    pieces = [piece for part, column in zip(parts, columns) for piece in ((repeat(part), column) if part else (column,))]
    return map("".join, zip(*pieces, repeat(parts[-1])))

