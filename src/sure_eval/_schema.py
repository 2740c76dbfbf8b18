"""Strict JSON documents: each layout is declared once, as a shape, which both checks what is read and lays out what is written.

A shape is a nested literal: ``str``, ``int`` or ``float`` for a JSON
string, integer (not ``true``/``false``) or finite number (not an integer);
``[item]`` for an array of ``item``; ``{"field": shape, ...}`` for an
object with exactly these fields; ``{str: shape}`` for an object used as a
map; ``Nullable(shape)`` for ``null`` or ``shape``; a tuple of strings
for one of those strings.

``check(value, shape)`` names the JSON path of the first part of a
document that does not fit its shape. ``dumps(value, shape)`` checks a value
against the same shape and then writes it, in the shape's field order with
two-space indentation, so the reader accepts the layout of every document
the writer writes.
"""

from __future__ import annotations

import json
from functools import partial
from json.encoder import encode_basestring
from math import isfinite
from typing import Any, Callable, Iterator, NamedTuple

from .errors import SchemaError


class Nullable(NamedTuple):
    shape: Any


class _NonFinite(str):
    """NaN, Infinity or -Infinity as loaded: not JSON (RFC 8259 section 6), so no shape accepts one and check() names its path."""

    __repr__ = str.__str__


def load_json(document: bytes | str, what: str = "document") -> Any:
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{what} is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(document, parse_constant=_NonFinite)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{what} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc


def check(value: Any, shape: Any) -> None:
    """Raise SchemaError, naming the JSON path ("$.a[2].b"), at the first part of value that does not match shape."""
    try:
        _check(value, shape)
    except _Mismatch as exc:
        raise SchemaError("$" + "".join(reversed(exc.path)) + f": {exc}") from None


class _Mismatch(Exception):
    """A problem on its way up to check(); each level appends its path step, so no path is built unless one fails."""

    def __init__(self, problem: str):
        super().__init__(problem)
        self.path: list[str] = []


_EXPECTED = {str: "a string", int: "an integer", float: "a number", list: "an array", dict: "an object"}
_JSON_TYPES = {str: "string", int: "integer", float: "number", bool: "boolean", list: "array", dict: "object", type(None): "null"}


def _wrong(value: Any, expected: type) -> _Mismatch:
    got = value if type(value) is _NonFinite else _JSON_TYPES.get(type(value), type(value).__name__)  # a written value may be no JSON type
    return _Mismatch(f"expected {_EXPECTED[expected]}, got {got}")


def _check(value: Any, shape: Any) -> None:
    kind = type(shape)
    if kind is type:
        if type(value) is not shape:
            raise _wrong(value, shape)
        if shape is float and not isfinite(value):
            raise _Mismatch(f"expected a number, got {json.dumps(value)}")  # NaN, Infinity or -Infinity, as a loaded one is named
    elif kind is Nullable:
        if value is not None:
            _check(value, shape.shape)
    elif kind is tuple:
        if value not in shape:
            raise _Mismatch(f"must be one of {shape}, got {value!r}")
    elif kind is list:
        if type(value) is not list:
            raise _wrong(value, list)
        _check_each(enumerate(value), value, shape[0], "[{}]")
    elif type(value) is not dict:
        raise _wrong(value, dict)
    elif str in shape:
        _check_each(value.items(), value.values(), shape[str], ".{}")
    elif value.keys() != shape.keys():
        unknown = sorted(value.keys() - shape.keys())
        if unknown:
            raise _Mismatch(f"unknown field(s): {', '.join(unknown)}")
        raise _Mismatch(f"missing field(s): {', '.join(key for key in shape if key not in value)}")
    else:
        try:
            for key, field_shape in shape.items():
                field = value[key]
                if type(field) is not field_shape or field_shape is float and not isfinite(field):  # a matching leaf needs no call
                    _check(field, field_shape)
        except _Mismatch as exc:
            exc.path.append(f".{key}")
            raise


def _check_each(pairs, values, shape: Any, step: str) -> None:
    """Check the elements of an array or the values of a map; pairs gives (index or key, value)."""
    if type(shape) is type and {*map(type, values)} <= {shape} and (shape is not float or all(map(isfinite, values))):
        return  # every leaf matches: the common case, without a Python-level call per value
    try:
        for key, item in pairs:
            _check(item, shape)
    except _Mismatch as exc:
        exc.path.append(step.format(key))
        raise


def dumps(value: Any, shape: Any) -> bytes:
    """Write value as UTF-8 JSON laid out by shape: two-space indentation, fields in the shape's order, a final newline.

    value is first checked against shape, so a value the reader would reject
    (a boolean where an integer belongs, a NaN, a missing field) raises
    SchemaError, naming its JSON path, instead of being written. For a value
    that passes, with its records' fields in the shape's order, the bytes are
    those of ``json.dumps(value, indent=2, ensure_ascii=False) + "\n"``.
    """
    check(value, shape)
    # Compiling the shape takes tens of microseconds, so each call compiles its own and no cache outlives it.
    return b"".join(map(str.encode, _pieces(value, shape)))


def _pieces(value: Any, shape: Any) -> Iterator[str]:
    """The text of a checked value, final newline included, in pieces that dumps encodes one by one and joins once.

    A record comes field by field, and an array or map field element by
    element, so the only copy of the whole text is the bytes dumps returns.
    Joining a field on its own and copying it into the document made two to
    four copies of a 25k-row report's 15 MB participants array, and how many
    were alive at once depended on how the allocator reused freed blocks, so
    the peak memory of a write moved by 15 MB from one input to the next.
    """
    if type(shape) is not dict or str in shape:
        yield _writer(shape, "\n")(value)
    else:
        for prefix, name, field in _fields(shape, "\n"):
            yield prefix
            field_value = value[name]
            if (type(field) is list or type(field) is dict and str in field) and field_value:
                items, open_, separator, close, _ = _elements(field, "\n  ")
                elements = items(field_value)
                yield open_
                yield next(elements)
                for element in elements:
                    yield separator
                    yield element
                yield close
            else:
                yield _writer(field, "\n  ")(field_value)
        yield "\n}"
    yield "\n"


_LEAF_WRITERS = {str: encode_basestring, int: int.__repr__, float: float.__repr__}


def _writer(shape: Any, pad: str) -> Callable[[Any], str]:
    """Compile shape into a function that writes one checked value of it; pad is the newline and indentation of the value's own line."""
    kind = type(shape)
    if kind is type:
        return _LEAF_WRITERS[shape]
    if kind is tuple:
        return encode_basestring
    if kind is Nullable:
        write = _writer(shape.shape, pad)
        return lambda value: "null" if value is None else write(value)
    if kind is list or str in shape:
        return partial(_container, *_elements(shape, pad))
    fields = [(prefix, name, _writer(field, pad + "  ")) for prefix, name, field in _fields(shape, pad)]
    close = pad + "}"
    return lambda value: "".join([prefix + write(value[name]) for prefix, name, write in fields]) + close


def _fields(shape: dict, pad: str) -> list[tuple[str, str, Any]]:
    """Each field of a record shape: the text before its value, its name and its shape."""
    inner = pad + "  "
    return [(("," if i else "{") + inner + encode_basestring(name) + ": ", name, field) for i, (name, field) in enumerate(shape.items())]


def _elements(shape: Any, pad: str) -> tuple[Callable[[Any], Iterator[str]], str, str, str, str]:
    """An array or map shape: a function giving the text of each element or entry, the text before the first and before each later one, the closing text, and the empty container."""
    inner = pad + "  "
    if type(shape) is list:
        return partial(map, _writer(shape[0], inner)), "[" + inner, "," + inner, pad + "]", "[]"
    write_value = _writer(shape[str], inner)

    def entries(value: dict) -> Iterator[str]:
        return map("{}: {}".format, map(encode_basestring, value), map(write_value, value.values()))

    return entries, "{" + inner, "," + inner, pad + "}", "{}"


def _container(items: Callable[[Any], Iterator[str]], open_: str, separator: str, close: str, empty: str, value: Any) -> str:
    """An array or map: items gives the text of each element or entry, one C-level map over the leaf writers for leaves."""
    return "".join((open_, separator.join(items(value)), close)) if value else empty
