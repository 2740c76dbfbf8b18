"""Strict JSON documents: each layout is declared once, as a shape, and checked in one pass.

A shape is a nested literal: ``str``, ``int`` or ``float`` for a JSON
string, integer (not ``true``/``false``) or number (not an integer);
``[item]`` for an array of ``item``; ``{"field": shape, ...}`` for an
object with exactly these fields; ``{str: shape}`` for an object used as a
map; ``Nullable(shape)`` for ``null`` or ``shape``; a tuple of strings
for one of those strings.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

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
    got = value if type(value) is _NonFinite else _JSON_TYPES[type(value)]
    return _Mismatch(f"expected {_EXPECTED[expected]}, got {got}")


def _check(value: Any, shape: Any) -> None:
    kind = type(shape)
    if kind is type:
        if type(value) is not shape:
            raise _wrong(value, shape)
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
                if type(value[key]) is not field_shape:  # a matching leaf needs no call
                    _check(value[key], field_shape)
        except _Mismatch as exc:
            exc.path.append(f".{key}")
            raise


def _check_each(pairs, values, shape: Any, step: str) -> None:
    """Check the elements of an array or the values of a map; pairs gives (index or key, value)."""
    if type(shape) is type and {*map(type, values)} <= {shape}:
        return  # every leaf matches: the common case, without a Python-level call per value
    try:
        for key, item in pairs:
            _check(item, shape)
    except _Mismatch as exc:
        exc.path.append(step.format(key))
        raise


def dumps(obj: Any) -> bytes:
    """Serialize with a fixed layout so identical values yield identical bytes."""
    return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
