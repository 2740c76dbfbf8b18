"""Strict JSON documents: each layout is declared once, as a shape, which both checks what is read and lays out what is written.

A shape is a nested literal: ``str``, ``int`` or ``float`` for a JSON
string, integer (not ``true``/``false``) or finite number (not an integer);
``[item]`` for an array of ``item``; ``{"field": shape, ...}`` for an
object with exactly these fields; ``{str: shape}`` for an object used as a
map; ``Nullable(shape)`` for ``null`` or ``shape``; a tuple of strings
for one of those strings.

``check(value, shape)`` names the JSON path of the first part of a
document that does not fit its shape. One fit test decides what a shape
admits: it takes a list of values apart into leaf columns, one C-level pass
each. Only a document that does not fit is walked, with the same test on each
element and field in turn, to name the first misfit and word its problem.

``dumps(value, shape)`` checks a value against the same shape and then
writes it, in the shape's field order with two-space indentation, so the
reader accepts the layout of every document the writer writes. A record
whose fields are leaves, or records of such fields, compiles into one ``%``
template with a slot per leaf; an array or map of such records fills it once
per element, from one column of texts per leaf. Floats are formatted through
one repr cache per call, because scores repeat.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring
from math import isfinite
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

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
        return json.loads(document, parse_constant=_NonFinite, object_pairs_hook=partial(_object, what))
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{what} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc


def _object(what: str, pairs: list[tuple[str, Any]]) -> dict:
    """A loaded object; a name given twice is a SchemaError, where json.loads would keep the last value."""
    value = dict(pairs)
    if len(value) < len(pairs):
        seen: set[str] = set()
        name = next(name for name, _ in pairs if name in seen or seen.add(name))
        raise SchemaError(f"{what} repeats the name {name!r} in one object")
    return value


def check(value: Any, shape: Any) -> None:
    """Raise SchemaError, naming the JSON path ("$.a[2].b"), at the first part of value that does not match shape."""
    if not _all_fit([value], shape):
        raise SchemaError(_misfit(value, shape, "$"))


_EXPECTED = {str: "a string", int: "an integer", float: "a number", list: "an array", dict: "an object"}
_JSON_TYPES = {str: "string", int: "integer", float: "number", bool: "boolean", list: "array", dict: "object", type(None): "null"}


def _all_fit(values: list, shape: Any) -> bool:
    """Whether every one of a list of values fits shape, by C-level passes over its leaf columns: the one rule of what a shape admits."""
    kind = type(shape)
    if kind is type:
        return {*map(type, values)} <= {shape} and (shape is not float or all(map(isfinite, values)))
    if kind is tuple:
        return all(map(shape.__contains__, values))
    if kind is Nullable:
        return _all_fit([value for value in values if value is not None], shape.shape)
    if not {*map(type, values)} <= {kind}:
        return False
    if kind is list:
        return _all_fit(values[0] if len(values) == 1 else list(chain.from_iterable(values)), shape[0])
    if str in shape:
        return _all_fit(list(chain.from_iterable(map(dict.values, values))), shape[str])
    names = tuple(shape)
    if not (all(map(names.__eq__, map(tuple, values))) or all(map(shape.keys().__eq__, map(dict.keys, values)))):  # the fields in order, else in any order
        return False
    fields = [*shape.values()]
    if len(fields) > 1 and fields.count(fields[0]) == len(fields):  # one shape for every field, as in a record of scores: one column
        return _all_fit(list(chain.from_iterable(map(dict.values, values))), fields[0])
    return all(_all_fit(list(map(itemgetter(name), values)), field) for name, field in shape.items())


def _misfit(value: Any, shape: Any, path: str) -> str:
    """The JSON path and problem of the first misfit in value, which does not fit shape, found with _all_fit alone."""
    kind = type(shape)
    if kind is Nullable:  # value is not None, or it would fit
        return _misfit(value, shape.shape, path)
    if kind is tuple:
        return f"{path}: must be one of {shape}, got {value!r}"
    if type(value) is shape:  # a float that is NaN or infinite, named as a loaded one is
        return f"{path}: expected a number, got {json.dumps(value)}"
    expected = shape if kind is type else kind
    if type(value) is not expected:
        got = value if type(value) is _NonFinite else _JSON_TYPES.get(type(value), type(value).__name__)  # a written value may be no JSON type
        return f"{path}: expected {_EXPECTED[expected]}, got {got}"
    if kind is list:
        parts = zip(map("[{}]".format, range(len(value))), value, repeat(shape[0]))
    elif str in shape:
        parts = zip(map(".{}".format, value), value.values(), repeat(shape[str]))
    elif value.keys() == shape.keys():
        parts = ((f".{name}", value[name], field) for name, field in shape.items())
    elif value.keys() - shape.keys():
        return f"{path}: unknown field(s): {', '.join(sorted(value.keys() - shape.keys()))}"
    else:
        return f"{path}: missing field(s): {', '.join(name for name in shape if name not in value)}"
    return next(_misfit(part, part_shape, path + step) for step, part, part_shape in parts if not _all_fit([part], part_shape))


def dumps(value: Any, shape: Any) -> bytes:
    """Write value as UTF-8 JSON laid out by shape: two-space indentation, fields in the shape's order, a final newline.

    value is first checked against shape, so a value the reader would reject
    (a boolean where an integer belongs, a NaN, a missing field) raises
    SchemaError, naming its JSON path, instead of being written. For a value
    that passes, with its maps' keys in the order they should be written, the
    bytes are those of ``json.dumps(value, indent=2, ensure_ascii=False) + "\n"``;
    a record is written in its shape's field order, whatever its own order.

    The text comes in pieces, a record field by field and an array or map
    element by element, which are joined 128 at a time, encoded, and the bytes
    joined once, so the only copy of the whole text is the bytes returned.
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
    pieces = chain(_writer(shape, "\n", Reprs())(value), ("\n",))
    return b"".join(map(str.encode, iter(lambda: "".join(islice(pieces, 128)), "")))  # no piece is empty, so only the end joins to ""


class Reprs(dict):
    """repr(value) for each float looked up, computed once per distinct value.

    Zeros are not kept: 0.0 and -0.0 are equal keys but have different reprs.
    """

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def _writer(shape: Any, pad: str, reprs: Reprs) -> Callable[[Any], Iterable[str]]:
    """Compile shape into a function giving the text of one checked value in pieces; pad is the newline and indentation of the value's own line."""
    texts = _texts(shape, pad, reprs)
    if texts is not None:
        return lambda value: texts((value,))
    if type(shape) is Nullable:
        write = _writer(shape.shape, pad, reprs)
        return lambda value: ("null",) if value is None else write(value)
    inner = pad + "  "
    if type(shape) is list or str in shape:
        is_map = type(shape) is dict
        item = shape[str] if is_map else shape[0]
        item_texts = _texts(item, inner, reprs) or partial(_joined_each, _writer(item, inner, reprs))
        empty = "{}" if is_map else "[]"
        open_, separator, close = empty[0] + inner, "," + inner, pad + empty[1]

        def container(value: Any) -> Iterable[str]:
            if not value:
                return (empty,)
            elements = map("{}: {}".format, map(encode_basestring, value), item_texts(value.values())) if is_map else item_texts(value)
            return chain((open_, next(elements)), chain.from_iterable(zip(repeat(separator), elements)), (close,))

        return container
    fields = [(("," if i else "{") + inner + encode_basestring(name) + ": ", name, _writer(field, inner, reprs)) for i, (name, field) in enumerate(shape.items())]
    close = pad + "}"

    def record(value: dict) -> Iterator[str]:
        for prefix, name, write in fields:
            yield prefix
            yield from write(value[name])
        yield close

    return record


def _joined_each(write: Callable[[Any], Iterable[str]], values: Iterable) -> Iterator[str]:
    """The text of each of values, joined from the pieces write gives: the elements of a container that no template writes."""
    return map("".join, map(write, values))


_LEAF_TEXTS = {str: encode_basestring, int: int.__repr__}


def _texts(shape: Any, pad: str, reprs: Reprs) -> Callable[[Any], Iterator[str]] | None:
    """For a leaf, or a record whose fields are leaves or such records, a function giving the text of each of a sequence of checked values; None for any other shape.

    A record's texts fill one template, one slot per leaf, from one column of
    leaf texts per slot: one template fill per value, and no Python-level call
    but for the repr cache's misses.
    """
    compiled = _template(shape, pad, reprs)
    if compiled is None:
        return None
    template, columns = compiled
    if template == "%s":
        return lambda values: columns(values)[0]

    def texts(values: Any) -> Iterator[str]:
        leaf_columns = columns(values)
        return map(template.__mod__, zip(*leaf_columns) if leaf_columns else repeat((), len(values)))

    return texts


def _template(shape: Any, pad: str, reprs: Reprs) -> tuple[str, Callable[[Any], list[Iterator[str]]]] | None:
    """The % template of a leaf or of a record of leaves and such records, and a function giving its leaves' columns of texts for a sequence of values."""
    kind = type(shape)
    if kind is type or kind is tuple:
        write = reprs.__getitem__ if shape is float else _LEAF_TEXTS.get(shape, encode_basestring)
        return "%s", lambda values: [map(write, values)]
    if kind is not dict or str in shape:
        return None
    inner = pad + "  "
    parts, fields = [], []
    for name, field in shape.items():
        compiled = _template(field, inner, reprs)
        if compiled is None:
            return None
        parts.append(inner + encode_basestring(name).replace("%", "%%") + ": " + compiled[0])
        fields.append((itemgetter(name), compiled[1], compiled[0] != "%s"))

    def columns(values: Any) -> list[Iterator[str]]:
        # A record field's column is read once per leaf under it, so it is a list; a leaf's is read once.
        return [column for get, leaf_columns, is_record in fields for column in leaf_columns(list(map(get, values)) if is_record else map(get, values))]

    return ("{" + ",".join(parts) + pad + "}" if parts else "{}"), columns
