"""The JSON output writer: every JSON document a command writes is
`document_text(doc)`, with the repeated records of a document held as
`Records` columns.

Only the commands that write JSON import this module, so `verify` never
compiles it. The canonical JSON of a bundle manifest is
`evidence.canonical_json_bytes`, and every JSON input is read by
`evidence.load_json`.
"""

from __future__ import annotations

import json
from typing import Sequence

_encode_str = json.encoder.encode_basestring_ascii


class Records:
    """A list of like records in an output document, held by column:
    `columns[i]` holds each record's value under `keys[i]`. Iterating it
    gives its dict form, which a JSON document shows; `document_text`
    writes that form without building it."""

    __slots__ = ("keys", "columns")

    def __init__(self, keys: tuple[str, ...], columns: Sequence[Sequence]):
        self.keys, self.columns = keys, columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        keys = self.keys
        return (dict(zip(keys, row)) for row in zip(*self.columns))


def document_text(obj) -> str:
    """The text of a JSON output document: exactly
    `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, with each `Records`
    in its dict form, except that a dict key that is not a `str` raises
    TypeError and a document that contains itself RecursionError.

    A dict's shape is its depth and its keys in insertion order. The
    shape table, which lives for this one call, keeps for each shape the
    keys in sorted order, each with its encoded `,\\n<indent>"key": `
    prefix (the first one opening the dict), and the closing brace, so a
    document of many like records sorts and encodes its keys once per
    shape; a `Records` list's records are written through one template
    per shape and column kinds. A `str`, `int`, `bool` or `None` inside a
    dict or list is written inline; anything else that is no dict, list,
    tuple or `Records` goes to `json.dumps` itself. On a document of many
    records this is faster than that call even where the stdlib's C
    encoder indents (Python 3.13), and about four times as fast on 3.11.
    """
    if not isinstance(obj, _CONTAINERS):
        return json.dumps(obj) + "\n"
    out: list[str] = []
    _write_container(obj, out, 0, {})
    out.append("\n")
    return "".join(out)


_CONTAINERS = (dict, list, tuple, Records)


def _dict_shape(keys: tuple, depth: int) -> tuple[list[tuple[str, str]], str]:
    """(prefix, key) for each of `keys` in sorted order, and the closing
    brace, for a dict nested `depth` levels deep."""
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"document keys must be str, got {key!r}")
    indent = ",\n" + "  " * (depth + 1)
    members = [(f"{indent}{_encode_str(key)}: ", key) for key in sorted(keys)]
    prefix, key = members[0]
    members[0] = ("{" + prefix[1:], key)
    return members, f"\n{'  ' * depth}}}"


def _write_container(value, out: list, depth: int, shapes: dict) -> None:
    """Append the text of a dict, list, tuple or `Records` nested `depth`
    levels deep to `out`, with `shapes` the call's shape table.

    The dict and the list loop each test their members' types inline:
    one helper call per member would cost what the shape table saves.
    `str` of an exact int is its repr, and the quicker call.
    """
    append = out.append
    if not value:
        append("{}" if isinstance(value, dict) else "[]")
        return
    inner = depth + 1
    if isinstance(value, dict):
        keys = tuple(value)
        shape = shapes.get((depth, keys))
        if shape is None:
            shape = shapes[depth, keys] = _dict_shape(keys, depth)
        members, close = shape
        for prefix, key in members:
            append(prefix)
            item = value[key]
            kind = type(item)
            if kind is str:
                append(_encode_str(item))
            elif kind is int:
                append(str(item))
            elif kind is dict:
                _write_container(item, out, inner, shapes)
            elif kind is bool:
                append("true" if item else "false")
            elif item is None:
                append("null")
            elif isinstance(item, _CONTAINERS):
                _write_container(item, out, inner, shapes)
            else:
                append(json.dumps(item))
        append(close)
    elif type(value) is Records:
        _write_records(value, out, depth, shapes)
    else:
        separator = ",\n" + "  " * inner
        first = len(out)
        for item in value:
            append(separator)
            kind = type(item)
            if kind is str:
                append(_encode_str(item))
            elif kind is int:
                append(str(item))
            elif kind is dict:
                _write_container(item, out, inner, shapes)
            elif kind is bool:
                append("true" if item else "false")
            elif item is None:
                append("null")
            elif isinstance(item, _CONTAINERS):
                _write_container(item, out, inner, shapes)
            else:
                append(json.dumps(item))
        out[first] = "[" + separator[1:]
        append(f"\n{'  ' * depth}]")


def _write_records(records: Records, out: list, depth: int, shapes: dict) -> None:
    """Append the text of a non-empty `Records` list nested `depth` levels
    deep to `out`: each record through the template of its shape and column
    kinds, each sorted key's prefix then `%s` for a column of only `str`
    values, encoded by one `map`, or `%d` for one of only exact `int`s,
    which `%` writes as `str` does. Any other column writes the dict form."""
    keys, values = records.keys, records.columns
    kinds = tuple(_COLUMN_FORMATS.get(frozenset(map(type, column))) for column in values)
    if None in kinds:  # a column of another kind, or of several
        return _write_container(list(records), out, depth, shapes)
    shape = shapes.get((depth, keys, kinds))
    if shape is None:
        members, close = _dict_shape(keys, depth + 1)
        order = [keys.index(key) for _, key in members]
        template = "".join(prefix.replace("%", "%%") + kinds[i] for (prefix, _), i in zip(members, order)) + close
        shape = shapes[depth, keys, kinds] = template, order
    template, order = shape
    columns = [map(_encode_str, values[i]) if kinds[i] == "%s" else values[i] for i in order]
    separator = ",\n" + "  " * (depth + 1)
    out.extend(("[" + separator[1:], separator.join(map(template.__mod__, zip(*columns))), f"\n{'  ' * depth}]"))


_COLUMN_FORMATS = {frozenset([str]): "%s", frozenset([int]): "%d"}
