"""Deterministic JSON output.

The stock json module formats floats with repr, which is already
shortest-roundtrip, but key order and numpy scalar handling vary by
caller.  This emitter pins the contract for CLI output: keys sorted,
floats rendered with %.17g (roundtrip exact, locale free), numpy
scalars and arrays coerced, non-finite floats mapped to strings since
JSON has no literals for them, and a dataclass printed as the object of
its fields, so a report's JSON keys are its field names.  Dict keys must
be str; any other key is a TypeError.

``Table``, equal-length column arrays by name in a declared order, is
the one representation of a report table, with two printers.
``sequences.write_csv`` prints it as a CSV block headed by its column
names.  ``dumps`` prints it as a JSON list of objects, one per row, with
the bytes of that list of dicts: the keys are sorted and escaped once,
each column is formatted in one pass (a float array by the float rule, a
str array by the string rule, any other column value by value through
``dumps``), and each row is one fill of a row template.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = f"{x:.17g}"
    return s


_ESCAPED = re.compile(r'["\\\x00-\x1f]')  # a quote, a backslash, a control character


def _escape_char(match) -> str:
    ch = match.group()
    return "\\" + ch if ch in '"\\' else f"\\u{ord(ch):04x}"


def _escape(s: str) -> str:
    """s as a JSON string: ``"`` and ``\\`` take a backslash, code points
    below 0x20 become ``\\u00XX``, and every other character stays."""
    return '"' + _ESCAPED.sub(_escape_char, s) + '"'


def _key(key) -> str:
    """A dict key as JSON text; a key that is not str is refused."""
    if not isinstance(key, str):
        raise TypeError(f"cannot serialize a dict key of type {type(key).__name__}")
    return _escape(key)


def fields(obj) -> dict:
    """A dataclass instance's declared fields by name; properties, cached
    or not, are not fields and never appear."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


class Table:
    """Equal-length columns by name, in the order given, each held as a numpy array."""

    def __init__(self, **columns):
        self.columns = {name: np.asarray(col) for name, col in columns.items()}

    def json(self) -> str:
        keys = sorted(self.columns)
        columns = [_column(self.columns[k]) for k in keys]
        template = "{" + ", ".join(_key(k).replace("%", "%%") + ": " + c[0] for k, c in zip(keys, columns)) + "}"
        return "[" + ", ".join(map(template.__mod__, zip(*(c[1] for c in columns)))) + "]"


def _column(col: np.ndarray):
    """(conversion, values) for a column array: finite floats go to ``%.17g`` as
    they are, strings to their distinct values escaped once, anything else cell
    by cell through ``dumps``."""
    if col.dtype.kind == "f":
        values = col.astype(float, copy=False)
        return ("%.17g", values.tolist()) if np.isfinite(values).all() else ("%s", map(_fmt_float, values.tolist()))
    values = col.tolist()
    if col.dtype.kind == "U":
        return "%s", map({v: _escape(v) for v in set(values)}.__getitem__, values)
    return "%s", map(dumps, values)


def dumps(obj) -> str:
    if isinstance(obj, float):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join([_key(k) + ": " + dumps(obj[k]) for k in sorted(obj)]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(dumps, obj)) + "]"
    if isinstance(obj, Table):
        return obj.json()
    if obj is None:
        return "null"
    if obj is True or obj is False or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if dataclasses.is_dataclass(obj):
        return dumps(fields(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")
