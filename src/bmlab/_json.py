"""Deterministic JSON output.

The stock json module formats floats with repr, which is already
shortest-roundtrip, but key order and numpy scalar handling vary by
caller.  This emitter pins the contract for CLI output: keys sorted,
floats rendered with %.17g (roundtrip exact, locale free), numpy
scalars and arrays coerced, non-finite floats mapped to strings since
JSON has no literals for them.
"""

from __future__ import annotations

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


def dumps(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return dumps({"re": c.real, "im": c.imag})
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        keys = sorted(str(k) for k in obj)
        lookup = {str(k): v for k, v in obj.items()}
        items = [f"{_escape(k)}: {dumps(lookup[k])}" for k in keys]
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
