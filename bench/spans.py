"""In-memory span recorder that times bmlab's layers from outside.

The recorder replaces public functions of the ``bmlab`` modules with
timing wrappers while it is installed, and restores them on exit.  A
``from .x import y`` import binds ``y`` in the importing module, so every
name is wrapped where the caller looks it up (``bmlab.density.gamma_line``
and ``bmlab.cli.gamma_line`` are two bindings of one function).  A span
never opens inside a span of the same name: recursive calls such as
``bmlab._json.dumps`` and a function reached through two bindings are
timed once, at the outermost call.

Each span records its name, start, end, parent span and the id of the
``run(argv)`` call it belongs to.  Spans stay in memory; ``write`` dumps
them as JSON Lines once the run is over.  A target that the program no
longer has is listed in ``unwrapped``, and the metrics of its span read
None rather than a misleading 0.
"""

from __future__ import annotations

import importlib
import json
import math
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    parent: int | None
    call: int | None
    name: str
    start: float
    end: float
    attrs: dict | None


def _verify_evals(args, kwargs, result):
    mu = args[0] if args else kwargs["mu"]
    interval = args[1] if len(args) > 1 else kwargs["interval"]
    step = float(args[2] if len(args) > 2 else kwargs["grid_step"])
    lo, hi = (interval.left, interval.right) if hasattr(interval, "left") else interval
    grid = int(math.floor((float(hi) - float(lo)) / step)) + 1
    return {"evals": grid * len(mu)}


def _trials(args, kwargs, result):
    decisive = sum(1 for t in result.trials if t.verdict in ("Yes", "No"))
    return {"trials": len(result.trials), "decisive": decisive}


def _points(args, kwargs, result):
    return {"points": len(result)}


def _components(args, kwargs, result):
    return {"components": len(result)}


def _json_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module[:class], attribute, span name, attribute extractor)
TARGETS = [
    ("bmlab.cli", "parse_generator", "sequences.load", _points),
    ("bmlab.sequences:PiecewiseLinear", "grid_on", "sequences.grid_on", None),
    ("bmlab.density", "gamma_line", "sequences.gamma_line", None),
    ("bmlab.cli", "gamma_line", "sequences.gamma_line", None),
    ("bmlab.envelope", "bm_family", "envelope.bm_family", _components),
    ("bmlab.cli", "bm_family", "envelope.bm_family", _components),
    ("bmlab.envelope", "classify_short_long", "envelope.classify", None),
    ("bmlab.density", "classify_short_long", "envelope.classify", None),
    ("bmlab.cli", "classify_short_long", "envelope.classify", None),
    ("bmlab.density", "is_almost_decreasing", "envelope.is_almost_decreasing", None),
    ("bmlab.cli", "family_to_csv", "envelope.csv", None),
    ("bmlab.cli", "family_from_csv", "envelope.csv", None),
    ("bmlab.cli", "interior_density", "density.interior_density", _trials),
    ("bmlab.cli", "null_ratio_witness", "density.witness", None),
    ("bmlab.cli", "lattice_gap_measure", "gap.design", None),
    ("bmlab.gap", "lattice_gap_measure", "gap.design", None),
    ("bmlab.cli", "verify_gap", "gap.verify", _verify_evals),
    ("bmlab.gap", "gram_matrix", "gap.gram", None),
    ("bmlab.cli", "min_gap_residual", "gap.probe", None),
    ("bmlab.cli", "cauchy_decay", "gap.cauchy", None),
    ("bmlab.cli", "type_estimate", "zerotype.type_estimate", None),
    ("bmlab.cli", "log_abs_cos", "zerotype.log_modulus", None),
    ("bmlab.cli", "log_abs_qcos", "zerotype.log_modulus", None),
    ("bmlab._json", "dumps", "cli.emit", _json_bytes),
]

RUN_SPAN = "cli.run"
# spans whose peak of newly allocated memory (tracemalloc, which numpy
# reports its array buffers to) is recorded as the attribute "bytes"
MEMORY_SPANS = {"gap.design"}


class Tracer:
    """Span recorder; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call: int | None = None
        self.unwrapped: list[str] = []
        self.missing: set[str] = set()  # span names with an unwrapped binding
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.unwrapped = []
        self.missing = set()
        for where, attr, name, extract in TARGETS:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.unwrapped.append(f"{where}.{attr}")
                self.missing.add(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extract))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def timed(self, name, fn, attrs, args, kwargs=None):
        """fn(*args, **kwargs) inside a span; attrs(args, kwargs, result) adds counts."""
        kwargs = kwargs or {}
        stack = self._stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        memory = name in MEMORY_SPANS and not tracemalloc.is_tracing()
        if memory:
            tracemalloc.start()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            # children were appended when they closed, so this span is last
            self.spans.append(Span(sid, parent, self.call, name, start, end, None))
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.spans[-1].attrs = {"bytes": peak}
        if attrs is not None:
            try:
                self.spans[-1].attrs = (self.spans[-1].attrs or {}) | attrs(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                pass  # a changed signature loses the count, not the run
        return result

    def _wrap(self, name, fn, extract):
        def wrapper(*args, **kwargs):
            return self.timed(name, fn, extract, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header, "unwrapped": self.unwrapped}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


# per-layer metrics: (name, unit, span, what).  ``what`` is "total" (summed
# span time), "self" (span time less its child spans), "calls", the name of
# an attribute summed over the spans, or "num/den", a ratio of two sums
LAYER_METRICS = [
    ("sequences.load_s", "s", "sequences.load", "total"),
    ("sequences.points", "count", "sequences.load", "points"),
    ("sequences.grid_on_s", "s", "sequences.grid_on", "total"),
    ("sequences.grid_on_calls", "count", "sequences.grid_on", "calls"),
    ("sequences.gamma_line_s", "s", "sequences.gamma_line", "total"),
    ("envelope.bm_family_s", "s", "envelope.bm_family", "total"),
    ("envelope.bm_family_calls", "count", "envelope.bm_family", "calls"),
    ("envelope.components", "count", "envelope.bm_family", "components"),
    ("envelope.classify_s", "s", "envelope.classify", "total"),
    ("envelope.almost_decreasing_self_s", "s", "envelope.is_almost_decreasing", "self"),
    ("envelope.csv_s", "s", "envelope.csv", "total"),
    ("density.bisection_self_s", "s", "density.interior_density", "self"),
    ("density.trials", "count", "density.interior_density", "trials"),
    ("density.decisive_ratio", "ratio", "density.interior_density", "decisive/trials"),
    ("density.witness_s", "s", "density.witness", "total"),
    ("gap.design_s", "s", "gap.design", "total"),
    ("gap.design_bytes", "bytes", "gap.design", "bytes"),
    ("gap.verify_s", "s", "gap.verify", "total"),
    ("gap.verify_evals", "count", "gap.verify", "evals"),
    ("gap.gram_s", "s", "gap.gram", "total"),
    ("gap.probe_self_s", "s", "gap.probe", "self"),
    ("gap.cauchy_self_s", "s", "gap.cauchy", "self"),
    ("zerotype.type_estimate_s", "s", "zerotype.type_estimate", "total"),
    ("zerotype.log_modulus_calls", "count", "zerotype.log_modulus", "calls"),
    ("cli.overhead_s", "s", RUN_SPAN, "self"),
    ("cli.emit_s", "s", "cli.emit", "total"),
    ("cli.json_bytes", "bytes", "cli.emit", "bytes"),
    ("trace.spans", "count", None, "calls"),
]
LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS} | {"trace.overhead_s": "s"}

# metrics that must repeat exactly across runs at one seed
COUNT_METRICS = [k for k, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]


def layer_metrics(spans: list[Span], missing=frozenset()) -> dict[str, float | None]:
    """Per-layer metrics of one pass; None where a span in ``missing`` lost a binding."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    sums: dict[tuple[str, str], float] = defaultdict(float)
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    for s in spans:
        d = s.end - s.start
        total[s.name] += d
        self_time[s.name] += d - covered[s.id]
        calls[s.name] += 1
        calls[None] += 1
        for key, value in (s.attrs or {}).items():
            sums[(s.name, key)] += value

    def value(span, what):
        if span in missing:
            return None
        if what == "total":
            return total[span]
        if what == "self":
            return self_time[span]
        if what == "calls":
            return calls[span]
        num, _, den = what.partition("/")
        if den:
            return sums[(span, num)] / sums[(span, den)] if sums[(span, den)] else 0.0
        return sums[(span, num)]

    return {name: value(span, what) for name, _, span, what in LAYER_METRICS}
