"""Span tracing around the public functions of each ``food`` layer.

The tracer replaces a function where it is bound, both in the namespace the
benchmark calls through and in the ``food`` modules that call it, so nothing
under ``src/`` changes.  Every wrapped call pushes a frame on one stack; on
exit its duration is added to the parent's child time, and its self time
(duration minus child time) to its layer's total.  Spans are kept in memory
and written once, when the benchmark ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import types
from time import perf_counter

# (layer name, home module, attribute, food modules whose binding is replaced,
#  whether each call keeps a span record).  Calls made once per evaluation
# step are aggregated into their layer's totals without a span record, so the
# trace of a run stays a few megabytes.
LAYERS = (
    ("parser.parse", "food.parser", "parse", ("food.fuzz",), True),
    ("syntax.desugar", "food.syntax", "desugar", (), True),
    ("syntax.canonicalize", "food.syntax", "canonicalize", ("food.fuzz",), True),
    ("syntax.subst", "food.syntax", "subst", ("food.interp",), False),
    ("context.preprocess", "food.context", "preprocess", ("food.fuzz", "food.transform"), True),
    ("context.restrict", "food.context", "restrict", ("food.fuzz", "food.transform"), True),
    ("context.translate_ctx", "food.context", "translate_ctx", ("food.fuzz",), True),
    ("wellformed.check", "food.wellformed", "check", ("food.fuzz",), True),
    ("transform.transform", "food.transform", "transform", ("food.fuzz",), True),
    ("transform.transform_expr", "food.transform", "transform_expr", ("food.fuzz",), False),
    ("pretty.pretty", "food.pretty", "pretty", ("food.fuzz",), True),
    ("interp.eval_program", "food.interp", "eval_program", (), True),
    ("interp.dtr_body", "food.interp", "dtr_body", ("food.interp",), False),
    ("interp.csm_body", "food.interp", "csm_body", ("food.interp",), False),
    ("fuzz.gen_program", "food.fuzz", "gen_program", ("food.fuzz",), True),
    ("fuzz.check_properties", "food.fuzz", "check_properties", ("food.fuzz",), True),
    ("fuzz.shrink", "food.fuzz", "shrink", ("food.fuzz",), True),
    ("fuzz.run_properties", "food.fuzz", "run_properties", (), True),
)

# text size handled by a call, for the kB/s figures; counted on success only
SIZES = {
    "parser.parse": lambda args, result: len(args[0]),
    "pretty.pretty": lambda args, result: len(result),
}


class LayerStats:
    __slots__ = ("calls", "self_s", "failed", "chars")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.chars = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple[str, float, float, int, int]] = []
        # [span id, seconds covered by child spans]; the bottom frame is the root
        self._stack: list[list] = [[0, 0.0]]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, keep_span: bool = True):
        stats = self.stats.setdefault(name, LayerStats())
        stack, spans, ids = self._stack, self.spans, self._ids
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if keep_span:
                    spans.append((name, start, end, frame[0], parent[0]))
            if size is not None:
                stats.chars += size(args, result)
            return result

        return traced

    def install(self, api: types.SimpleNamespace) -> types.SimpleNamespace:
        """Wrap every layer where ``food`` modules call it; return a wrapped copy of ``api``."""
        traced = types.SimpleNamespace(**vars(api))
        for name, home, attr, callers, keep_span in LAYERS:
            wrapped = self.wrap(name, getattr(sys.modules[home], attr), keep_span)
            setattr(traced, attr, wrapped)
            for module in callers:
                setattr(sys.modules[module], attr, wrapped)
        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent in self.spans:
                record = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                fh.write(json.dumps(record) + "\n")
