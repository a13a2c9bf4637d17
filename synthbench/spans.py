"""Span tracing of the toolkit's public functions, installed from outside.

``install`` replaces each traced function, wherever an ``efasynth`` module
holds a reference to it, with a wrapper that records a span: name, start,
end and the span that was open when it was called.  Nothing inside the
toolkit changes; with tracing off nothing is installed at all.

Calls into the BDD manager are too many to keep one by one (encoding and
emission make tens of thousands per model), so they are counted and timed
per operator instead of stored; their time still counts as child time of
the enclosing span, which keeps every layer's self time exact.

``FixedPointEngine.reach`` is split into stages by its arguments: backward
from the marked states is the nonblocking stage, any other backward call
(over the uncontrollable edges) the controllability stage, and a forward
call the state count, since both presets leave the forward stage off.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

__all__ = ["ROUND_LAYERS", "Tracer", "install", "layer_of"]

# (span name, module, attribute); every reference to the same function
# object in any loaded efasynth module is replaced.
FUNCTIONS = (
    ("parser.parse", "efasynth.parser", "parse_spec"),
    ("parser.unparse", "efasynth.parser", "unparse"),
    ("model.validate", "efasynth.model", "validate"),
    ("transform.plantify", "efasynth.transform", "plantify"),
    ("transform.linearize", "efasynth.transform", "linearize"),
    ("varorder.order", "efasynth.varorder", "compute_order"),
    ("varorder.wes", "efasynth.varorder", "wes"),
    ("encode.build", "efasynth.encode", "build_symbolic"),
    ("synthesis.synthesize", "efasynth.synthesis", "synthesize"),
    ("emit.emit", "efasynth.emit", "emit"),
    ("emit.lower", "efasynth.emit", "lower_bdd_to_expr"),
)

BDD_METHODS = (
    "apply", "negate", "ite", "exists", "replace", "restrict",
    "relnext", "relprev", "sat_count",
)

# The layers a round passes through, from the linearized model to the
# emitted text; ``model`` and ``transform`` run only during set-up.
ROUND_LAYERS = ("parser", "varorder", "encode", "synthesis", "bdd", "emit")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Open-span stack plus running totals per span name.

    ``total`` and ``self_time`` are seconds summed over every finished call
    of a name, ``calls`` the number of calls; a caller takes differences
    of these between two points to measure the interval in between.  Time
    spent in functions wrapped by :meth:`hide` counts in neither.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        # [id, name, start, child seconds, hidden seconds]
        self._stack: list[list] = []
        self._next_id = 1

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0, 0.0])
        self._next_id += 1

    def end(self, keep: bool = True) -> None:
        end = time.perf_counter()
        span_id, name, start, child, hidden = self._stack.pop()
        duration = end - start - hidden
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if keep:
            self.spans.append((span_id, name, start, end, parent))

    def wrap(self, name: str, fn, keep: bool = True):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(keep)

        traced.__wrapped__ = fn
        return traced

    def hide(self, fn):
        """Wrap ``fn`` so that its time counts in no open span, for work the
        benchmark itself does while a span is open."""
        def hidden(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                for entry in self._stack:
                    entry[4] += spent

        return hidden

    def snapshot(self) -> tuple[dict, dict, dict]:
        return dict(self.calls), dict(self.total), dict(self.self_time)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
        }


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "efasynth" and not name.startswith("efasynth."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the already imported toolkit."""
    from efasynth.bdd import BddManager
    from efasynth.synthesis import FixedPointEngine

    for span, module, attr in FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        _replace_everywhere(original, tracer.wrap(span, original))

    for method in BDD_METHODS:
        original = getattr(BddManager, method)
        setattr(BddManager, method,
                tracer.wrap(f"bdd.{method}", original, keep=False))

    reach = FixedPointEngine.reach

    def staged_reach(engine, start, edges, restriction, backward):
        if not backward:
            stage = "synthesis.count"
        elif start == engine.sym.marked:
            stage = "synthesis.nonblocking"
        else:
            stage = "synthesis.controllability"
        tracer.begin(stage)
        try:
            return reach(engine, start, edges, restriction, backward)
        finally:
            tracer.end()

    FixedPointEngine.reach = staged_reach
