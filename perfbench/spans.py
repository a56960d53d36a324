"""Spans around calls into the package's public functions, from outside.

A traced run installs :class:`SpanRecorder` wrappers over the public
entry points of each layer (``install``).  A wrapper records a span only
while the recorder has an open op, so work the benchmark does between
ops (oracle checks, replays) never lands in the layer totals.  Spans are
kept in memory and written once, at the end of the run.

Layer time is *self* time: a span's duration minus the part of it its
child spans cover, so nested layers (``protect`` around ``verify_module``,
``CPU.__init__`` work inside a decode) are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute, count) -- ``attribute`` is ``Class.method``
#: or a module-level function; ``count`` names the counter fed from the
#: call's result, if any.
TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("frontend.compile", "repro.frontend.driver", "compile_source", "frontend.ir_instructions"),
    ("ir.verify", "repro.ir.verifier", "verify_module", None),
    ("transforms.mem2reg", "repro.transforms.mem2reg", "Mem2Reg.run", None),
    ("analysis.vulnerability", "repro.analysis.manager", "AnalysisManager.vulnerability_report", None),
    ("analysis.vulnerability", "repro.core.vulnerability", "VulnerabilityAnalysis.analyze", None),
    ("core.clone_remap", "repro.ir.module", "Module.clone", None),
    ("core.clone_remap", "repro.core.remap", "remap_report", None),
    ("transforms.passes", "repro.core.framework", "protect", "core.pa_static"),
    ("perf.cache.io", "repro.perf.cache", "CompilationCache.key_for", None),
    ("perf.cache.io", "repro.perf.cache", "CompilationCache.load", None),
    ("perf.cache.io", "repro.perf.cache", "CompilationCache.store", None),
    ("perf.cache.io", "repro.ir.printer", "print_module", None),
    ("hardware.decode", "repro.hardware.decoder", "decode_module", None),
    ("hardware.trace_compile", "repro.hardware.tracec", "trace_compile", None),
    ("hardware.execute", "repro.hardware.cpu", "CPU.run", "hardware.steps"),
)

#: Layers whose self time the benchmark reports, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


def _count_of(counter: str, result: Any) -> int:
    if counter == "frontend.ir_instructions":
        return result.instruction_count()
    if counter == "core.pa_static":
        return result.pa_static
    if counter == "hardware.steps":
        return result.steps
    raise KeyError(counter)


class SpanRecorder:
    """In-memory spans of the current op, with self-time accounting."""

    def __init__(self) -> None:
        #: finished spans: (op, id, name, layer, start, end, parent id)
        self.spans: List[Tuple[Any, int, str, str, float, float, int]] = []
        self._next_id = 0
        self.self_s: Dict[str, float] = {}
        #: counters over the ops opened with ``count=True`` only
        self.counts: Dict[str, int] = {}
        #: the same counters over every op
        self.totals: Dict[str, int] = {}
        #: top-level span seconds per op, for span coverage
        self.covered_s: Dict[Any, float] = {}
        self._op: Any = None
        self._count_op = False
        #: open spans: [span id, seconds covered by its children]
        self._stack: List[List[Any]] = []

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op: Any, count: bool = False) -> None:
        """Open op ``op``; ``count`` feeds the deterministic counters."""
        self._op = op
        self._count_op = count
        self.covered_s.setdefault(op, 0.0)

    def end_op(self) -> None:
        self._op = None
        self._count_op = False

    # -- spans -----------------------------------------------------------------

    def call(self, name: str, layer: str, counter: Optional[str], fn, args, kwargs):
        if self._op is None:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._finish(span_id, name, layer, start, end, frame[1], parent)
        if counter is not None:
            value = _count_of(counter, result)
            self.totals[counter] = self.totals.get(counter, 0) + value
            if self._count_op:
                self.counts[counter] = self.counts.get(counter, 0) + value
        return result

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """Add a top-level span timed by the caller (a client round trip)."""
        if self._op is None or self._stack:
            raise RuntimeError("record() needs an open op and no open span")
        span_id = self._next_id
        self._next_id += 1
        self._finish(span_id, name, layer, start, end, 0.0, -1)

    def _finish(self, span_id, name, layer, start, end, child_s, parent) -> None:
        duration = end - start
        self.spans.append((self._op, span_id, name, layer, start, end, parent))
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.covered_s[self._op] = self.covered_s.get(self._op, 0.0) + duration

    def export(self) -> Dict[str, Any]:
        """Totals and spans as JSON-able data, for a traced child process."""
        return {
            "self_s": self.self_s,
            "counts": self.counts,
            "totals": self.totals,
            "covered_s": sum(self.covered_s.values()),
            "spans": [list(span[1:]) for span in self.spans],
        }

    def adopt(self, child: Dict[str, Any], count: bool) -> None:
        """Fold a traced child's :meth:`export` into the open op."""
        if self._op is None:
            raise RuntimeError("adopt() outside an op")
        for layer, seconds in child["self_s"].items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        for name, value in child["totals"].items():
            self.totals[name] = self.totals.get(name, 0) + value
        if count:
            self.add_counts(child["counts"])
        self.covered_s[self._op] = self.covered_s.get(self._op, 0.0) + child["covered_s"]
        base = self._next_id
        for span_id, name, layer, start, end, parent in child["spans"]:
            self.spans.append(
                (self._op, base + span_id, name, layer, start, end,
                 base + parent if parent >= 0 else -1)
            )
        self._next_id = base + 1 + max((span[0] for span in child["spans"]), default=0)

    def add_counts(self, counts: Dict[str, int]) -> None:
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    # -- export ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as Chrome-trace complete events."""
        origin = min((span[4] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": str(op), "id": span_id, "parent": parent},
            }
            for op, span_id, name, layer, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    for part in attribute.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attribute.split(".")[-1]


def _wrapper(recorder: SpanRecorder, name, layer, counter, original) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return recorder.call(name, layer, counter, original, args, kwargs)

    return traced


def install(recorder: SpanRecorder) -> None:
    """Wrap every target for the life of the process.

    Module-level functions are replaced wherever a ``repro`` module bound
    them by name (``from .verifier import verify_module``), so callers
    that imported them directly are traced too.  Traced runs end with the
    process, so nothing is restored.
    """
    import repro.cli  # noqa: F401 - bind every module that may alias a target
    import repro.metrics  # noqa: F401
    import repro.serve.registry  # noqa: F401

    for layer, module_name, attribute, counter in TARGETS:
        owner, attr = _resolve(module_name, attribute)
        original = getattr(owner, attr)
        traced = _wrapper(recorder, attribute, layer, counter, original)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
