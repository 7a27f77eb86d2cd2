"""Per-layer timing from outside the program.

:class:`Timers` wraps public functions of the library's layers and
records the wall time of each call, its self time (minus wrapped
callees) and the time spent inside each wrapped caller.  Span helpers
fold the spans the program already records (``http.request``,
``service.batch``, ``shard.dispatch``, ``worker.compute``, ...) into per
request figures.  Both are used only by the traced run.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np


class Timers:
    """Wall time of calls into wrapped library functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._paused = False
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.total: Dict[str, float] = defaultdict(float)
            self.self_time: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.rows: Dict[str, int] = defaultdict(int)
            #: (caller name, callee name) -> callee seconds.
            self.within: Dict[Tuple[str, str], float] = defaultdict(float)

    @contextmanager
    def paused(self):
        """Pass every wrapped call straight through for the block (the
        benchmark's own checks call the library too)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, owner: object, attr: str, name: str,
             rows_arg: bool = False) -> None:
        """Replace ``owner.attr`` by a timed pass-through.

        With *rows_arg* the length of the first positional argument
        after ``self`` counts as the call's rows.  Calls made in forked
        worker processes pass straight through.
        """
        fn = vars(owner)[attr]
        timers = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if timers._paused or os.getpid() != timers._pid:
                return fn(*args, **kwargs)
            stack = getattr(timers._local, "stack", None)
            if stack is None:
                stack = timers._local.stack = []
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with timers._lock:
                    timers.total[name] += elapsed
                    timers.self_time[name] += elapsed - frame[1]
                    timers.calls[name] += 1
                    if rows_arg and len(args) > 1:
                        timers.rows[name] += len(args[1])
                    for outer in stack:
                        timers.within[(outer[0], name)] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def install(timers: Timers) -> None:
    """Wrap the public entry points of every layer the tables name."""
    from repro.quantification.batch_exact import BatchExactQuantifier
    from repro.serving import service
    from repro.serving.shard import ShardExecutor
    from repro.spatial.batch import BatchQueryEngine
    from repro.spatial.kernels.native_provider import NativeProvider
    from repro.spatial.kernels.numpy_provider import NumpyProvider
    from repro.spatial.planelocate import PersistentPlaneLocator
    from repro.voronoi.vpr import ProbabilisticVoronoiDiagram

    timers.wrap(BatchExactQuantifier, "batch", "exact.batch")
    timers.wrap(BatchExactQuantifier, "matrix", "exact.matrix")
    for provider in (NativeProvider, NumpyProvider):
        for op in ("distance_matrix", "sweep_eq2", "plane_locate"):
            timers.wrap(provider, op, f"kernel.{op}")
    for op in ("delta", "nonzero_nn"):
        timers.wrap(BatchQueryEngine, op, "batch_engine", rows_arg=True)
    timers.wrap(ProbabilisticVoronoiDiagram, "__init__", "vpr.build")
    timers.wrap(ProbabilisticVoronoiDiagram, "quantify_batch",
                "vpr.quantify")
    timers.wrap(ProbabilisticVoronoiDiagram, "query_batch", "vpr.query")
    timers.wrap(PersistentPlaneLocator, "__init__", "planelocate.build")
    timers.wrap(PersistentPlaneLocator, "locate_batch", "vpr.locate")
    timers.wrap(service, "plane_to_arrays", "codec.plane_encode")
    timers.wrap(ShardExecutor, "__init__", "executor.start")


def per_trace(spans: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Span seconds summed by name within each trace.

    Adds ``worker.busiest``: under each dispatch, the chunk seconds of
    the worker process that computed longest (the one the request
    waited for).
    """
    traces: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    per_worker: Dict[Tuple[str, object], float] = defaultdict(float)
    for rec in spans:
        traces[rec["trace_id"]][rec["name"]] += rec["duration"]
        if rec["name"] == "worker.compute":
            per_worker[(rec["parent_id"], rec["pid"])] += rec["duration"]
    dispatch_trace = {rec["span_id"]: rec["trace_id"] for rec in spans
                      if rec["name"] == "shard.dispatch"}
    busiest: Dict[str, float] = defaultdict(float)
    for (span_id, _pid), seconds in per_worker.items():
        busiest[span_id] = max(busiest[span_id], seconds)
    for span_id, seconds in busiest.items():
        trace_id = dispatch_trace.get(span_id)
        if trace_id is not None:
            traces[trace_id]["worker.busiest"] += seconds
    return traces


def span_stats(spans: List[Dict], name: str) -> Tuple[int, float]:
    """``(count, mean seconds)`` of the spans called *name*."""
    durations = [rec["duration"] for rec in spans if rec["name"] == name]
    if not durations:
        return 0, 0.0
    return len(durations), float(np.mean(durations))


def table(title: str, rows: List[Tuple[str, float, str]]) -> str:
    """A markdown table of ``(layer, value, unit)`` rows."""
    lines = [f"### {title}", "", "| layer | value | unit |",
             "|---|---:|---|"]
    for name, value, unit in rows:
        lines.append(f"| {name} | {value:.4g} | {unit} |")
    return "\n".join(lines)
