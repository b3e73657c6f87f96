"""The benchmark's own span recorder for the traced run.

Spans are recorded around every public call the benchmark makes into
the program (name, start, end, parent, workload, request id for HTTP),
kept in memory, and written out once as Chrome-trace JSON
(``chrome://tracing`` / Perfetto).  Spans the program records itself
(``frontier.level``, ``parallel.subtree`` and the worker trees grafted
under them) are imported from a machine's tracer and nested under the
call that produced them, so one file shows both.

A layer's self time is the time its spans cover minus the part their
child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


#: Layer of a program span, by the first component of its name (others
#: keep that component: ``parallel``, ``worker``).
PROGRAM_LAYERS = {"frontier": "core.frontier", "fast": "core", "base": "core",
                  "divide": "core", "correct": "core", "separator": "separators"}


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "attrs", "pid", "tid")

    def __init__(self, sid: int, name: str, layer: str, start: float,
                 parent: Optional[int], attrs: Dict[str, Any],
                 pid: int = 0, tid: int = 0) -> None:
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs
        self.pid = pid
        self.tid = tid


class SpanRecorder:
    """In-memory span store; one parent stack per thread."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.epoch = time.perf_counter()
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, layer: str, start: float, parent: Optional[int],
             attrs: Dict[str, Any], pid: int = 0, tid: int = 0) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, layer, start, parent, attrs, pid, tid)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, layer: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = self._new(name, layer, time.perf_counter(), parent, attrs,
                         tid=threading.get_native_id())
        stack.append(span.sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def import_tracer(self, tracer: Any, parent: Span) -> None:
        """Nest a ``repro.obs`` tracer's span trees under ``parent``."""

        def walk(node: Any, parent_id: int) -> None:
            attrs = {k: v for k, v in node.attrs.items()
                     if isinstance(v, (int, float, str, bool))}
            pid = int(node.attrs.get("pid", 0))
            tid = int(node.attrs.get("tid", 0))
            layer = PROGRAM_LAYERS.get(node.name.split(".")[0], node.name.split(".")[0])
            span = self._new(node.name, layer, tracer.epoch + node.wall_start, parent_id,
                             attrs, pid, tid)
            span.end = tracer.epoch + node.wall_end
            for child in node.children:
                walk(child, span.sid)

        for root in tracer.roots:
            walk(root, parent.sid)

    # -- analysis ----------------------------------------------------------

    def self_seconds_by_layer(self) -> Dict[str, float]:
        """Per layer: wall time its spans cover minus the time covered by
        their children from other layers.

        Overlapping spans of one layer (HTTP requests on two threads,
        subtrees in flight together) count once.  Only the benchmark
        process's own lane (pid 0) counts: worker processes run in
        parallel with it.
        """
        own = [s for s in self.spans if s.pid == 0]
        by_id = {s.sid: s for s in own}
        covered: Dict[str, list] = {}
        children: Dict[str, list] = {}
        for s in own:
            covered.setdefault(s.layer, []).append((s.start, s.end))
            parent = by_id.get(s.parent) if s.parent is not None else None
            if parent is not None and parent.layer != s.layer:
                children.setdefault(parent.layer, []).append(
                    (max(s.start, parent.start), min(s.end, parent.end)))
        return {layer: _union(spans) - _union(children.get(layer, []))
                for layer, spans in covered.items()}

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self, other: Dict[str, Any]) -> Dict[str, Any]:
        events: List[Dict[str, Any]] = []
        lanes = set()
        for s in self.spans:
            lanes.add((s.pid, s.tid))
            events.append({
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "pid": s.pid,
                "tid": s.tid,
                "ts": (s.start - self.epoch) * 1e6,
                "dur": max(0.0, s.end - s.start) * 1e6,
                "args": {"id": s.sid, "parent": s.parent, "workload": self.workload,
                         **s.attrs},
            })
        meta = [{"name": "process_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": "benchmark" if pid == 0 else f"pid {pid}"}}
                for pid, tid in sorted(lanes)]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms",
                "otherData": other}

    def write(self, path: str, other: Dict[str, Any]) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(other), fh)


def _union(intervals: List[tuple]) -> float:
    """Total length of a set of (start, end) intervals."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
