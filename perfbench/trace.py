"""In-memory spans around the benchmark's calls into each layer,
written out as Chrome trace-event JSON (Perfetto opens it)."""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Any, Dict, List

_NULL = contextlib.nullcontext()


class Span:
    __slots__ = ("id", "parent", "name", "cat", "args", "start", "dur",
                 "child_time")

    def __init__(self, span_id: int, parent: int, name: str, cat: str,
                 args: Dict[str, Any]):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.cat = cat
        self.args = args
        self.start = 0.0
        self.dur = 0.0
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return self.dur - self.child_time


class Tracer:
    """Records spans (name, start, end, parent) while ``enabled``.

    A disabled tracer records nothing and its ``span`` is a shared
    no-op context, so the untraced run pays one method call per span.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._origin = time.perf_counter()

    def span(self, name: str, cat: str, **args):
        if not self.enabled:
            return _NULL
        return self._span(name, cat, args)

    @contextlib.contextmanager
    def _span(self, name: str, cat: str, args: Dict[str, Any]):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans) + 1, parent.id if parent else 0,
                    name, cat, args)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.dur = time.perf_counter() - span.start
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.dur

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name (duration minus the part
        covered by child spans)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_time
        return out

    def write(self, path: str, metadata: Dict[str, Any]) -> None:
        pid = os.getpid()
        events = [{"name": s.name, "cat": s.cat, "ph": "X", "pid": pid,
                   "tid": 0, "ts": (s.start - self._origin) * 1e6,
                   "dur": s.dur * 1e6,
                   "args": dict(s.args, id=s.id, parent=s.parent)}
                  for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "metadata": metadata}, handle, default=repr)
