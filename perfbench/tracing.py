"""In-memory span tracer that wraps the public functions of poisonridge modules.

The package itself is not instrumented: while a `Tracer` is installed, each
public function defined in a traced module is replaced on its module by a
wrapper that records a span (name, start, end, parent, trace id, tags).
Calls made through the module attribute, as the package's own modules and
its CLI make them, are therefore traced, including calls between functions
of one module.  Uninstalling restores the originals.

Spans recorded in pool worker processes stay in those processes; per-stage
times for pooled work come from a serial replay instead.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "trace", "start", "end", "tags")

    def __init__(self, id, name, parent, trace, start, tags):
        self.id = id
        self.name = name
        self.parent = parent
        self.trace = trace
        self.start = start
        self.end = start
        self.tags = tags

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Collects spans; `installed(modules)` patches the modules' functions.

    `roots` names spans that start a new trace (one trial or one check);
    `tags` maps a span name to a function of the call's (args, kwargs) that
    returns a small dict stored on the span; the return values of calls
    named in `capture` are kept in `returns[name]`.
    """

    def __init__(self, roots=(), tags=None, capture=()):
        self.spans: list[Span] = []
        self.returns = {name: [] for name in capture}
        self._stack: list[Span] = []
        self._traces = 0
        self._roots = frozenset(roots)
        self._tags = dict(tags or {})

    def open(self, name: str, tags=None, new_trace: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None or new_trace or name in self._roots:
            self._traces += 1
            trace = self._traces
        else:
            trace = parent.trace
        span = Span(len(self.spans), name, parent.id if parent else None, trace,
                    time.perf_counter(), tags)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, new_trace: bool = False, **tags):
        s = self.open(name, tags or None, new_trace)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, name: str, fn):
        tag_fn = self._tags.get(name)
        returns = self.returns.get(name)

        def traced(*args, **kwargs):
            s = self.open(name, tag_fn(args, kwargs) if tag_fn else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if returns is not None:
                returns.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, modules):
        saved = []
        try:
            for mod in modules:
                short = mod.__name__.rsplit(".", 1)[-1]
                for attr, obj in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != mod.__name__):
                        continue
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(f"{short}.{attr}", obj))
            yield self
        finally:
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans.

    Spans come from one thread, so children are disjoint and nested inside
    their parent; their durations add up to the covered time.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total (inclusive) seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return dict(sorted(table.items()))
