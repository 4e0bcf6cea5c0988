"""In-memory spans around the program's public calls, and self-time accounting.

The traced run installs :class:`Tracer` wrappers on the public functions
of each layer (from the benchmark's own code; the program is not
edited).  Each call becomes one span — name, start, end, parent, thread —
kept in memory and written out once the run ends.  A layer's self time
is its spans' durations minus the part of each interval its child spans
cover, so nested layers (a probe inside bank routing inside a replay)
are never counted twice and the self times of all spans add up to the
root span's duration.

Only calls made at most ~1e5 times per run are wrapped: a per-access
hook would measure the wrapper, not the layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    index: int = 0
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the union of its children."""
    totals: dict[str, float] = {}
    for span in spans:
        child_cover = covered(
            [(spans[c].start, spans[c].end) for c in span.children]
        )
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - child_cover
    return totals


class Tracer:
    """Records spans from wrapped callables; restores them on :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            parent = stack[-1] if stack else None
            self.spans.append(
                Span(name, time.perf_counter(), parent=parent,
                     thread=threading.get_ident(), index=index)
            )
            if parent is not None:
                self.spans[parent].children.append(index)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(self.spans[i].name == name for i in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a ``with`` block (the root of a traced pass)."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Callable[["Tracer", tuple, dict, Any], None] | None = None,
        skip_under: str | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(tracer, args, kwargs, result)`` runs after the call,
        outside the span, to record counts at the same boundary.  Calls
        made inside an open ``skip_under`` span record nothing, so their
        time stays with that enclosing layer.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = original.__func__ if isinstance(original, staticmethod) else original
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if skip_under is not None and tracer.inside(skip_under):
                return target(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "i": span.index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )
