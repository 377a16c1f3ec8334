"""Outside-in span recording: wrappers installed around public entry points.

Nothing in the program under test knows about tracing.  The benchmark
replaces a layer's entry point (a module-level function, or a method on a
class) with a wrapper that records one span per call, and puts the original
back afterwards.  Where the program imports a function by name, the wrapper
goes on that name in the importing module, because that is the name the
call site looks up.

A span is ``(op, span, parent, name, start, end, tag)``.  Spans of one op
share the op id; ``parent`` is the enclosing span on the same thread.  Spans
are only recorded inside an op: the benchmark opens one per client
operation with :meth:`Tracer.op`, and in the server process the root entry
point (``ApiHandler.handle``) opens one per call.  Work outside ops, such as
the correctness oracle, is not recorded.  :meth:`Tracer.watch_gc` also
records every full (generation 2) collection of the process as a span named
``gc.full`` of op 0, which belongs to no operation.  Spans stay in memory
until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    op: int
    span: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """One entry point to wrap: ``module`` and a dotted ``attr`` within it.

    ``role`` is ``"span"`` (record inside an op), ``"root"`` (open an op when
    none is active on the thread) or ``"tail"`` (attach to the op that just
    ended on this thread, then close it; used for the server's response
    encode, which runs on the worker thread straight after the handler).
    ``tag`` derives a small label from ``(args, result)``.
    """

    name: str
    module: str
    attr: str
    role: str = "span"
    tag: Optional[Callable] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = None

    # ------------------------------------------------------------------ #
    # Ops opened by the benchmark's own loop
    # ------------------------------------------------------------------ #
    @contextmanager
    def op(self, name: str, tag: object = None):
        """Record one client operation as the root span of a new op."""
        local = self._local
        op_id = next(self._ids)
        local.op = op_id
        local.stack = [op_id]
        start = self.clock()
        try:
            yield op_id
        finally:
            end = self.clock()
            local.op = None
            local.stack = []
            self.spans.append(Span(op_id, op_id, None, name, start, end, tag))

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        local = self._local
        name, role, tag_of = target.name, target.role, target.tag

        def traced(*args, **kwargs):
            op_id = getattr(local, "op", None)
            opened = False
            if op_id is None:
                if role == "root":
                    op_id = next(tracer._ids)
                    local.op = op_id
                    local.stack = []
                    opened = True
                elif role == "tail" and getattr(local, "last_op", None) is not None:
                    op_id, local.last_op = local.last_op, None
                    start = tracer.clock()
                    result = fn(*args, **kwargs)
                    end = tracer.clock()
                    tag = tag_of(args, result) if tag_of else None
                    tracer.spans.append(
                        Span(op_id, next(tracer._ids), None, name, start, end, tag)
                    )
                    return result
                else:
                    return fn(*args, **kwargs)
            stack = local.stack
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                tag = tag_of(args, result) if tag_of else None
                tracer.spans.append(Span(op_id, span_id, parent, name, start, end, tag))
                if opened:
                    local.op = None
                    local.last_op = op_id

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: Iterable[Target]) -> None:
        """Replace every target with a recording wrapper (see :meth:`uninstall`)."""
        for target in targets:
            owner = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(target, raw.__func__))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self.wrap(target, raw.__func__))
            else:
                replacement = self.wrap(target, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original entry point back, last patched first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def watch_gc(self) -> None:
        """Record full collections as ``gc.full`` spans until :meth:`uninstall`."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.spans.append(
                Span(0, next(self._ids), None, "gc.full", self._gc_start, self.clock())
            )
            self._gc_start = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([list(span) for span in self.spans], handle)


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        rows = json.load(handle)
    return [Span(*(tuple(row[:6]) + (_untag(row[6]),))) for row in rows]


def _untag(tag):
    return tuple(tag) if isinstance(tag, list) else tag


# ---------------------------------------------------------------------- #
# Interval arithmetic
# ---------------------------------------------------------------------- #
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals (children on other threads, or spans matched in
    from another process) are counted once.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span: span.duration - covered(children.get(span.span, ()), span.start, span.end)
        for span in spans
    }


def by_op(spans: Iterable[Span]) -> dict[int, list[Span]]:
    grouped: dict[int, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span.op, []).append(span)
    return grouped
