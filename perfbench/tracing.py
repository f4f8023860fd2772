"""Spans recorded by the benchmark around calls into the program's layers.

The program itself carries no spans yet, so the benchmark records them
from outside: :class:`Patches` swaps a module function or class method
for a wrapper that opens a span, calls the original and closes the span,
and puts the original back afterwards.  Spans are kept in memory and
written out once, when the run ends.

A span records its name, start, end, parent span and request id (plus
the process it ran in and an optional note).  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[str]
    pid: int
    note: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; the open-span stack is per thread.

    Span ids embed the recording process id, so spans recorded in a
    forked worker never collide with the parent's.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.in_worker = False
        self.worker_rid: Optional[str] = None
        self._reset_ids()

    def _reset_ids(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def become_worker(self) -> None:
        """Start afresh inside a forked worker process."""
        self.spans = []
        self.in_worker = True
        self._reset_ids()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: Optional[str] = None,
             note: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent.rid if parent is not None else self.worker_rid
        span = Span(self.pid * 10**9 + next(self._ids), name,
                    time.perf_counter(), float("nan"),
                    parent.id if parent is not None else None,
                    rid, self.pid, note)
        stack.append(span)
        return span

    def close(self, span: Span) -> Span:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None,
             note: Optional[str] = None):
        opened = self.open(name, rid, note)
        try:
            yield opened
        finally:
            self.close(opened)

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``note(result)`` labels the span."""
        def traced(*args, **kwargs):
            opened = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    opened.note = note(result)
                return result
            finally:
                self.close(opened)
        traced.__wrapped__ = fn
        return traced

    def adopt(self, spans: Iterable[Span]) -> None:
        """Take in spans recorded in another process."""
        self.spans.extend(spans)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([dataclasses.asdict(s) for s in self.spans], handle)


class Patches:
    """Attribute swaps that are undone in reverse order."""

    _INHERITED = object()

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        getattr(owner, attr)            # fail early on a misspelt name
        self._undo.append(
            (owner, attr, vars(owner).get(attr, self._INHERITED)))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner, attr: str, name: str,
             note: Optional[Callable] = None) -> None:
        self.set(owner, attr, tracer.wrap(name, getattr(owner, attr), note))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is self._INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# self time and per-layer arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Sequence[Tuple[float, float]],
            lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    by_parent: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)
    return by_parent


def self_time(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the part its children cover (children
    that overlap each other are counted once)."""
    return span.seconds - covered([(c.start, c.end) for c in children],
                                  span.start, span.end)


def layer_seconds(spans: Sequence[Span], name: str) -> float:
    """Wall time covered by spans of one layer (nested calls once)."""
    return covered([(s.start, s.end) for s in spans if s.name == name])
