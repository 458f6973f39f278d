"""In-memory span recording around the package's public callables.

A :class:`SpanRecorder` replaces a callable with a timing wrapper *where its
caller looks it up* (a class attribute for methods, so every thread that
calls through the class hits the wrapper; the importing module's global for
functions) and restores the originals afterwards.  Spans are appended to a
per-thread list without locking; the lists are collected when the run ends.

Each span records its name, start and end, its parent span and its thread,
and the root span that encloses it on that thread — the ``process_batch``
call of a shard or driver thread, or the learn request a learning worker
evaluates.  A span's self time is its duration minus the part of it that
its direct children cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)


@dataclass(frozen=True)
class Span:
    """One timed call.  ``parent`` and ``root`` index the same thread's spans
    (``parent == -1`` for a top-level span, whose ``root`` is itself)."""

    thread: int
    index: int
    name: str
    start: float
    end: float
    parent: int
    root: int
    count: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Wraps callables in timing spans and keeps the spans in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[int, list]] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: Receivers of wrappers installed with ``keep_receiver``, by span
        #: name and object id (how the benchmark finds the service's
        #: batchers without reaching into the service).
        self.receivers: Dict[str, Dict[int, object]] = {}

    def _thread_lists(self) -> Tuple[list, list]:
        spans: list = []
        stack: list = []
        self._local.spans = spans
        self._local.stack = stack
        with self._lock:
            self._threads.append((threading.get_ident(), spans))
        return spans, stack

    def wrap(self, fn: Callable, name: str, *,
             count: Optional[Callable[[object], int]] = None,
             keep_receiver: bool = False) -> Callable:
        """A timing wrapper around ``fn`` recording spans named ``name``.

        ``count`` maps the call's return value to a work count stored on
        the span; ``keep_receiver`` remembers ``args[0]`` (the instance of
        a wrapped method) in :attr:`receivers`.
        """
        clock = self._clock
        local = self._local
        receivers = self.receivers.setdefault(name, {}) \
            if keep_receiver else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                spans = local.spans
                stack = local.stack
            except AttributeError:
                spans, stack = self._thread_lists()
            if receivers is not None:
                receivers[id(args[0])] = args[0]
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      stack[0] if stack else index, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[5] = count(result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a class or module attribute defined on
        ``owner`` itself) with a traced wrapper."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(original, name, **options))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, table: Iterable[Tuple[object, str, str, dict]]
                  ) -> Iterator["SpanRecorder"]:
        """Patch every ``(owner, attr, name, options)`` row for the block."""
        try:
            for owner, attr, name, options in table:
                self.patch(owner, attr, name, **options)
            yield self
        finally:
            self.restore()

    def spans(self) -> List[Span]:
        """Every finished span, grouped by thread in recording order."""
        with self._lock:
            threads = list(self._threads)
        out = []
        for thread, records in threads:
            for index, (name, start, end, parent, root, count) \
                    in enumerate(list(records)):
                if end:
                    out.append(Span(thread, index, name, start, end, parent,
                                    root, count))
        return out

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON line; returns how many."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps({
                    "thread": span.thread, "index": span.index,
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "root": span.root,
                    "count": span.count}) + "\n")
        return len(spans)


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(thread, index)``.

    A span's self time is its duration minus the union of its direct
    children's intervals (clipped to the span).  Children are looked up on
    the span's own thread only: work another thread does at the same time
    overlaps the span but is not part of it.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    by_key = {(s.thread, s.index): s for s in spans}
    for s in spans:
        if s.parent >= 0:
            parent = by_key.get((s.thread, s.parent))
            if parent is not None:
                children.setdefault((s.thread, s.parent), []).append(
                    (max(s.start, parent.start), min(s.end, parent.end)))
    return {key: s.duration - _union_length(children.get(key, ()))
            for key, s in by_key.items()}


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (summed duration), ``self_s``
    and ``count`` (summed work counts)."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0,
                                      "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["busy_s"] += s.duration
        row["self_s"] += own[(s.thread, s.index)]
        row["count"] += s.count or 0
    return out


def coverage(spans: Sequence[Span], anchor: str,
             window: Tuple[float, float]) -> float:
    """Share of ``window`` that top-level spans cover on the threads that
    ran ``anchor``, averaged over those threads (0.0 when none did)."""
    lo, hi = window
    if hi <= lo:
        raise ValueError("empty window")
    threads = {s.thread for s in spans if s.name == anchor}
    if not threads:
        return 0.0
    covered = 0.0
    for thread in threads:
        covered += _union_length([
            (max(s.start, lo), min(s.end, hi)) for s in spans
            if s.thread == thread and s.parent < 0
            and s.end > lo and s.start < hi])
    return covered / (len(threads) * (hi - lo))
