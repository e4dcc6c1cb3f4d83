"""Span recording for the traced run, and the self-time arithmetic.

A span is ``[id, parent_id, name, start, end, attrs]`` on the
``time.perf_counter`` clock, which on Linux is ``CLOCK_MONOTONIC`` and
therefore comparable between the load generator and the server.  The
parent is whatever span was open in the calling context when the
wrapped function was entered; :func:`propagate_into_pools` carries that
context across ``ThreadPoolExecutor.submit``, which the comparison
engine uses to hand requests to its worker pool.

Spans stay in memory (one list append per call) and are written out
once, at the end.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """Wraps callables so that every call leaves one span behind."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)

    def timed(
        self,
        fn: Callable,
        name: str,
        annotate: Optional[Callable] = None,
    ) -> Callable:
        """``annotate(args, kwargs, result)`` returns the span's attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [next(self._ids), _current.get(), name, 0.0, 0.0, None]
            token = _current.set(record[0])
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = time.perf_counter()
                _current.reset(token)
                record[5] = {"error": True}
                self.spans.append(record)
                raise
            record[4] = time.perf_counter()
            _current.reset(token)
            if annotate is not None:
                record[5] = annotate(args, kwargs, result)
            self.spans.append(record)
            return result

        return wrapper

    def timed_steps(
        self, fn: Callable, name: str, count: Callable[[object], int]
    ) -> Callable:
        """Wrap a generator function: one span per ``next()``, so the
        consumer's work between items is not charged to the generator."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                record = [next(self._ids), _current.get(), name, 0.0, 0.0, None]
                record[3] = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    record[4] = time.perf_counter()
                    self.spans.append(record)
                    return
                record[4] = time.perf_counter()
                record[5] = {"count": count(item)}
                self.spans.append(record)
                yield item

        return wrapper

    def patch(self, owner, attribute: str, name: str, annotate=None) -> None:
        """Replace ``owner.attribute`` with its timed version, keeping
        staticmethods static."""
        raw = owner.__dict__.get(attribute) if isinstance(owner, type) else None
        if isinstance(raw, staticmethod):
            setattr(
                owner, attribute,
                staticmethod(self.timed(raw.__func__, name, annotate)),
            )
        else:
            setattr(
                owner, attribute,
                self.timed(getattr(owner, attribute), name, annotate),
            )

    def dump(self, path: Path) -> None:
        with Path(path).open("w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def propagate_into_pools() -> None:
    """Make ``ThreadPoolExecutor.submit`` run tasks in a copy of the
    submitter's context, so pool-side spans name their caller."""
    original = ThreadPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        return original(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit


def load(path: Path) -> List[list]:
    with Path(path).open() as handle:
        return [json.loads(line) for line in handle if line.strip()]


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tree:
    """Parent/child index over one process's spans."""

    def __init__(self, spans: Sequence[list]) -> None:
        self.by_id: Dict[int, list] = {s[0]: s for s in spans}
        self.children: Dict[int, List[list]] = {}
        for s in spans:
            if s[1] is not None:
                self.children.setdefault(s[1], []).append(s)

    def self_time(self, span: list) -> float:
        kids = self.children.get(span[0], [])
        return (span[4] - span[3]) - union_length(
            ((k[3], k[4]) for k in kids), span[3], span[4]
        )

    def descendants(self, span: list) -> Iterable[list]:
        stack = list(self.children.get(span[0], []))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self.children.get(node[0], []))
