"""In-memory span recorder for the traced benchmark run.

A span is one wrapped call: ``(id, parent id, layer, name, start, end,
point, extra)``.  ``layer`` is the module-level layer the call belongs to
(``sim``, ``core.resolve_slow`` ...), ``name`` may refine it (the protocol
and access class of a ``resolve_slow`` call), ``point`` is the sweep point
being executed when the span opened, and ``extra`` carries counts taken
from the call's arguments or return value (accesses, bytes, retirements).

Spans stay in memory and are written out once, when the process ends:
:meth:`Recorder.dump` for the benchmark's own process, and a
``multiprocessing`` finalizer in every forked worker, which starts with an
empty buffer.  Ids are unique per process, so a span file is read as one
process's forest.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One system-wide monotonic clock, comparable across the benchmark's
#: processes (CLOCK_MONOTONIC on Linux).
clock = time.monotonic

#: ``(id, parent, layer, name, start, end, point, extra)``
Span = Tuple[int, int, str, str, float, float, Optional[str], Any]

_ROOT = (0, "")


class Recorder:
    """Span buffer plus the open-span stack of one process."""

    __slots__ = ("spans", "stack", "point", "ids", "dump_dir", "__weakref__")

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self.dump_dir = dump_dir
        self.reset()

    def reset(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[Tuple[int, str]] = [_ROOT]
        self.point: Optional[str] = None
        self.ids = itertools.count(1)

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        *,
        name: Optional[Callable[[tuple], str]] = None,
        extra: Optional[Callable[[tuple, Any], Any]] = None,
        point: Optional[Callable[[tuple], str]] = None,
    ) -> Callable[..., Any]:
        """A wrapper of ``fn`` that records one span per call.

        A call made while a span of the same layer is innermost (a subclass
        method calling its base, a builder calling a builder) is not
        recorded again, so a layer's calls count the outermost calls only.
        ``point`` names the sweep point a call executes; nested spans
        inherit it.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = rec.stack
            parent, parent_layer = stack[-1]
            if parent_layer == layer:
                return fn(*args, **kwargs)
            sid = next(rec.ids)
            span_name = name(args) if name is not None else layer
            saved_point = rec.point
            if point is not None:
                rec.point = point(args)
            stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                rec.spans.append((sid, parent, layer, span_name, start, end, rec.point, None))
                rec.point = saved_point
                raise
            end = clock()
            stack.pop()
            rec.spans.append(
                (
                    sid,
                    parent,
                    layer,
                    span_name,
                    start,
                    end,
                    rec.point,
                    extra(args, result) if extra is not None else None,
                )
            )
            rec.point = saved_point
            return result

        return wrapper

    def wrap_generator(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """Like :meth:`wrap` for a generator function; the span opens at the first ``next``."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(rec.ids)
            parent = rec.stack[-1][0]
            rec.stack.append((sid, layer))
            start = clock()
            try:
                yield from fn(*args, **kwargs)
            finally:
                end = clock()
                rec.stack.remove((sid, layer))
                rec.spans.append((sid, parent, layer, layer, start, end, rec.point, None))

        return wrapper

    def dump(self) -> None:
        """Write every recorded span to this process's file in ``dump_dir``."""
        if self.dump_dir is None:
            return
        with open(os.path.join(self.dump_dir, f"spans-{os.getpid()}.bin"), "wb") as handle:
            marshal.dump(self.spans, handle)

    def follow_forks(self) -> None:
        """Give every ``multiprocessing`` child an empty buffer, dumped when it exits.

        ``multiprocessing`` clears inherited finalizers in a new process and
        then runs its after-fork hooks, so the finalizer is registered from
        such a hook; it runs when the worker returns normally.  A worker
        that is killed loses its spans.
        """
        from multiprocessing import util

        def _after_fork(rec: "Recorder") -> None:
            rec.reset()
            util.Finalize(rec, rec.dump, exitpriority=100)

        util.register_after_fork(self, _after_fork)


def load(path: str) -> List[Span]:
    with open(path, "rb") as handle:
        return marshal.load(handle)  # tuples stay tuples


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one process are properly nested (single-threaded calls), so
    the children of a span never overlap one another.
    """
    child_time: Dict[int, float] = {}
    for _sid, parent, _layer, _name, start, end, _point, _extra in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for sid, _parent, _layer, _name, start, end, _point, _extra in spans
    }


def covered(spans: Iterable[Span], lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` covered by the given (non-overlapping) spans."""
    total = 0.0
    for span in spans:
        total += max(0.0, min(span[5], hi) - max(span[4], lo))
    return total
