"""In-memory span tracer that instruments public functions from outside.

A :class:`Tracer` replaces functions and methods with thin wrappers that record
one :class:`Span` per call: name, start, end, the enclosing span and the run id
shared by every span of the run.  Per-request hot calls get no span: they are
either only counted (:meth:`Tracer.count`) or counted and timed, with their
time charged to the enclosing span (:meth:`Tracer.timed`).  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of the run.

Self time is derived from the spans afterwards: a span's duration minus the
durations of its child spans and minus the hot time charged to it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "Tracer"]

#: module-name prefix of the program whose function bindings are patched
PROGRAM_PREFIX = "repro"
#: negative self time up to this much is clock rounding, not a nesting error
SELF_TIME_TOLERANCE_S = 1e-6


class Span:
    __slots__ = ("run_id", "id", "parent", "name", "start", "end", "hot_s", "attrs")

    def __init__(self, run_id: str, span_id: int, parent: int, name: str, start: float):
        self.run_id = run_id
        self.id = span_id
        #: id of the enclosing span, -1 for a root
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        #: time of timed hot calls made directly inside this span
        self.hot_s = 0.0
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, self_s: float) -> dict:
        return {
            "run_id": self.run_id,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self_s,
            "hot_s": self.hot_s,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: hot call name -> [calls, seconds] (seconds stay 0 for count-only)
        self.hot: Dict[str, List[float]] = {}
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------
    def open(self, name: str) -> Span:
        stack = self._stack
        span = Span(self.run_id, len(self.spans), stack[-1].id if stack else -1, name, time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed while {popped.name!r} is open")

    def wrap(self, fn: Callable, name: str, note: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``note(result, *args, **kwargs)`` may return a dict stored as the
        span's attributes; it runs after the span has ended.
        """
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            if note is not None:
                span.attrs = note(result, *args, **kwargs)
            return result

        return traced

    def timed(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted and timed without a span; the time is charged to
        the enclosing span so it leaves that span's self time."""
        entry = self.hot.setdefault(name, [0, 0.0])
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def hot(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry[0] += 1
                entry[1] += elapsed
                if stack:
                    stack[-1].hot_s += elapsed

        return hot

    def count(self, fn: Callable, name: str) -> Callable:
        """``fn`` with its calls counted and nothing timed."""
        entry = self.hot.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            entry[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing wrappers -------------------------------------------------------
    def patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by ``make(original)``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def patch_function(self, fn: Callable, make: Callable[[Callable], Callable]) -> None:
        """Replace every module-level binding of ``fn`` in the program's loaded
        modules (``from x import fn`` makes a binding per importing module)."""
        wrapped = make(fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(PROGRAM_PREFIX):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(functools.partial(setattr, module, attr, fn))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- analysis -------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        own = [span.duration - span.hot_s for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def nesting_errors(self) -> List[str]:
        """Spans that end before they start, stick out of their parent or
        have negative self time (empty when the trace is well formed)."""
        errors = []
        for span, own in zip(self.spans, self.self_times()):
            if span.end < span.start:
                errors.append(f"{span.name}#{span.id} ends before it starts")
            if span.parent >= 0:
                parent = self.spans[span.parent]
                if span.start < parent.start or span.end > parent.end:
                    errors.append(f"{span.name}#{span.id} lies outside its parent {parent.name}#{parent.id}")
            if own < -SELF_TIME_TOLERANCE_S:
                errors.append(f"{span.name}#{span.id} has negative self time {own:.3g}s")
        return errors

    def dump(self, path: str) -> None:
        """Write the spans (one JSON object a line) and the hot-call totals."""
        with open(path, "w") as out:
            for span, own in zip(self.spans, self.self_times()):
                out.write(json.dumps(span.as_dict(own)) + "\n")
            out.write(json.dumps({"run_id": self.run_id, "hot": self.hot}) + "\n")
