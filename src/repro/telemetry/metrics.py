"""Telemetry metric primitives: counters, gauges, histograms and timelines.

The simulator's hot paths (per-query dispatch, per-batch completion) touch
these on every event, so the primitives are deliberately tiny: ``__slots__``
objects whose update is a float add or a list append.  Both histograms keep
their raw observations and answer exact nearest-rank quantiles through one
shared rule (:func:`_nearest_rank`).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "Timeline", "WindowedHistogram"]


class Counter:
    """Monotonically increasing value (events, queries, drops...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, float]:
        return {self.name: self.value}

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-written value plus its observed peak (queue depths, active workers...)."""

    __slots__ = ("name", "value", "peak", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        if value > self.peak:
            self.peak = float(value)
        self.updates += 1

    def snapshot(self) -> Dict[str, float]:
        peak = self.peak if self.updates else 0.0
        return {self.name: self.value, f"{self.name}.peak": peak}

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Gauge({self.name}={self.value}, peak={self.peak})"


def _nearest_rank(ordered: List[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of a sorted, non-empty sample list.

    ``ordered[min(n - 1, int(q * n))]``: always an observed value, so small
    samples never interpolate (the median of ``(1, 3, 5)`` is ``3``).  This
    is the one quantile rule of the telemetry subsystem.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Histogram:
    """Run-cumulative distribution summary with exact quantiles.

    Observations are kept in a plain list, so :meth:`observe` is one append
    on the simulator's per-request hot path, and every reader (count, sum,
    min, max, mean, :meth:`quantile`, :meth:`snapshot`) is computed exactly
    from it.  A run's latencies (about 70k on a 120-worker, 60 s fleet run)
    are summarised once, so storing them costs less CPU than estimating
    quantiles sample by sample.
    """

    __slots__ = ("name", "_values")

    #: quantiles reported by :meth:`snapshot` (as ``.p50``/``.p90``/``.p99``)
    QUANTILES = (0.5, 0.9, 0.99)

    def __init__(self, name: str):
        self.name = name
        self._values: List[float] = []

    def observe(self, x: float) -> None:
        self._values.append(float(x))

    def observe_many(self, values: Iterable[float]) -> None:
        if type(values) is list:
            self._values.extend(values)
        else:
            self._values.extend(map(float, values))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return sum(self._values)

    @property
    def min(self) -> float:
        return min(self._values) if self._values else math.nan

    @property
    def max(self) -> float:
        return max(self._values) if self._values else math.nan

    @property
    def mean(self) -> float:
        values = self._values
        return sum(values) / len(values) if values else math.nan

    def quantile(self, q: float) -> float:
        if not self._values:
            return math.nan
        return _nearest_rank(sorted(self._values), q)

    def snapshot(self) -> Dict[str, float]:
        name = self.name
        ordered = sorted(self._values)
        count = len(ordered)
        total = sum(self._values)
        out = {
            f"{name}.count": float(count),
            f"{name}.sum": total,
            f"{name}.mean": total / count if count else math.nan,
            f"{name}.min": ordered[0] if count else math.nan,
            f"{name}.max": ordered[-1] if count else math.nan,
        }
        for q in self.QUANTILES:
            out[f"{name}.p{round(q * 100)}"] = _nearest_rank(ordered, q) if count else math.nan
        return out

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3f})"


class WindowedHistogram:
    """Exact quantiles over a rotating pair of observation windows.

    :class:`Histogram` answers "what does the whole run look like so far";
    this answers "what did the *last control window* look like".  Observations
    accumulate in the active window's raw buffer; :meth:`rotate` closes the
    window (the active buffer becomes the completed window, a fresh buffer
    starts).  :meth:`quantile` reads the active window when it has samples and
    falls back to the last completed window otherwise, so an empty window
    reports the most recent real distribution instead of the stale
    run-cumulative one — and NaN before any sample at all, which readers
    must treat as "no signal".

    Quantiles follow the same nearest-rank rule as :class:`Histogram`.  A
    window is read once or twice per tick, so the sorted buffer is cached
    until the next observation or rotation.
    """

    __slots__ = ("name", "_active", "_last", "_cache_key", "_cache_sorted", "windows")

    def __init__(self, name: str):
        self.name = name
        self._active: List[float] = []
        self._last: List[float] = []
        self._cache_key: Tuple[int, int] = (-1, -1)
        self._cache_sorted: List[float] = []
        #: completed windows so far (rotate() calls)
        self.windows = 0

    def observe(self, x: float) -> None:
        self._active.append(float(x))

    def observe_many(self, values: Iterable[float]) -> None:
        if type(values) is list:
            self._active.extend(values)
        else:
            self._active.extend(map(float, values))

    def rotate(self) -> None:
        """Close the active window; it becomes the fallback for empty reads."""
        if self._active:
            self._last = self._active
            self._active = []
            self._cache_key = (-1, -1)
        self.windows += 1

    @property
    def count(self) -> int:
        """Observations in the window :meth:`quantile` currently reads."""
        return len(self._active) or len(self._last)

    def quantile(self, q: float) -> float:
        samples = self._active or self._last
        if not samples:
            return math.nan
        # Buffers only ever grow between rotations and rotate() invalidates
        # outright, so the (active, last) length pair uniquely keys the cache.
        key = (len(self._active), len(self._last))
        if key != self._cache_key:
            self._cache_sorted = sorted(samples)
            self._cache_key = key
        return _nearest_rank(self._cache_sorted, q)

    def snapshot(self) -> Dict[str, float]:
        return {
            f"{self.name}.count": float(self.count),
            f"{self.name}.p50": self.quantile(0.5),
            f"{self.name}.p99": self.quantile(0.99),
        }

    def __repr__(self):  # pragma: no cover - debug helper
        return f"WindowedHistogram({self.name}, n={self.count}, windows={self.windows})"


class Timeline:
    """An append-only list of ``(time_s, label)`` events.

    Counters answer "how many"; a timeline answers "what happened when".
    Fault injection uses one (``faults.timeline``) so tests and policies can
    reconstruct the exact fail/recover/slowdown sequence of a run.  The flat
    :meth:`snapshot` only contributes the event count (snapshots must stay
    ``Dict[str, float]``); the full event list travels on
    :attr:`repro.simulator.metrics.SimulationSummary.fault_timeline`.
    """

    __slots__ = ("name", "events")

    def __init__(self, name: str):
        self.name = name
        self.events: List[Tuple[float, str]] = []

    def record(self, time_s: float, label: str) -> None:
        self.events.append((float(time_s), str(label)))

    @property
    def count(self) -> int:
        return len(self.events)

    def reset(self) -> None:
        self.events.clear()

    def snapshot(self) -> Dict[str, float]:
        return {f"{self.name}.events": float(len(self.events))}

    def __repr__(self):  # pragma: no cover - debug helper
        return f"Timeline({self.name}, n={len(self.events)})"
