"""The telemetry registry: named metrics, created on first use.

One :class:`TelemetryRegistry` travels with each simulation run (and each
control-plane engine); components ask it for counters/gauges/histograms by
dotted name and the registry guarantees one instance per name.  ``snapshot``
flattens everything into a plain ``Dict[str, float]`` that is picklable, so
sweep workers can ship telemetry back to the parent for cross-seed
aggregation (see :meth:`repro.scenarios.sweep.SweepResult.telemetry`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.telemetry.metrics import Counter, Gauge, Histogram, Timeline, WindowedHistogram

__all__ = ["TelemetryRegistry"]

Metric = Union[Counter, Gauge, Histogram, Timeline, WindowedHistogram]


class TelemetryRegistry:
    """Create-or-get surface for named metrics plus snapshot/reset plumbing."""

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, factory, kind) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"telemetry metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, lambda: Histogram(name), Histogram)

    def windowed_histogram(self, name: str) -> WindowedHistogram:
        return self._get(name, lambda: WindowedHistogram(name), WindowedHistogram)

    def timeline(self, name: str) -> Timeline:
        return self._get(name, lambda: Timeline(name), Timeline)

    # -- introspection ---------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, float]:
        """Flatten every metric into ``{dotted.name: float}`` (picklable)."""
        out: Dict[str, float] = {}
        for name in sorted(self._metrics):
            out.update(self._metrics[name].snapshot())
        return out
