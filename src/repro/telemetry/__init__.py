"""Telemetry subsystem: counters, gauges, histograms and timelines.

Replaces the ad-hoc metric attributes that used to be scattered across the
frontend, workers and control planes with one registry per simulation run:

* :class:`~repro.telemetry.metrics.Counter` / ``Gauge`` -- O(1) event and
  level tracking with ``__slots__`` objects cheap enough for per-query paths.
* :class:`~repro.telemetry.metrics.Histogram` -- run-cumulative
  distribution summaries with exact count/sum/min/max/mean and quantiles.
* :class:`~repro.telemetry.metrics.WindowedHistogram` -- the same quantiles
  over a rotating pair of observation windows (the control plane's
  per-window tail-latency view, rotated once per committed control tick).
  Both answer nearest-rank quantiles by one shared rule.
* :class:`~repro.telemetry.registry.TelemetryRegistry` -- named create-or-get
  surface whose ``snapshot()`` is a picklable flat dict, shipped through
  :class:`~repro.simulator.metrics.SimulationSummary` and aggregated across
  seeds by the sweep runner.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    Timeline,
    WindowedHistogram,
)
from repro.telemetry.registry import TelemetryRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timeline",
    "TelemetryRegistry",
    "WindowedHistogram",
]
