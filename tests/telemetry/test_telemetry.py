"""Tests for the telemetry subsystem (metrics, registry, simulator wiring)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import SweepRunner, get_scenario
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    TelemetryRegistry,
    WindowedHistogram,
)


class TestPrimitives:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4.5)
        assert counter.value == 5.5
        assert counter.snapshot() == {"c": 5.5}

    def test_gauge_tracks_value_and_peak(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(9)
        gauge.set(2)
        assert gauge.value == 2.0
        assert gauge.snapshot() == {"g": 2.0, "g.peak": 9.0}

    def test_unset_gauge_snapshot_is_zero(self):
        assert Gauge("g").snapshot() == {"g": 0.0, "g.peak": 0.0}

    def test_histogram_summary_stats(self):
        histogram = Histogram("h")
        for x in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(x)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(10.0)
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0 and histogram.max == 4.0
        snapshot = histogram.snapshot()
        assert snapshot["h.count"] == 4.0
        assert "h.p50" in snapshot and "h.p99" in snapshot

    def test_empty_histogram_is_nan(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.mean)
        assert math.isnan(histogram.snapshot()["h.p50"])


def nearest_rank_oracle(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestExactQuantiles:
    """Both histograms answer the nearest-rank quantile of what they saw."""

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=200),
        q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_histogram_and_window_match_sorted_oracle(self, values, q):
        histogram = Histogram("h")
        histogram.observe_many(values)
        windowed = WindowedHistogram("w")
        for x in values:
            windowed.observe(x)
        expected = nearest_rank_oracle(values, q)
        assert histogram.quantile(q) == expected
        assert windowed.quantile(q) == expected
        snapshot = histogram.snapshot()
        assert set(snapshot) == {
            f"h.{key}" for key in ("count", "sum", "mean", "min", "max", "p50", "p90", "p99")
        }
        assert snapshot["h.count"] == float(len(values))
        assert snapshot["h.min"] == min(values) and snapshot["h.max"] == max(values)
        assert snapshot["h.mean"] == pytest.approx(sum(values) / len(values), abs=1e-6)
        for key, rank in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            assert snapshot[f"h.{key}"] == nearest_rank_oracle(values, rank)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(finite_floats, min_size=1, max_size=100), data=st.data())
    def test_snapshot_ignores_observation_order_and_chunking(self, values, data):
        """Exact quantiles depend on the multiset of samples only (P² did not)."""
        reordered = data.draw(st.permutations(values))
        cut = data.draw(st.integers(min_value=0, max_value=len(values)))
        in_order = Histogram("h")
        in_order.observe_many(values)
        chunked = Histogram("h")
        chunked.observe_many(reordered[:cut])
        for x in reordered[cut:]:
            chunked.observe(x)
        expected = in_order.snapshot()
        got = chunked.snapshot()
        for key in ("count", "min", "max", "p50", "p90", "p99"):
            assert got[f"h.{key}"] == expected[f"h.{key}"]

    def test_empty_histogram_readers_are_nan(self):
        histogram = Histogram("h")
        assert histogram.count == 0 and histogram.sum == 0.0
        assert math.isnan(histogram.min) and math.isnan(histogram.max)
        assert math.isnan(histogram.quantile(0.5))
        snapshot = histogram.snapshot()
        assert snapshot["h.count"] == 0.0
        assert all(math.isnan(snapshot[f"h.{key}"]) for key in ("mean", "min", "max", "p50", "p90", "p99"))

    def test_small_sample_quantile_is_an_observed_order_statistic(self):
        histogram = Histogram("h")
        histogram.observe_many([5.0, 1.0, 3.0])
        assert histogram.quantile(0.5) == 3.0
        assert histogram.quantile(0.99) == 5.0

    def test_quantile_outside_unit_interval_rejected(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


class TestWindowedHistogram:
    def test_quantiles_reflect_only_the_active_window(self):
        windowed = WindowedHistogram("w")
        windowed.observe_many([900.0] * 100)  # a transient spike
        windowed.rotate()
        windowed.observe_many([10.0] * 100)  # traffic back to normal
        assert windowed.quantile(0.99) == 10.0  # the spike is gone

    def test_empty_active_window_falls_back_to_last_completed(self):
        windowed = WindowedHistogram("w")
        windowed.observe_many([1.0, 2.0, 3.0, 4.0])
        windowed.rotate()
        assert windowed.quantile(0.5) == 3.0
        assert windowed.count == 4

    def test_no_samples_at_all_is_nan(self):
        windowed = WindowedHistogram("w")
        assert math.isnan(windowed.quantile(0.99))
        windowed.rotate()
        assert math.isnan(windowed.quantile(0.5))

    def test_observation_after_rotation_supersedes_fallback(self):
        windowed = WindowedHistogram("w")
        windowed.observe_many([100.0, 200.0])
        windowed.rotate()
        windowed.observe(7.0)
        assert windowed.quantile(0.5) == 7.0

    def test_quantile_matches_small_sample_order_statistic(self):
        windowed = WindowedHistogram("w")
        for x in (5.0, 1.0, 3.0):
            windowed.observe(x)
        assert windowed.quantile(0.5) == 3.0

    def test_equal_sized_consecutive_windows_are_not_confused(self):
        """Regression: the sorted-buffer cache must invalidate on rotation
        even when consecutive windows hold the same number of samples."""
        windowed = WindowedHistogram("w")
        windowed.observe_many([1.0, 2.0])
        windowed.rotate()
        assert windowed.quantile(0.5) == 2.0  # caches the first window
        windowed.observe_many([80.0, 90.0])
        windowed.rotate()
        assert windowed.quantile(0.5) == 90.0

    def test_snapshot_and_rotation_count(self):
        windowed = WindowedHistogram("w")
        windowed.observe_many([10.0, 20.0])
        windowed.rotate()
        windowed.rotate()  # empty window keeps the fallback
        snapshot = windowed.snapshot()
        assert snapshot["w.count"] == 2.0
        assert snapshot["w.p50"] == 20.0
        assert windowed.windows == 2

    def test_registry_factory(self):
        registry = TelemetryRegistry()
        metric = registry.windowed_histogram("lat.window")
        assert registry.windowed_histogram("lat.window") is metric
        with pytest.raises(TypeError):
            registry.histogram("lat.window")


class TestRegistry:
    def test_create_or_get_returns_same_instance(self):
        registry = TelemetryRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_type_mismatch_rejected(self):
        registry = TelemetryRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_histogram_is_created_by_name_only(self):
        registry = TelemetryRegistry()
        histogram = registry.histogram("lat")
        assert registry.histogram("lat") is histogram
        with pytest.raises(TypeError):
            registry.histogram("lat", quantiles=(0.5,))  # the quantile set is fixed
        histogram.observe(1.0)
        assert sorted(registry.snapshot()) == sorted(
            f"lat.{key}" for key in ("count", "sum", "mean", "min", "max", "p50", "p90", "p99")
        )

    def test_snapshot_is_flat_and_sorted(self):
        registry = TelemetryRegistry()
        registry.counter("z.count").inc()
        registry.gauge("a.level").set(2)
        snapshot = registry.snapshot()
        assert snapshot == {"a.level": 2.0, "a.level.peak": 2.0, "z.count": 1.0}
        assert all(isinstance(v, float) for v in snapshot.values())


class TestSimulationWiring:
    @pytest.fixture(scope="class")
    def smoke_summary(self):
        return get_scenario("smoke").run(seed=0)

    def test_summary_carries_telemetry_snapshot(self, smoke_summary):
        telemetry = smoke_summary.telemetry
        assert telemetry  # populated by ServingSimulation.run
        # Frontend, worker, request and control-plane metrics all present.
        for key in (
            "frontend.requests",
            "worker.batches",
            "queries.forwarded",
            "requests.completed",
            "requests.latency_ms.count",
            "control.plan_changes",
            "control.routing_refreshes",
            "cluster.active_workers.peak",
        ):
            assert key in telemetry, key

    def test_telemetry_consistent_with_summary(self, smoke_summary):
        telemetry = smoke_summary.telemetry
        assert telemetry["frontend.requests"] == float(smoke_summary.total_requests)
        assert telemetry["requests.completed"] == float(smoke_summary.completed_requests)
        assert telemetry["requests.dropped"] == float(smoke_summary.dropped_requests)
        # The latency histogram covers every finished request that produced a
        # result (completed + late); the summary's mean_latency_ms covers
        # completed requests only.
        assert telemetry["requests.latency_ms.count"] == float(
            smoke_summary.completed_requests + smoke_summary.late_requests
        )
        assert (
            telemetry["requests.latency_ms.min"]
            <= smoke_summary.mean_latency_ms
            <= telemetry["requests.latency_ms.max"]
        )

    def test_baseline_control_planes_record_telemetry(self):
        summary = get_scenario("smoke").with_overrides(system="proteus").run(seed=0)
        assert summary.telemetry["control.routing_refreshes"] > 0


class TestSweepAggregation:
    def test_telemetry_aggregated_across_seeds(self):
        runner = SweepRunner(parallel=False)
        result = runner.run(["smoke"], seeds=[0, 1])
        stats = result.telemetry("queries.forwarded")["smoke"]
        assert stats.n == 2
        values = [r.summary.telemetry["queries.forwarded"] for r in result.records]
        assert stats.mean == pytest.approx(sum(values) / 2)
        assert "queries.forwarded" in result.telemetry_names()

    def test_missing_metrics_aggregate_as_nan_dropped(self):
        runner = SweepRunner(parallel=False)
        result = runner.run(["smoke"], seeds=[0])
        stats = result.telemetry("no.such.metric")["smoke"]
        assert stats.n == 0 and math.isnan(stats.mean)
