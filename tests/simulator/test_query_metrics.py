"""Tests for request bookkeeping and metrics collection."""

import math

import pytest

from repro.simulator.metrics import MetricsCollector
from repro.simulator.query import IntermediateQuery, Request, RequestStatus
from repro.telemetry import TelemetryRegistry


class TestRequest:
    def test_deadline_from_slo(self):
        request = Request(0, arrival_s=1.0, slo_ms=250.0)
        assert request.deadline_s == pytest.approx(1.25)
        assert request.remaining_slo_ms(1.1) == pytest.approx(150.0)

    def test_single_sink_completion_before_deadline(self):
        request = Request(0, 0.0, 100.0)
        request.add_outstanding(1)
        request.record_sink_completion(0.05, path_accuracy=0.9)
        assert request.status is RequestStatus.COMPLETED
        assert not request.violates_slo
        assert request.mean_accuracy == pytest.approx(0.9)
        assert request.latency_ms == pytest.approx(50.0)

    def test_late_completion_marks_violation(self):
        request = Request(0, 0.0, 100.0)
        request.add_outstanding(1)
        request.record_sink_completion(0.2, path_accuracy=1.0)
        assert request.status is RequestStatus.LATE
        assert request.violates_slo

    def test_any_drop_marks_request_dropped(self):
        request = Request(0, 0.0, 100.0)
        request.add_outstanding(2)
        request.record_sink_completion(0.01, path_accuracy=1.0)
        request.record_drop(0.02)
        assert request.status is RequestStatus.DROPPED
        assert request.violates_slo

    def test_fanout_completion_requires_all_children(self):
        request = Request(0, 0.0, 200.0)
        request.add_outstanding(1)  # root query
        request.add_outstanding(3)  # three detections
        request.record_internal_completion(0.01)  # root query done
        assert request.status is RequestStatus.IN_FLIGHT
        for i in range(3):
            request.record_sink_completion(0.02 + 0.01 * i, path_accuracy=0.8)
        assert request.status is RequestStatus.COMPLETED
        assert request.mean_accuracy == pytest.approx(0.8)
        assert request.sink_results == 3

    def test_zero_detection_request_completes_without_accuracy(self):
        request = Request(0, 0.0, 100.0)
        request.add_outstanding(1)
        request.record_internal_completion(0.01)
        assert request.status is RequestStatus.COMPLETED
        assert request.accuracy_count == 0
        assert request.mean_accuracy == 0.0

    def test_bookkeeping_underflow_detected(self):
        request = Request(0, 0.0, 100.0)
        with pytest.raises(RuntimeError):
            request.record_internal_completion(0.01)

    def test_intermediate_query_accumulates_accuracy(self):
        request = Request(0, 0.0, 100.0)
        query = IntermediateQuery(1, request, "detect", 0.0, accuracy_so_far=1.0)
        query.accuracy_so_far *= 0.9
        query.accuracy_so_far *= 0.8
        assert query.accuracy_so_far == pytest.approx(0.72)
        assert query.remaining_slo_ms(0.05) == pytest.approx(50.0)


def finished_request(arrival, completion, slo_ms=100.0, accuracy=1.0, dropped=False):
    request = Request(0, arrival, slo_ms)
    request.add_outstanding(1)
    if dropped:
        request.record_drop(completion)
    else:
        request.record_sink_completion(completion, path_accuracy=accuracy)
    return request


class TestMetricsCollector:
    def test_requires_finished_requests(self):
        collector = MetricsCollector(cluster_size=4)
        pending = Request(0, 0.0, 100.0)
        with pytest.raises(ValueError):
            collector.record_request_finished(pending)

    def test_counts_and_violation_ratio(self):
        collector = MetricsCollector(cluster_size=4)
        for _ in range(3):
            collector.record_arrival(0.1)
        collector.record_request_finished(finished_request(0.0, 0.05))
        collector.record_request_finished(finished_request(0.0, 0.5))          # late
        collector.record_request_finished(finished_request(0.0, 0.05, dropped=True))
        assert collector.total_requests == 3
        assert collector.completed_requests == 1
        assert collector.late_requests == 1
        assert collector.dropped_requests == 1
        assert collector.slo_violation_ratio() == pytest.approx(2 / 3)

    def test_accuracy_excludes_empty_requests(self):
        collector = MetricsCollector(cluster_size=4)
        collector.record_request_finished(finished_request(0.0, 0.05, accuracy=0.8))
        empty = Request(1, 0.0, 100.0)
        empty.add_outstanding(1)
        empty.record_internal_completion(0.01)
        collector.record_request_finished(empty)
        assert collector.mean_accuracy() == pytest.approx(0.8)

    def test_interval_aggregation(self):
        collector = MetricsCollector(cluster_size=10, interval_s=1.0)
        collector.record_arrival(0.2)
        collector.record_arrival(1.2)
        collector.record_active_workers(0.5, 4)
        collector.record_active_workers(1.5, 8)
        collector.record_request_finished(finished_request(0.2, 0.3))
        collector.record_request_finished(finished_request(1.2, 1.9))  # late (slo 100ms)
        summary = collector.summary()
        assert len(summary.intervals) == 2
        first, second = summary.intervals
        assert first.demand == 1 and second.demand == 1
        assert first.utilization == pytest.approx(0.4)
        assert second.utilization == pytest.approx(0.8)
        assert first.violation_ratio == 0.0
        assert second.violation_ratio == 1.0

    def test_summary_headline_numbers(self):
        collector = MetricsCollector(cluster_size=10, max_pipeline_accuracy=1.0)
        for i in range(4):
            collector.record_arrival(float(i))
            collector.record_request_finished(finished_request(float(i), float(i) + 0.05, accuracy=0.9))
        summary = collector.summary()
        assert summary.total_requests == 4
        assert summary.slo_violation_ratio == 0.0
        assert summary.mean_accuracy == pytest.approx(0.9)
        assert summary.max_accuracy_drop == pytest.approx(0.1)
        assert summary.mean_latency_ms == pytest.approx(50.0)
        assert summary.p99_latency_ms == pytest.approx(50.0)
        assert summary.timeseries("demand") == [1, 1, 1, 1]

    def test_empty_run_summary(self):
        summary = MetricsCollector(cluster_size=4).summary()
        assert summary.total_requests == 0
        assert summary.slo_violation_ratio == 0.0
        assert math.isnan(summary.mean_latency_ms)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(cluster_size=4, interval_s=0.0)

    def test_telemetry_latency_covers_completed_and_late_not_dropped(self):
        registry = TelemetryRegistry()
        collector = MetricsCollector(cluster_size=4, telemetry=registry)
        # (arrival_s, completion_s, dropped) with a 100 ms SLO
        finished = [
            (0.0, 0.030, False),  # completed, 30 ms
            (0.1, 0.180, False),  # completed, 80 ms
            (0.2, 0.450, False),  # late, 250 ms
            (0.3, 0.310, True),  # dropped after 10 ms: no latency sample
            (0.4, 0.420, False),  # completed, 20 ms
            (0.5, 1.400, False),  # late, 900 ms
            (0.6, 0.605, True),  # dropped after 5 ms: no latency sample
        ]
        for arrival, completion, dropped in finished:
            collector.record_request_finished(finished_request(arrival, completion, dropped=dropped))
        latencies = sorted(
            (completion - arrival) * 1000.0 for arrival, completion, dropped in finished if not dropped
        )
        assert collector.completed_requests == 3 and collector.late_requests == 2
        assert collector.dropped_requests == 2

        def nearest_rank(q):
            return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

        snapshot = registry.snapshot()
        assert snapshot["requests.latency_ms.count"] == 5.0
        assert snapshot["requests.latency_ms.min"] == latencies[0]
        assert snapshot["requests.latency_ms.max"] == latencies[-1]
        for key, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            assert snapshot[f"requests.latency_ms.{key}"] == nearest_rank(q)
        # the control plane's per-window view holds the same population
        window = registry.windowed_histogram("requests.latency_ms.window")
        assert window.count == 5
        assert window.quantile(0.5) == nearest_rank(0.5)
