"""Unit tests for the unified control-plane engine and allocation policies."""

import math

import pytest

from repro.baselines import BaselineControlPlane, StaticPlanControlPlane
from repro.control import (
    ALLOCATION_POLICIES,
    ControlPlaneEngine,
    ROUTING_POLICIES,
    StaticPlanPolicy,
    multiplier_fingerprint,
)
from repro.core import Controller, ControllerConfig
from repro.core.allocation import AllocationProblem
from repro.telemetry import TelemetryRegistry, WindowedHistogram


def solved_plan(pipeline, num_workers=10, demand=40.0):
    return AllocationProblem(pipeline, num_workers=num_workers, utilization_target=1.0).solve(demand)


class CountingControlPlane(BaselineControlPlane):
    """Subclass-style control plane that counts plan builds."""

    def __init__(self, *args, **kwargs):
        self.builds = 0
        super().__init__(*args, **kwargs)

    def build_plan(self, target_demand_qps):
        self.builds += 1
        return AllocationProblem(
            self.pipeline, num_workers=self.num_workers, utilization_target=1.0
        ).solve(target_demand_qps)


class TestEngineLoop:
    def test_static_policy_step_produces_plan_and_routing(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), num_workers=10)
        engine.report_demand(0.0, 40.0)
        new_plan, routing = engine.step(0.0, force=True)
        assert new_plan is plan
        assert routing is not None and not routing.frontend_table.is_empty()
        assert engine.plan_changes == 1

    def test_interval_gates_reallocation(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, reallocation_interval_s=10.0
        )
        engine.report_demand(0.0, 40.0)
        engine.step(0.0, force=True)
        assert not engine.should_reallocate(5.0)
        assert engine.should_reallocate(10.0)

    def test_routing_policy_selected_by_name(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), "least_loaded", num_workers=10
        )
        assert type(engine.routing_policy) is ROUTING_POLICIES["least_loaded"]
        engine.report_demand(0.0, 40.0)
        _, routing = engine.step(0.0, force=True)
        assert routing is not None and not routing.frontend_table.is_empty()

    def test_unknown_routing_policy_rejected(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        with pytest.raises(KeyError):
            ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), "no_such_policy", num_workers=10)

    def test_telemetry_counters_track_control_activity(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        registry = TelemetryRegistry()
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, telemetry=registry
        )
        engine.report_demand(0.0, 40.0)
        engine.step(0.0, force=True)
        engine.step(2.0)
        snapshot = registry.snapshot()
        assert snapshot["control.plan_changes"] == 1.0
        assert snapshot["control.routing_refreshes"] >= 2.0
        assert snapshot["control.planned_workers"] == float(plan.total_workers)


class TestTelemetryWindowQuantiles:
    """The context's p50/p99 come from the rotating per-window histogram."""

    def _engine(self, small_pipeline, registry):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, telemetry=registry
        )
        engine.report_demand(0.0, 40.0)
        return engine

    def test_committed_ticks_rotate_the_window(self, small_pipeline):
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        windowed = registry.windowed_histogram("requests.latency_ms.window")
        windowed.observe_many([900.0] * 50)  # spike during the first window
        engine.step(0.0, force=True)  # commits: spike window closes
        windowed.observe_many([10.0] * 50)  # traffic back to normal
        ctx = engine.build_context(1.0)
        assert ctx.window.p99_latency_ms == 10.0  # spike no longer visible

    def test_pure_reads_do_not_rotate(self, small_pipeline):
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        windowed = registry.windowed_histogram("requests.latency_ms.window")
        windowed.observe_many([500.0] * 10)
        engine.build_context(0.5)  # out-of-band read, no commit
        assert windowed.windows == 0
        assert engine.build_context(0.6).window.p99_latency_ms == 500.0

    def test_empty_window_reports_previous_window_not_run_cumulative(self, small_pipeline):
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        windowed = registry.windowed_histogram("requests.latency_ms.window")
        windowed.observe_many([100.0, 200.0])
        engine.step(0.0, force=True)
        ctx = engine.build_context(1.0)  # nothing finished this window yet
        assert ctx.window.p50_latency_ms == 200.0

    def test_no_latency_samples_read_nan_and_commit_still_rotates(self, small_pipeline):
        registry = TelemetryRegistry()
        engine = self._engine(small_pipeline, registry)
        engine.step(0.0, force=True)  # commits on a registry with no samples
        window = engine.last_context.window
        assert math.isnan(window.p50_latency_ms) and math.isnan(window.p99_latency_ms)
        windowed = registry.get("requests.latency_ms.window")
        assert isinstance(windowed, WindowedHistogram)  # created on first read
        assert windowed.windows == 1
        engine.step(1.0)
        assert windowed.windows == 2


class TestPlanCache:
    def test_identical_state_hits_the_cache(self, small_pipeline):
        control = CountingControlPlane(small_pipeline, num_workers=10)
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        control.step(10.0, force=True)
        assert control.builds == 1  # same target + fingerprint -> cached plan
        assert control.allocations_performed == 1
        assert control.last_allocation_s == 10.0  # stamped from ctx.now_s on a cache hit too

    def test_multiplier_drift_invalidates_cached_plans(self, small_pipeline):
        """Regression: the seed cache was keyed on demand alone and served
        stale plans forever once multiplier estimates drifted."""
        control = CountingControlPlane(small_pipeline, num_workers=10)
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        assert control.builds == 1
        # Drift the estimate far enough to move the 0.5-quantised fingerprint.
        for _ in range(20):
            control.report_multiplier("detect_big", 4.0)
        control.step(10.0, force=True)
        assert control.builds == 2

    def test_fingerprint_quantisation_absorbs_heartbeat_jitter(self, small_pipeline):
        control = CountingControlPlane(small_pipeline, num_workers=10)
        control.report_demand(0.0, 40.0)
        control.step(0.0, force=True)
        before = control.plan_fingerprint()
        control.report_multiplier("detect_big", 2.02)  # tiny jitter
        assert control.plan_fingerprint() == before
        control.step(10.0, force=True)
        assert control.builds == 1

    def test_cache_is_lru_bounded(self, small_pipeline):
        control = CountingControlPlane(small_pipeline, num_workers=10, plan_cache_size=2)
        targets = [20.0, 40.0, 60.0]
        for index, target in enumerate(targets):
            control.estimator.reset(target)
            control.step(10.0 * index, force=True)
        assert control.builds == 3
        assert len(control._plan_cache) == 2
        # Oldest key (target 20) was evicted; re-solving it builds again.
        control.estimator.reset(20.0)
        control.step(100.0, force=True)
        assert control.builds == 4


class TestMultiplierSmoothing:
    def test_configured_alpha_used(self, small_pipeline):
        """Regression: the seed hard-coded a 0.3/0.7 EWMA for baselines."""
        plan = solved_plan(small_pipeline)
        control = StaticPlanControlPlane(small_pipeline, 10, plan, ewma_alpha=0.5)
        before = control.multiplier_estimates["detect_big"]
        control.report_multiplier("detect_big", before + 1.0)
        assert control.multiplier_estimates["detect_big"] == pytest.approx(before + 0.5)

    def test_multiplier_alpha_overridable_independently(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        control = StaticPlanControlPlane(
            small_pipeline, 10, plan, ewma_alpha=0.5, multiplier_ewma_alpha=0.1
        )
        before = control.multiplier_estimates["detect_big"]
        control.report_multiplier("detect_big", before + 1.0)
        assert control.multiplier_estimates["detect_big"] == pytest.approx(before + 0.1)

    def test_fingerprint_helper_quantises(self):
        fp = multiplier_fingerprint({"a": 1.74, "b": 2.26})
        assert fp == (("a", 1.5), ("b", 2.5))


class TestRegistries:
    def test_builtin_policies_registered(self):
        assert {"loki", "inferline", "proteus", "static"} <= set(ALLOCATION_POLICIES)
        assert {
            "most_accurate_first",
            "least_loaded",
            "weighted_random",
            "power_of_two",
        } <= set(ROUTING_POLICIES)


class TestControllerFacade:
    def test_controller_routing_policy_config(self, small_pipeline):
        controller = Controller(
            small_pipeline,
            ControllerConfig(num_workers=10, routing_policy="weighted_random", utilization_target=1.0),
        )
        assert type(controller.engine.routing_policy) is ROUTING_POLICIES["weighted_random"]
        controller.report_demand(0.0, 40.0)
        plan, routing = controller.step(0.0, force=True)
        assert plan is not None and routing is not None

    def test_controller_shares_engine_state(self, small_pipeline):
        controller = Controller(small_pipeline, ControllerConfig(num_workers=10, utilization_target=1.0))
        controller.report_demand(0.0, 40.0)
        controller.step(0.0, force=True)
        assert controller.current_plan is controller.engine.current_plan
        assert controller.load_balancer is controller.engine.load_balancer
        assert controller.plan_changes == controller.engine.plan_changes == 1
