"""Feedback-control API: ControlContext assembly and the ``allocate(ctx)`` surface.

Allocation policies implement ``allocate(ctx)`` and ``TrafficSplitPolicy.split``
takes a third ``view`` argument.  These tests pin that surface (per-step
context assembly, telemetry windows, live-view plumbing).
"""

import dataclasses
import math
import warnings

import pytest

from repro.control import (
    AllocationPolicy,
    ClusterView,
    ControlContext,
    ControlPlaneEngine,
    StaticPlanPolicy,
    TelemetryWindow,
    TrafficSplitPolicy,
    WorkerView,
)
from repro.core.allocation import AllocationProblem
from repro.core.load_balancer import LoadBalancer
from repro.telemetry import TelemetryRegistry


def solved_plan(pipeline, num_workers=10, demand=40.0):
    return AllocationProblem(pipeline, num_workers=num_workers, utilization_target=1.0).solve(demand)


def make_view(now_s=0.0, depths=(2, 0)):
    workers = tuple(
        WorkerView(
            worker_id=f"detect/detect_big/b1/{i}",
            physical_id=f"w{i}",
            task="detect",
            variant_name="detect_big",
            queue_depth=depth,
            in_flight=1,
            service_rate_qps=100.0,
            recent_completions=5,
        )
        for i, depth in enumerate(depths)
    )
    return ClusterView(now_s=now_s, workers=workers, num_physical=2, active_workers=2)


class FakeProvider:
    """Minimal ClusterStateProvider for engine-level tests."""

    def __init__(self, view):
        self.view = view
        self.snapshot_calls = 0

    def cluster_view(self, now_s):
        return dataclasses.replace(self.view, now_s=now_s)

    def queue_snapshot(self, worker_ids):
        self.snapshot_calls += 1
        by_id = {w.worker_id: w for w in self.view.workers}
        backlogs, rates = [], []
        for worker_id in worker_ids:
            worker = by_id.get(worker_id)
            if worker is None:
                backlogs.append(math.inf)
                rates.append(0.0)
            else:
                backlogs.append(worker.backlog)
                rates.append(worker.service_rate_qps)
        return backlogs, rates


class TestClusterViewValue:
    def test_snapshot_is_immutable(self):
        view = make_view()
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.now_s = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.workers[0].queue_depth = 99
        with pytest.raises(TypeError):
            view.workers[0] = None

    def test_lookup_and_totals(self):
        view = make_view(depths=(3, 1))
        assert view.total_queue_depth == 4
        assert view.total_in_flight == 2
        assert view.total_backlog == 6
        assert view.worker("detect/detect_big/b1/0").queue_depth == 3
        assert view.get("nope") is None
        assert len(view.by_task("detect")) == 2
        assert view.by_task("missing") == ()

    def test_expected_wait_normalises_by_service_rate(self):
        worker = make_view(depths=(9,)).workers[0]
        assert worker.expected_wait_s == pytest.approx((9 + 1) / 100.0)
        idle = dataclasses.replace(worker, service_rate_qps=0.0)
        assert idle.expected_wait_s == math.inf

    def test_empty_view(self):
        view = ClusterView.empty(3.0)
        assert view.workers == () and view.total_backlog == 0


class TestWindow:
    def test_rates(self):
        window = TelemetryWindow(window_s=1.0, completed=60, dropped=10, late=30)
        assert window.finished == 100
        assert window.drop_rate == pytest.approx(0.10)
        assert window.violation_rate == pytest.approx(0.40)

    def test_empty_window_rates_are_zero(self):
        window = TelemetryWindow()
        assert window.finished == 0
        assert window.drop_rate == 0.0 and window.violation_rate == 0.0


class TestContextAssembly:
    def test_engine_builds_context_each_step(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), num_workers=10)
        provider = FakeProvider(make_view())
        engine.attach_cluster_state(provider)
        engine.report_demand(0.0, 40.0)
        engine.step(0.0, force=True)
        ctx = engine.last_context
        assert isinstance(ctx, ControlContext)
        assert ctx.now_s == 0.0
        assert ctx.view.total_queue_depth == 2
        assert ctx.latency_slo_ms == engine.latency_slo_ms

    def test_context_without_provider_has_empty_view(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(small_pipeline, StaticPlanPolicy(plan), num_workers=10)
        engine.report_demand(0.0, 40.0)
        engine.step(0.0, force=True)
        assert engine.last_context.view.workers == ()

    def test_out_of_band_build_context_is_a_pure_read(self, small_pipeline):
        """Regression: only step() commits the window marker — a curious
        caller polling build_context between ticks must not shorten the
        window the feedback loop integrates."""
        plan = solved_plan(small_pipeline)
        registry = TelemetryRegistry()
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, telemetry=registry
        )
        engine.report_demand(0.0, 40.0)
        engine.step(0.0, force=True)
        registry.counter("requests.completed").value = 50
        peek = engine.build_context(0.5)  # out-of-band poll
        assert peek.window.completed == 50
        engine.step(1.0, force=True)
        window = engine.last_context.window
        assert window.completed == 50  # not re-baselined by the peek
        assert window.window_s == pytest.approx(1.0)

    def test_window_counts_are_deltas(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        registry = TelemetryRegistry()
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), num_workers=10, telemetry=registry
        )
        engine.report_demand(0.0, 40.0)
        completed = registry.counter("requests.completed")
        registry.windowed_histogram("requests.latency_ms.window").observe_many([10.0, 20.0, 500.0])
        completed.value = 3
        engine.step(0.0, force=True)
        assert engine.last_context.window.completed == 3
        completed.value = 10
        engine.step(1.0, force=True)
        window = engine.last_context.window
        assert window.completed == 7  # delta, not cumulative
        assert window.window_s == pytest.approx(1.0)
        assert window.p50_latency_ms == pytest.approx(20.0)


class TestPolicySignatures:
    def test_annotated_context_param_receives_context(self, small_pipeline):
        """The engine hands an ``allocate`` override the ControlContext,
        whatever its parameter is called."""
        plan = solved_plan(small_pipeline)
        seen = []

        class Annotated(AllocationPolicy):
            def allocate(self, snapshot: ControlContext):
                seen.append(snapshot)
                self.engine.last_allocation_s = snapshot.now_s
                return plan

        engine = ControlPlaneEngine(small_pipeline, Annotated(), num_workers=10)
        engine.report_demand(0.0, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.step(0.0, force=True)
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
        assert seen and isinstance(seen[0], ControlContext)

    def test_allocate_receives_the_step_context(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        seen = []

        class Recording(AllocationPolicy):
            def allocate(self, ctx):
                seen.append(ctx)
                self.engine.last_allocation_s = ctx.now_s
                return plan

        engine = ControlPlaneEngine(
            small_pipeline, Recording(), num_workers=10, latency_slo_ms=300.0
        )
        engine.attach_cluster_state(FakeProvider(make_view()))
        engine.report_demand(0.0, 40.0)
        engine.step(7.0, force=True)
        assert len(seen) == 1 and seen[0] is engine.last_context
        assert seen[0].now_s == 7.0 and seen[0].latency_slo_ms == 300.0
        assert seen[0].view.total_queue_depth == 2

    def test_base_allocate_stamps_ctx_time_and_caches_the_plan(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        targets = []

        class Counting(AllocationPolicy):
            def build_plan(self, target_demand_qps):
                targets.append(target_demand_qps)
                return plan

        policy = Counting()
        engine = ControlPlaneEngine(small_pipeline, policy, num_workers=10)
        engine.report_demand(0.0, 40.0)
        first = policy.allocate(ControlContext(now_s=5.0, view=ClusterView.empty(5.0)))
        second = policy.allocate(ControlContext(now_s=9.0, view=ClusterView.empty(9.0)))
        assert first is plan and second is plan
        assert targets == [policy.provisioning_target_qps()]
        assert engine.allocations_performed == 1
        assert engine.last_allocation_s == 9.0

    def test_load_balancer_passes_view_to_build(self, small_pipeline):
        calls = []

        class Recording:
            def build(self, workers, demand_qps, multiplicative_factors=None, view=None):
                calls.append((demand_qps, multiplicative_factors, view))
                return "routing"

        view = make_view(now_s=2.0)
        balancer = LoadBalancer(small_pipeline, policy=Recording())
        assert balancer.refresh(2.0, [], 10.0, {"detect_big": 1.5}, view=view) == "routing"
        assert calls == [(10.0, {"detect_big": 1.5}, view)]

    def test_context_policies_warn_nothing(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), "least_loaded", num_workers=10
        )
        engine.report_demand(0.0, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.step(0.0, force=True)
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []

    def test_split_receives_the_period_view(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        seen = []

        class RecordingSplit(TrafficSplitPolicy):
            def split(self, workers, demand_qps, view=None):
                seen.append(view)
                return [min(demand_qps / len(workers), w.remaining_capacity_qps) for w in workers]

        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), RecordingSplit(small_pipeline), num_workers=10
        )
        engine.attach_cluster_state(FakeProvider(make_view()))
        engine.report_demand(0.0, 40.0)
        engine.step(3.0, force=True)
        assert seen and all(view is engine.last_context.view for view in seen)
        assert seen[0].now_s == 3.0 and seen[0].total_queue_depth == 2

    def test_build_without_view_parameter_is_rejected(self, small_pipeline):
        """``build(..., view=None)`` is the one routing signature; an
        algorithm without ``view`` fails loudly instead of silently running
        blind to the cluster."""

        class NoView:
            def build(self, workers, demand_qps, multiplicative_factors=None):
                return "routing"

        with pytest.raises(TypeError):
            LoadBalancer(small_pipeline, policy=NoView()).refresh(0.0, [], 10.0)
