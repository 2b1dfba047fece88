"""Feedback-control API: ControlContext assembly, shims for pre-feedback policies.

The api_redesign PR changed ``AllocationPolicy.allocate(now_s)`` to
``allocate(ctx)`` and gave ``TrafficSplitPolicy.split`` a third ``view``
argument.  These tests pin the redesigned surface (per-step context assembly,
telemetry windows, live-view plumbing) and the compatibility story: an
old-style third-party policy still runs and emits exactly one
``DeprecationWarning`` per instance.
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


class OldStyleAllocation(AllocationPolicy):
    """Third-party policy written against the pre-feedback allocate(now_s)."""

    name = "old_style_test"

    def __init__(self, plan):
        super().__init__()
        self.plan = plan
        self.calls = []

    def allocate(self, now_s):
        self.calls.append(now_s)
        self.engine.last_allocation_s = now_s
        return self.plan


class OldStyleSplit(TrafficSplitPolicy):
    """Third-party routing policy with the pre-feedback split(workers, demand)."""

    name = "old_split_test"

    def split(self, workers, demand_qps):
        share = demand_qps / len(workers)
        return [min(share, w.remaining_capacity_qps) for w in workers]


class TestDeprecationShims:
    def test_old_style_allocate_runs_with_single_warning(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        policy = OldStyleAllocation(plan)
        engine = ControlPlaneEngine(small_pipeline, policy, num_workers=10)
        engine.report_demand(0.0, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.step(0.0, force=True)
            engine.step(10.0, force=True)
            engine.step(20.0, force=True)
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "allocate(now_s) is deprecated" in str(deprecations[0].message)
        # the shim passed plain timestamps, and the policy drove real plans
        assert policy.calls == [0.0, 10.0, 20.0]
        assert engine.current_plan is plan

    def test_old_style_split_runs_with_single_warning(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), OldStyleSplit(small_pipeline), num_workers=10
        )
        engine.report_demand(0.0, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.step(0.0, force=True)
            engine.step(1.0, force=True)
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "split(workers, demand_qps) is deprecated" in str(deprecations[0].message)
        assert engine.current_routing is not None
        assert not engine.current_routing.frontend_table.is_empty()

    def test_annotated_context_param_counts_as_new_style(self, small_pipeline):
        """An override whose first parameter is annotated ControlContext is
        context-aware regardless of the parameter name."""
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

    def test_new_style_policies_warn_nothing(self, small_pipeline):
        plan = solved_plan(small_pipeline)
        engine = ControlPlaneEngine(
            small_pipeline, StaticPlanPolicy(plan), "least_loaded", num_workers=10
        )
        engine.report_demand(0.0, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.step(0.0, force=True)
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []

    def test_legacy_split_with_extra_defaulted_param(self, small_pipeline):
        """Regression: classification is by the `view` keyword, not arity — a
        legacy split with an unrelated defaulted parameter must not have the
        ClusterView bound to it."""
        plan = solved_plan(small_pipeline)
        seen = []

        class LegacySplitWithDefault(TrafficSplitPolicy):
            def split(self, workers, demand_qps, spread=2.0):
                seen.append(spread)
                share = demand_qps / (len(workers) * spread) * spread
                return [min(share, w.remaining_capacity_qps) for w in workers]

        engine = ControlPlaneEngine(
            small_pipeline,
            StaticPlanPolicy(plan),
            LegacySplitWithDefault(small_pipeline),
            num_workers=10,
        )
        engine.attach_cluster_state(FakeProvider(make_view()))
        engine.report_demand(0.0, 40.0)
        with pytest.warns(DeprecationWarning, match="split"):
            engine.step(0.0, force=True)
        assert seen and all(spread == 2.0 for spread in seen)

    def test_legacy_super_delegation_still_works(self, small_pipeline):
        """A legacy subclass calling super().allocate(now_s) keeps working."""
        plan = solved_plan(small_pipeline)

        class LegacyDelegator(AllocationPolicy):
            def __init__(self):
                super().__init__()

            def build_plan(self, target):
                return plan

            def allocate(self, now_s):
                return super().allocate(now_s)  # float, not a ControlContext

        engine = ControlPlaneEngine(small_pipeline, LegacyDelegator(), num_workers=10)
        engine.report_demand(0.0, 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            new_plan, _ = engine.step(0.0, force=True)
        assert new_plan is plan
        assert engine.last_allocation_s == 0.0
