"""The unified control-plane engine.

One :class:`ControlPlaneEngine` owns the periodic loop every serving system in
this repo shares — demand estimation, plan caching/diffing, worker-state
expansion and routing refresh — with the system-specific decisions delegated
to two plug points:

* an :class:`~repro.control.policies.AllocationPolicy` (what to run:
  Loki's MILP allocator, the InferLine/Proteus baselines, a static plan...),
* a routing policy (where to send queries: MostAccurateFirst, least-loaded,
  weighted-random, power-of-two-choices; see :mod:`repro.control.routing`).

The engine implements the simulator's
:class:`~repro.simulator.runner.ControlPlane` protocol (``report_demand`` /
``report_multiplier`` / ``report_task_demand`` / ``step``), so every policy
combination drives the cluster through exactly the same loop — the duplicated
step logic that previously lived in ``core/controller.py`` and
``baselines/base.py`` exists only here now.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.control.context import ClusterView, ControlContext, TelemetryWindow
from repro.core.allocation import AllocationPlan
from repro.core.load_balancer import LoadBalancer, RoutingPlan, WorkerState, workers_from_plan
from repro.core.pipeline import Pipeline
from repro.core.resource_manager import DemandEstimator

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.context import ClusterStateProvider
    from repro.control.policies import AllocationPolicy
    from repro.telemetry import TelemetryRegistry

__all__ = ["ControlPlaneEngine"]


class ControlPlaneEngine:
    """Periodic control loop parameterised by allocation and routing policies."""

    def __init__(
        self,
        pipeline: Pipeline,
        allocation: "AllocationPolicy",
        routing=None,
        *,
        num_workers: int,
        latency_slo_ms: Optional[float] = None,
        reallocation_interval_s: float = 10.0,
        routing_refresh_interval_s: float = 1.0,
        ewma_alpha: float = 0.5,
        multiplier_ewma_alpha: Optional[float] = None,
        demand_quantum_qps: float = 20.0,
        min_demand_qps: float = 1.0,
        plan_cache_size: int = 64,
        telemetry: Optional["TelemetryRegistry"] = None,
    ):
        self.pipeline = pipeline
        self.num_workers = int(num_workers)
        self.latency_slo_ms = float(latency_slo_ms if latency_slo_ms is not None else pipeline.latency_slo_ms)
        self.reallocation_interval_s = float(reallocation_interval_s)
        self.ewma_alpha = float(ewma_alpha)
        self.multiplier_ewma_alpha = float(
            multiplier_ewma_alpha if multiplier_ewma_alpha is not None else ewma_alpha
        )
        self.demand_quantum_qps = float(demand_quantum_qps)
        self.min_demand_qps = float(min_demand_qps)
        self.plan_cache_size = int(plan_cache_size)

        #: generic estimator state; policies with their own estimation (Loki's
        #: ResourceManager) simply leave these untouched
        self.estimator = DemandEstimator(alpha=self.ewma_alpha)
        self.multiplier_estimates: Dict[str, float] = {
            variant.name: variant.multiplicative_factor
            for task in pipeline.tasks
            for variant in pipeline.registry.variants(task)
        }
        self.task_demand: Dict[str, DemandEstimator] = {
            task: DemandEstimator(alpha=self.ewma_alpha) for task in pipeline.tasks
        }

        if routing is None:
            from repro.control.routing import make_routing_policy

            routing = make_routing_policy("most_accurate_first", pipeline)
        elif isinstance(routing, str):
            from repro.control.routing import make_routing_policy

            routing = make_routing_policy(routing, pipeline)
        self.routing_policy = routing
        self.load_balancer = LoadBalancer(pipeline, refresh_interval_s=routing_refresh_interval_s, policy=routing)

        self.allocation = allocation
        allocation.bind(self)

        self.current_plan: Optional[AllocationPlan] = None
        self.current_routing: Optional[RoutingPlan] = None
        self.current_workers: List[WorkerState] = []
        self.last_allocation_s: Optional[float] = None
        self._plan_cache: "OrderedDict[Tuple, AllocationPlan]" = OrderedDict()
        self.allocations_performed = 0
        self.plan_changes = 0
        #: live cluster state feeding ControlContext snapshots and the
        #: dispatch-time routing probes (attached by the simulation runner)
        self.cluster_state: Optional["ClusterStateProvider"] = None
        #: previous-period telemetry counter readings for window deltas
        self._window_marker: Optional[Tuple[float, ...]] = None
        self.last_context: Optional[ControlContext] = None
        self.telemetry: Optional["TelemetryRegistry"] = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    # -- telemetry --------------------------------------------------------------
    def attach_telemetry(self, registry: "TelemetryRegistry") -> None:
        """Record control-loop activity (plan churn, solves, refreshes) in ``registry``.

        Only deterministic quantities are recorded — wall-clock timings (e.g.
        routing-refresh latency, tracked by the LoadBalancer itself) would
        break the byte-identical-summaries guarantee the scenario substrate
        makes for identical (spec, seed) pairs.
        """
        self.telemetry = registry
        self._tele_plan_changes = registry.counter("control.plan_changes")
        self._tele_allocations = registry.counter("control.allocations")
        self._tele_refreshes = registry.counter("control.routing_refreshes")
        self._tele_workers = registry.gauge("control.planned_workers")

    def attach_cluster_state(self, provider: "ClusterStateProvider") -> None:
        """Attach the live cluster-state provider (the simulator's cluster).

        The provider feeds two read paths: per-control-period
        :class:`~repro.control.context.ClusterView` snapshots inside the
        :class:`~repro.control.context.ControlContext`, and the
        ``queue_snapshot`` probe that dynamic routing choosers consult per
        draw on the dispatch hot path.
        """
        self.cluster_state = provider

    # -- context assembly --------------------------------------------------------
    def build_context(self, now_s: float, commit: bool = False) -> ControlContext:
        """Assemble a :class:`ControlContext` for ``now_s``.

        No RNG is consumed and no simulator state is touched, so context
        assembly cannot perturb a run (policies that ignore the context
        behave bit-for-bit as before the redesign).  The telemetry window
        spans everything since the *last committed* context; only
        :meth:`step` passes ``commit=True``, so out-of-band callers (tests,
        dashboards, curious policies) get a pure read that cannot shorten
        the window the feedback loop integrates.
        """
        provider = self.cluster_state
        view = provider.cluster_view(now_s) if provider is not None else ClusterView.empty(now_s)
        ctx = ControlContext(
            now_s=now_s,
            view=view,
            window=self._telemetry_window(now_s, commit),
            latency_slo_ms=self.latency_slo_ms,
        )
        self.last_context = ctx
        return ctx

    def _telemetry_window(self, now_s: float, commit: bool) -> TelemetryWindow:
        registry = self.telemetry
        if registry is None:
            return TelemetryWindow(demand_qps=self.allocation.routing_demand_qps())

        def counter_value(name: str) -> float:
            metric = registry.get(name)
            return metric.value if metric is not None else 0.0

        completed = counter_value("requests.completed")
        dropped = counter_value("requests.dropped")
        late = counter_value("requests.late")
        retries = counter_value("resilience.retries")
        failover = counter_value("resilience.failover_requeued")
        timeouts = counter_value("resilience.timeouts")
        marker = self._window_marker
        if marker is None:
            marker = (now_s, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        # Windowed quantiles: the rotating per-window histogram reflects the
        # latencies observed *since the last committed context* (plus the
        # previous window as fallback while the current one is empty), so the
        # feedback policies see the tail of the window, not of the whole run.
        latency = registry.windowed_histogram("requests.latency_ms.window")
        p50 = latency.quantile(0.5)
        p99 = latency.quantile(0.99)
        if commit:
            self._window_marker = (now_s, completed, dropped, late, retries, failover, timeouts)
            latency.rotate()
        return TelemetryWindow(
            window_s=max(0.0, now_s - marker[0]),
            completed=int(completed - marker[1]),
            dropped=int(dropped - marker[2]),
            late=int(late - marker[3]),
            p50_latency_ms=p50,
            p99_latency_ms=p99,
            demand_qps=self.allocation.routing_demand_qps(),
            retries=int(retries - marker[4]),
            failover_requeued=int(failover - marker[5]),
            timeouts=int(timeouts - marker[6]),
        )

    # -- reporting API (frontend / worker heartbeats) ---------------------------
    def report_demand(self, timestamp_s: float, demand_qps: float) -> None:
        """Frontend demand report for the last measurement interval."""
        self.allocation.observe_demand(timestamp_s, demand_qps)

    def report_multiplier(self, variant_name: str, observed_factor: float) -> None:
        """Worker heartbeat: observed multiplicative factor for one variant."""
        self.allocation.observe_multiplier(variant_name, observed_factor)

    def report_task_demand(self, task_name: str, demand_qps: float) -> None:
        """Observed arrival rate at one task (what a pipeline-agnostic system sees)."""
        self.allocation.observe_task_demand(task_name, demand_qps)

    # -- plan cache -------------------------------------------------------------
    def plan_cache_get(self, key: Tuple) -> Optional[AllocationPlan]:
        plan = self._plan_cache.get(key)
        if plan is not None:
            self._plan_cache.move_to_end(key)
        return plan

    def plan_cache_put(self, key: Tuple, plan: AllocationPlan) -> None:
        self._plan_cache[key] = plan
        if len(self._plan_cache) > self.plan_cache_size:
            self._plan_cache.popitem(last=False)

    # -- periodic control loop ---------------------------------------------------
    def should_reallocate(self, now_s: float) -> bool:
        return self.allocation.should_reallocate(now_s)

    def step(self, now_s: float, force: bool = False) -> Tuple[Optional[AllocationPlan], Optional[RoutingPlan]]:
        """Run one control-loop tick: re-allocate and/or refresh routing as needed.

        Each tick assembles one :class:`~repro.control.context.ControlContext`
        (live ClusterView + telemetry window) that both the allocation policy
        and the routing refresh consume.  Returns the (possibly new)
        allocation plan and routing plan; either may be ``None`` when nothing
        changed this tick.
        """
        ctx = self.build_context(now_s, commit=True)
        # Every policy observes every period's context (feedback loops must
        # integrate each telemetry window, not just the reallocation-time
        # one), and only then decides whether to reallocate — an urgent
        # SLO-error trigger acts on this tick's signal, not last period's.
        self.allocation.on_context(ctx)
        new_plan = None
        if force or self.allocation.should_reallocate(now_s):
            plan = self.allocation.allocate(ctx)
            if self.telemetry is not None:
                self._tele_allocations.inc()
            if self._plan_differs(plan):
                self.plan_changes += 1
                self.current_workers = workers_from_plan(plan, self.pipeline)
                new_plan = plan
                if self.telemetry is not None:
                    self._tele_plan_changes.inc()
                    self._tele_workers.set(plan.total_workers)
            self.current_plan = plan

        new_routing = None
        plan_changed = new_plan is not None
        if self.current_plan is not None and (
            force or self.load_balancer.should_refresh(now_s, plan_changed)
        ):
            new_routing = self.load_balancer.refresh(
                now_s,
                self.current_workers,
                self.allocation.routing_demand_qps(),
                self.allocation.multiplier_snapshot(),
                view=ctx.view,
            )
            self.current_routing = new_routing
            self._bind_dynamic_choosers(new_routing)
            self.allocation.on_routing(new_routing)
            if self.telemetry is not None:
                self._tele_refreshes.inc()
        return new_plan, new_routing

    def _bind_dynamic_choosers(self, routing: RoutingPlan) -> None:
        """Bind the live queue probe to every dynamic chooser in a fresh plan.

        Static plans carry no choosers, so this is a cheap no-op walk for
        them; with no cluster attached the choosers are bound to ``None`` and
        decline every draw (static fallback).
        """
        probe = self.cluster_state.queue_snapshot if self.cluster_state is not None else None
        bound = set()
        tables = (routing.frontend_table, *routing.worker_tables.values())
        for table in tables:
            chooser = table.dynamic
            if chooser is not None and id(chooser) not in bound:
                chooser.bind_probe(probe)
                bound.add(id(chooser))

    def _plan_differs(self, plan: AllocationPlan) -> bool:
        if self.current_plan is None:
            return True
        old = {(a.task, a.variant_name, a.batch_size): a.replicas for a in self.current_plan.allocations}
        new = {(a.task, a.variant_name, a.batch_size): a.replicas for a in plan.allocations}
        return old != new

    # -- queries -------------------------------------------------------------------
    @property
    def active_workers(self) -> int:
        return self.current_plan.total_workers if self.current_plan else 0

    @property
    def expected_accuracy(self) -> float:
        return self.current_plan.expected_accuracy if self.current_plan else 0.0

    def latency_budget_ms(self, task: str, variant_name: str, batch_size: int) -> float:
        """Per-task latency budget derived from the plan's configured batch size."""
        if self.current_plan is None:
            raise RuntimeError("no allocation plan available yet")
        return self.current_plan.latency_budget_ms(task, variant_name, batch_size)
