"""Allocation-policy plug point of the unified control plane.

An :class:`AllocationPolicy` decides *what to run*: given a
:class:`~repro.control.context.ControlContext` (the engine's per-period
snapshot of live cluster state and telemetry) it produces an
:class:`~repro.core.allocation.AllocationPlan`.  The base class implements
the generic machinery every periodic control plane shares — interval-based
reallocation, demand-quantum provisioning targets and fingerprint-keyed LRU
plan caching — so concrete policies usually override only :meth:`build_plan`
(and :meth:`fingerprint` when their plans depend on more runtime state than
the multiplier estimates).  Feedback-driven policies override
:meth:`allocate` itself and consult the context: :class:`SLOFeedbackPolicy`
scales its capacity target from the observed p99-vs-SLO error.

Policies are registered by name (:func:`register_allocation_policy`); Loki's
two-step MILP allocator (:class:`repro.core.controller.Controller`) and the
InferLine/Proteus baselines (:mod:`repro.baselines`) are all policies behind
the same :class:`~repro.control.engine.ControlPlaneEngine`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.control.context import ControlContext
from repro.core.allocation import AllocationPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.engine import ControlPlaneEngine
    from repro.core.load_balancer import RoutingPlan

__all__ = [
    "AllocationPolicy",
    "LokiAllocationPolicy",
    "StaticPlanPolicy",
    "SLOFeedbackPolicy",
    "DelegatingAllocationPolicy",
    "ALLOCATION_POLICIES",
    "register_allocation_policy",
    "multiplier_fingerprint",
]

#: name -> policy class; populated by ``register_allocation_policy`` (the
#: baseline policies register on ``repro.baselines`` import, Loki's on
#: ``repro.core.controller`` import).
ALLOCATION_POLICIES: Dict[str, type] = {}


def register_allocation_policy(cls: type) -> type:
    """Class decorator: add the policy to :data:`ALLOCATION_POLICIES` by its ``name``."""
    ALLOCATION_POLICIES[cls.name] = cls
    return cls


def multiplier_fingerprint(estimates: Dict[str, float]) -> Tuple:
    """Quantised snapshot of multiplier estimates for plan-cache keys.

    Estimates are quantised to 0.5 (the Resource Manager's quantum) so
    heartbeat jitter does not defeat the cache while real drift invalidates
    stale plans — the fix for the seed bug where baseline plan caches were
    keyed on demand alone and served stale plans forever.
    """
    return tuple(sorted((name, round(value * 2) / 2) for name, value in estimates.items()))


class AllocationPolicy:
    """Base class: generic periodic allocation with fingerprinted plan caching."""

    name = "allocation"

    def __init__(self):
        self.engine: Optional["ControlPlaneEngine"] = None

    def bind(self, engine: "ControlPlaneEngine") -> None:
        """Attach the policy to its engine (called once, from the engine ctor)."""
        self.engine = engine

    # -- observation hooks (heartbeats land here through the engine) -----------
    def observe_demand(self, timestamp_s: float, demand_qps: float) -> None:
        self.engine.estimator.observe(demand_qps)

    def observe_multiplier(self, variant_name: str, observed_factor: float) -> None:
        estimates = self.engine.multiplier_estimates
        if variant_name in estimates:
            alpha = self.engine.multiplier_ewma_alpha
            estimates[variant_name] = alpha * observed_factor + (1 - alpha) * estimates[variant_name]

    def observe_task_demand(self, task_name: str, demand_qps: float) -> None:
        estimator = self.engine.task_demand.get(task_name)
        if estimator is not None:
            estimator.observe(demand_qps)

    # -- estimates the routing refresh consumes --------------------------------
    def multiplier_snapshot(self) -> Dict[str, float]:
        return dict(self.engine.multiplier_estimates)

    def routing_demand_qps(self) -> float:
        engine = self.engine
        return max(engine.estimator.estimate(), engine.min_demand_qps)

    # -- allocation ------------------------------------------------------------
    def provisioning_target_qps(self) -> float:
        engine = self.engine
        target = max(engine.estimator.estimate(), engine.min_demand_qps)
        if engine.demand_quantum_qps > 0:
            target = math.ceil(target / engine.demand_quantum_qps) * engine.demand_quantum_qps
        return target

    def fingerprint(self) -> Tuple:
        """Everything (beyond the demand target) a cached plan depends on."""
        return multiplier_fingerprint(self.engine.multiplier_estimates)

    def should_reallocate(self, now_s: float) -> bool:
        engine = self.engine
        if engine.current_plan is None or engine.last_allocation_s is None:
            return True
        return now_s - engine.last_allocation_s >= engine.reallocation_interval_s

    def allocate(self, ctx: ControlContext) -> AllocationPlan:
        """One allocation round: target -> cache lookup -> ``build_plan`` on miss."""
        engine = self.engine
        target = self.provisioning_target_qps()
        key = (round(target, 3), self.fingerprint())
        plan = engine.plan_cache_get(key)
        if plan is None:
            plan = self.build_plan(target)
            engine.plan_cache_put(key, plan)
            engine.allocations_performed += 1
        engine.last_allocation_s = ctx.now_s
        return plan

    def build_plan(self, target_demand_qps: float) -> AllocationPlan:
        raise NotImplementedError

    # -- notifications ---------------------------------------------------------
    def on_context(self, ctx: ControlContext) -> None:
        """Called with every control period's context, before the reallocation
        decision — feedback policies fold each telemetry window into their
        controller state here so no window is skipped between allocations."""

    def on_routing(self, routing: "RoutingPlan") -> None:
        """Called after every routing refresh (Loki records it in the Metadata Store)."""


@register_allocation_policy
class LokiAllocationPolicy(AllocationPolicy):
    """Loki's two-step hardware/accuracy-scaling allocator (Section 4).

    Wraps a :class:`~repro.core.resource_manager.ResourceManager`, which owns
    its own demand estimation (EWMA + headroom), multiplier-aware plan cache
    and plan-switch hysteresis — so this policy overrides the
    generic cached path entirely and routes observations into the Metadata
    Store the way a real Loki deployment's heartbeats would.
    """

    name = "loki"

    def __init__(self, resource_manager):
        super().__init__()
        self.resource_manager = resource_manager
        self.metadata = resource_manager.metadata

    def observe_demand(self, timestamp_s: float, demand_qps: float) -> None:
        self.resource_manager.observe_demand(timestamp_s, demand_qps)

    def observe_multiplier(self, variant_name: str, observed_factor: float) -> None:
        self.metadata.report_multiplier(variant_name, observed_factor)

    def multiplier_snapshot(self) -> Dict[str, float]:
        return self.metadata.multiplier_estimates()

    def routing_demand_qps(self) -> float:
        return max(
            self.resource_manager.estimator.estimate(),
            self.metadata.latest_demand_qps(),
            self.engine.min_demand_qps,
        )

    def should_reallocate(self, now_s: float) -> bool:
        return self.resource_manager.should_reallocate(now_s)

    def allocate(self, ctx: ControlContext) -> AllocationPlan:
        plan = self.resource_manager.allocate(ctx.now_s)
        self.engine.last_allocation_s = ctx.now_s
        return plan

    def build_plan(self, target_demand_qps: float) -> AllocationPlan:
        return self.resource_manager.allocate(self.engine.last_allocation_s or 0.0, demand_qps=target_demand_qps)

    def on_routing(self, routing: "RoutingPlan") -> None:
        self.metadata.set_routing(routing)


@register_allocation_policy
class StaticPlanPolicy(AllocationPolicy):
    """Serves a fixed, externally supplied plan (tests / ablations)."""

    name = "static"

    def __init__(self, plan: AllocationPlan):
        super().__init__()
        self.plan = plan

    def build_plan(self, target_demand_qps: float) -> AllocationPlan:
        return self.plan


@register_allocation_policy
class SLOFeedbackPolicy(AllocationPolicy):
    """SLO-feedback allocation: PID-style scaling of the MILP's capacity target.

    The generic provisioning path plans from the demand estimate alone; this
    policy closes the loop on observed service quality.  Each control period
    it reads the :class:`~repro.control.context.ControlContext` and computes a
    normalised error

    ``error = latency_error + violation_weight * window_violation_rate - violation_target``

    where ``latency_error = (p99 - SLO) / SLO`` and ``p99`` is the *windowed*
    tail estimate (exact quantile over the last control window's latencies):
    a transient spike raises the error only while windows actually show a
    heavy tail, and once traffic recovers the next clean window turns the
    error negative (``-violation_target``) so the integral bleeds the boost
    away on its own.  The error is clamped to ``[-1, error_clamp]``,
    integrated with anti-windup, and the provisioning target is scaled by
    ``1 + kp*error + ki*integral`` (clamped to ``[scale_min, scale_max]`` and
    quantised to ``scale_quantum`` so heartbeat-level jitter does not churn
    plans — every distinct scale is a distinct MILP, and plan churn costs
    model reloads).  ``scale_max`` defaults to 2.0: far enough to double the
    provisioned capacity, small enough to usually stay in the
    hardware-scaling regime instead of forcing accuracy scaling (which swaps
    variants on every worker — each swap is a model reload).

    A large error additionally triggers an *urgent* reallocation after
    ``urgent_interval_s`` instead of waiting out the full reallocation
    interval — the piece that lets the policy chase a flash crowd faster than
    its demand EWMA alone would.
    """

    name = "slo_feedback"

    def __init__(
        self,
        kp: float = 1.5,
        ki: float = 0.5,
        violation_weight: float = 1.0,
        violation_target: float = 0.05,
        error_clamp: float = 2.0,
        integral_clamp: float = 2.0,
        scale_min: float = 1.0,
        scale_max: float = 2.0,
        scale_quantum: float = 0.25,
        urgent_error: float = 0.25,
        urgent_interval_s: float = 1.0,
        communication_latency_ms: float = 2.0,
        solver_options: Optional[Dict[str, object]] = None,
    ):
        super().__init__()
        self.kp = float(kp)
        self.ki = float(ki)
        self.violation_weight = float(violation_weight)
        self.violation_target = float(violation_target)
        self.error_clamp = float(error_clamp)
        self.integral_clamp = float(integral_clamp)
        self.scale_min = float(scale_min)
        self.scale_max = float(scale_max)
        self.scale_quantum = float(scale_quantum)
        self.urgent_error = float(urgent_error)
        self.urgent_interval_s = float(urgent_interval_s)
        self.communication_latency_ms = float(communication_latency_ms)
        self.solver_options = solver_options
        self.error = 0.0
        self.integral = 0.0
        self.scale = 1.0

    # -- feedback loop ---------------------------------------------------------
    def on_context(self, ctx: ControlContext) -> None:
        self.observe(ctx)

    def observe(self, ctx: ControlContext) -> float:
        """Fold one control period's telemetry into the controller state.

        Runs on *every* control tick (via :meth:`on_context`), not only when
        an allocation happens — the integral covers each telemetry window
        exactly once, and :meth:`should_reallocate`'s urgent trigger always
        compares against the current tick's error.
        """
        window = ctx.window
        slo_ms = self.engine.latency_slo_ms if self.engine is not None else ctx.latency_slo_ms
        violation_rate = window.violation_rate
        latency_error = 0.0
        p99 = window.p99_latency_ms
        if slo_ms > 0.0 and p99 == p99:  # NaN-safe: no samples yet -> no latency term
            latency_error = (p99 - slo_ms) / slo_ms
        error = latency_error + self.violation_weight * violation_rate - self.violation_target
        error = max(-1.0, min(self.error_clamp, error))
        dt = window.window_s if window.window_s > 0.0 else 1.0
        self.integral = max(
            -self.integral_clamp, min(self.integral_clamp, self.integral + error * dt)
        )
        self.error = error
        raw = 1.0 + self.kp * error + self.ki * self.integral
        if self.scale_quantum > 0.0:
            raw = round(raw / self.scale_quantum) * self.scale_quantum
        self.scale = max(self.scale_min, min(self.scale_max, raw))
        return self.scale

    def should_reallocate(self, now_s: float) -> bool:
        if super().should_reallocate(now_s):
            return True
        # Urgent reallocations are part of the feedback loop; with the gains
        # zeroed (the "static allocation" baseline) the policy is a plain
        # interval-driven allocator.
        if self.kp == 0.0 and self.ki == 0.0:
            return False
        if self.error >= self.urgent_error and self.engine.last_allocation_s is not None:
            return now_s - self.engine.last_allocation_s >= self.urgent_interval_s
        return False

    # -- provisioning ----------------------------------------------------------
    def provisioning_target_qps(self) -> float:
        return super().provisioning_target_qps() * self.scale

    def fingerprint(self) -> Tuple:
        # The scale multiplies the (quantised) target, which is already part
        # of the cache key; quantising it here again keeps distinct feedback
        # states from colliding when the quantum rounds them together.
        return (round(self.scale, 2), multiplier_fingerprint(self.engine.multiplier_estimates))

    def build_plan(self, target_demand_qps: float) -> AllocationPlan:
        from repro.core.allocation import AllocationProblem

        engine = self.engine
        problem = AllocationProblem(
            pipeline=engine.pipeline,
            num_workers=engine.num_workers,
            latency_slo_ms=engine.latency_slo_ms,
            communication_latency_ms=self.communication_latency_ms,
            multiplicative_factors=engine.multiplier_estimates,
            solver_options=self.solver_options,
        )
        return problem.solve(target_demand_qps)


class DelegatingAllocationPolicy(AllocationPolicy):
    """Adapter for control planes that override ``build_plan`` on themselves.

    :class:`~repro.baselines.base.BaselineControlPlane` subclasses predate the
    policy split and define plan construction as a method on the control
    plane; this adapter exposes that method as a policy so they run behind the
    unified engine unchanged.
    """

    name = "delegating"

    def __init__(self, build_plan: Callable[[float], AllocationPlan], fingerprint: Optional[Callable[[], Tuple]] = None):
        super().__init__()
        self._build_plan = build_plan
        self._fingerprint = fingerprint

    def build_plan(self, target_demand_qps: float) -> AllocationPlan:
        return self._build_plan(target_demand_qps)

    def fingerprint(self) -> Tuple:
        if self._fingerprint is not None:
            return self._fingerprint()
        return super().fingerprint()
