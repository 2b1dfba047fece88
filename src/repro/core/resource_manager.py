"""The Resource Manager: two-step hardware/accuracy scaling (Section 4).

The Resource Manager is invoked periodically (every 10 seconds in the paper's
experiments).  Each invocation it

1. estimates the demand to provision for (an exponentially weighted moving
   average over the recent demand history, Section 4.2),
2. tries *hardware scaling*: meet the estimated demand with the fewest
   workers while every task uses its most accurate variant, and
3. if that is infeasible with the whole cluster, falls back to *accuracy
   scaling*: use the whole cluster and choose variants/batch sizes/replication
   factors that maximise system accuracy while meeting the demand.

The heavy lifting is done by :class:`repro.core.allocation.AllocationProblem`;
this module adds demand estimation, plan caching (identical targets re-use
the previous MILP solution, which keeps long simulations tractable), the
"significant change between periodic invocations" trigger and the plan-switch
hysteresis.  When two LPs prove that the hysteresis would discard the
accuracy-scaling plan of a re-plan, that MILP is not solved until its plan-cache
entry is first hit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Set, Tuple, TypeVar, Union

from repro.core.allocation import ACCURACY_SCALING, AllocationPlan, AllocationProblem, HARDWARE_SCALING
from repro.core.metadata import MetadataStore
from repro.core.pipeline import Pipeline

__all__ = ["DemandEstimator", "ResourceManager", "ResourceManagerStats"]

T = TypeVar("T")

#: an active plan is replaced by one with fewer workers only once the target
#: demand is at most this share of the demand it was provisioned for
SCALE_DOWN_RATIO = 0.7

#: numerical slack between the LP-relaxation bound and the accuracy the
#: Resource Manager computes from a MILP solution's flows
CERTIFICATE_TOLERANCE = 1e-6


class DemandEstimator:
    """Exponentially weighted moving average of the observed demand.

    The estimate optionally includes a safety headroom factor so the plan is
    provisioned slightly above the smoothed demand, absorbing sub-interval
    bursts.
    """

    def __init__(self, alpha: float = 0.5, headroom: float = 1.05, initial: float = 0.0):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        self.alpha = float(alpha)
        self.headroom = float(headroom)
        self._estimate = float(initial)
        self._observations = 0

    def observe(self, demand_qps: float) -> float:
        """Fold one demand sample into the estimate and return the new estimate."""
        if demand_qps < 0:
            raise ValueError("demand cannot be negative")
        if self._observations == 0:
            self._estimate = demand_qps
        else:
            self._estimate = self.alpha * demand_qps + (1 - self.alpha) * self._estimate
        self._observations += 1
        return self.estimate()

    def estimate(self) -> float:
        """Current provisioning target (smoothed demand x headroom)."""
        return self._estimate * self.headroom

    @property
    def raw_estimate(self) -> float:
        return self._estimate

    @property
    def num_observations(self) -> int:
        return self._observations

    def reset(self, value: float = 0.0) -> None:
        self._estimate = float(value)
        self._observations = 0


@dataclass
class ResourceManagerStats:
    """Bookkeeping about Resource Manager activity (used by Section 6.5 benches).

    ``milp_solves`` counts the allocation MILPs handed to the solver
    (hardware scaling, accuracy scaling, max-throughput).
    ``total_solve_time_s`` is the wall time of all solver work: those MILPs
    and the certificate LPs of :meth:`ResourceManager._discard_certified`, so
    ``mean_solve_time_s`` is solver time per MILP solved.  ``replans_skipped``
    counts plan-cache misses whose accuracy-scaling MILP was not solved
    because the certificate proved its plan would be discarded.
    """

    invocations: int = 0
    milp_solves: int = 0
    replans_skipped: int = 0
    cache_hits: int = 0
    hardware_plans: int = 0
    accuracy_plans: int = 0
    infeasible_plans: int = 0
    total_solve_time_s: float = 0.0

    @property
    def mean_solve_time_s(self) -> float:
        return self.total_solve_time_s / self.milp_solves if self.milp_solves else 0.0


class ResourceManager:
    """Periodic resource allocation with hardware and accuracy scaling.

    Parameters
    ----------
    pipeline:
        The pipeline to manage.
    num_workers:
        Cluster size ``S``.
    metadata:
        The Metadata Store to read demand history and multiplier estimates
        from; a fresh one is created when omitted.
    invocation_interval_s:
        Period between invocations (10 s in the paper).
    demand_quantum_qps:
        Demand estimates up to ``demand_quantum_qps / 0.15`` are rounded *up*
        to a multiple of this quantum before solving; larger ones get a 5%
        markup instead (see :meth:`provisioning_target_qps`).  Identical
        targets reuse the cached plan.
    reallocation_threshold:
        Relative demand change between periodic invocations that triggers an
        immediate re-allocation ("significant change", Section 4.2).
    min_demand_qps:
        Floor on the provisioning target so the system always hosts at least a
        minimal deployment even when demand momentarily drops to zero.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        num_workers: int,
        metadata: Optional[MetadataStore] = None,
        latency_slo_ms: Optional[float] = None,
        communication_latency_ms: float = 2.0,
        batch_sizes: Optional[Tuple[int, ...]] = None,
        invocation_interval_s: float = 10.0,
        ewma_alpha: float = 0.5,
        headroom: float = 1.1,
        demand_quantum_qps: float = 20.0,
        reallocation_threshold: float = 0.25,
        min_demand_qps: float = 1.0,
        utilization_target: float = 0.75,
        accuracy_improvement_margin: float = 0.02,
        solver_options: Optional[Dict[str, object]] = None,
        plan_cache_size: int = 256,
    ):
        self.pipeline = pipeline
        self.num_workers = int(num_workers)
        self.metadata = metadata if metadata is not None else MetadataStore(pipeline)
        self.latency_slo_ms = float(latency_slo_ms if latency_slo_ms is not None else pipeline.latency_slo_ms)
        self.communication_latency_ms = float(communication_latency_ms)
        self.batch_sizes = batch_sizes
        self.invocation_interval_s = float(invocation_interval_s)
        self.estimator = DemandEstimator(alpha=ewma_alpha, headroom=headroom)
        self.demand_quantum_qps = float(demand_quantum_qps)
        self.reallocation_threshold = float(reallocation_threshold)
        self.min_demand_qps = float(min_demand_qps)
        self.utilization_target = float(utilization_target)
        self.accuracy_improvement_margin = float(accuracy_improvement_margin)
        self.solver_options = solver_options
        self.plan_cache_size = int(plan_cache_size)

        self.stats = ResourceManagerStats()
        self._plan_cache: Dict[Tuple[float, Tuple[Tuple[str, float], ...]], Union[AllocationPlan, _DeferredPlan]] = {}
        self._last_invocation_s: Optional[float] = None
        self._last_planned_demand: Optional[float] = None
        self.current_plan: Optional[AllocationPlan] = None

    # -- demand handling ------------------------------------------------------
    def observe_demand(self, timestamp_s: float, demand_qps: float) -> None:
        """Feed one Frontend demand report into the estimator and metadata store."""
        self.metadata.record_demand(timestamp_s, demand_qps)
        self.estimator.observe(demand_qps)

    def provisioning_target_qps(self) -> float:
        """Demand the next plan should be provisioned for (the EWMA estimate, rounded up).

        The quantum is ``max(demand_quantum_qps, 0.15 * estimate)``.  Up to
        ``demand_quantum_qps / 0.15`` (133 qps at the default 20 qps) the
        estimate is rounded up to a multiple of ``demand_quantum_qps``.  Above
        that the quantum is 15% of the estimate itself, so the rounding is
        ``ceil(1 / 0.15) * 0.15 = 1.05`` times the estimate (200 -> 210,
        543.44 -> 570.61): a 5% markup rather than a quantisation.  Every
        distinct estimate is then a distinct target, and the plan cache only
        hits when an estimate repeats exactly.
        """
        target = max(self.estimator.estimate(), self.min_demand_qps)
        quantum = max(self.demand_quantum_qps, 0.15 * target)
        if quantum > 0:
            target = math.ceil(target / quantum) * quantum
        return target

    # -- invocation logic -------------------------------------------------------
    def should_reallocate(self, now_s: float) -> bool:
        """Periodic invocation plus the significant-demand-change trigger."""
        if self.current_plan is None or self._last_invocation_s is None:
            return True
        if now_s - self._last_invocation_s >= self.invocation_interval_s:
            return True
        if self._last_planned_demand:
            # "Significant change" compares the current smoothed estimate with
            # the demand the active plan was provisioned for (Section 4.2).
            estimate = max(self.estimator.estimate(), self.min_demand_qps)
            change = abs(estimate - self._last_planned_demand) / max(self._last_planned_demand, 1e-9)
            if change >= self.reallocation_threshold:
                return True
        return False

    def allocate(self, now_s: float, demand_qps: Optional[float] = None) -> AllocationPlan:
        """Produce a new allocation plan for the current (or given) demand.

        To avoid thrashing the cluster (every plan switch can force model
        swaps with multi-second load times), the freshly solved plan only
        replaces the active plan when it is materially different: the active
        plan can no longer cover the target demand, workers can be freed, the
        scaling mode changes, or accuracy improves by more than the configured
        margin.
        """
        self.stats.invocations += 1
        target = float(demand_qps) if demand_qps is not None else self.provisioning_target_qps()
        target = max(target, self.min_demand_qps)

        cache_key = self._cache_key(target)
        cached = self._plan_cache.get(cache_key)
        candidate: Union[AllocationPlan, _DeferredPlan]
        if cached is not None:
            self.stats.cache_hits += 1
            if isinstance(cached, _DeferredPlan):
                cached = self._plan_cache[cache_key] = self._finish(cached)
                cached.solver_info["deferred"] = True
            candidate = cached
        else:
            candidate = self._solve(target)
            self._remember(cache_key, candidate)

        if isinstance(candidate, _DeferredPlan):
            plan = self.current_plan  # certified: _should_switch would keep it
        else:
            plan = candidate if self._should_switch(candidate, target) else self.current_plan
        assert plan is not None
        self._last_invocation_s = now_s
        self._last_planned_demand = target
        self.current_plan = plan
        self.metadata.set_plan(plan)
        self._update_stats(plan)
        return plan

    def _should_switch(self, candidate: AllocationPlan, target_qps: float) -> bool:
        current = self.current_plan
        if current is None:
            return True
        if not current.feasible:
            return True
        if target_qps > current.demand_qps + 1e-9:
            return True  # the active plan was provisioned for less demand
        if candidate.mode != current.mode:
            return True
        if candidate.total_workers < current.total_workers and target_qps <= SCALE_DOWN_RATIO * current.demand_qps:
            # Hardware scale-down frees servers, but only when demand has
            # dropped well below what the active plan was provisioned for --
            # the hysteresis prevents oscillating scale-down/scale-up cycles
            # (each cycle pays multi-second model-load penalties).
            return True
        if candidate.expected_accuracy > current.expected_accuracy + self.accuracy_improvement_margin:
            return True  # accuracy can be improved meaningfully
        return False

    def _discard_certified(self, problem: AllocationProblem, target_qps: float) -> bool:
        """Whether :meth:`_should_switch` is certain to keep the active plan
        over the accuracy-scaling plan for ``target_qps``, given that
        hardware scaling (already solved on ``problem``) was infeasible.

        The active plan must be a feasible accuracy-scaling plan, provisioned
        for at least ``target_qps`` and for less than ``target_qps /
        SCALE_DOWN_RATIO``, so only the accuracy test can call for a switch.
        Two LPs settle that test without the MILP: the active plan's
        replicas, held fixed, carry ``target_qps`` (so step 2 is feasible and
        its plan, not the best-effort one, is the candidate), and step 2's
        LP relaxation caps the candidate's accuracy at the active plan's plus
        the margin.

        The skip is exact only if the deferred accuracy-scaling MILP returns
        a solution, which it must when the search runs to completion (the
        active plan's replicas give a feasible point).  A search stopped by
        ``time_limit`` without an incumbent would make the immediate path
        consider the best-effort plan, which a skip never does; plans
        materialised from a deferred entry carry ``solver_info["deferred"]``
        so such a case is visible.
        """
        current = self.current_plan
        if current is None or not current.feasible or current.mode != ACCURACY_SCALING:
            return False
        if target_qps > current.demand_qps + 1e-9 or target_qps <= SCALE_DOWN_RATIO * current.demand_qps:
            return False
        bound = problem.accuracy_upper_bound(target_qps)
        limit = current.expected_accuracy + self.accuracy_improvement_margin - CERTIFICATE_TOLERANCE
        if bound is None or bound > limit:
            return False
        return problem.can_route(current, target_qps)

    def maybe_allocate(self, now_s: float) -> Optional[AllocationPlan]:
        """Allocate only when :meth:`should_reallocate` says so."""
        if self.should_reallocate(now_s):
            return self.allocate(now_s)
        return None

    # -- internals ------------------------------------------------------------
    def _problem(self) -> AllocationProblem:
        return AllocationProblem(
            pipeline=self.pipeline,
            num_workers=self.num_workers,
            latency_slo_ms=self.latency_slo_ms,
            communication_latency_ms=self.communication_latency_ms,
            batch_sizes=self.batch_sizes,
            utilization_target=self.utilization_target,
            multiplicative_factors=self.metadata.multiplier_estimates(),
            solver_options=self.solver_options,
        )

    def _solve(self, target_qps: float) -> Union[AllocationPlan, "_DeferredPlan"]:
        """The two-step procedure of :meth:`AllocationProblem.solve`, except
        that a certified discard (:meth:`_discard_certified`) defers the
        accuracy-scaling solve to the plan cache's first hit."""
        problem = self._problem()
        preferred = None
        if self.current_plan is not None:
            # Bias the accuracy-scaling MILP toward the incumbent plan's
            # variants so consecutive plans stay similar (fewer model swaps).
            preferred = {a.variant_name for a in self.current_plan.allocations}
        plan = self._run_milp(problem.solve_hardware_scaling, target_qps)
        if plan is not None:
            return plan
        deferred = _DeferredPlan(problem, target_qps, preferred)
        if self._timed(self._discard_certified, problem, target_qps):
            self.stats.replans_skipped += 1
            return deferred
        return self._finish(deferred)

    def _finish(self, deferred: "_DeferredPlan") -> AllocationPlan:
        """Accuracy scaling, else the best-effort plan, for a problem whose
        hardware scaling was infeasible."""
        plan = self._run_milp(
            deferred.problem.solve_accuracy_scaling, deferred.target_qps, preferred_variants=deferred.preferred
        )
        if plan is None:
            plan = self._run_milp(deferred.problem.best_effort_plan, deferred.target_qps)
        return plan

    def _run_milp(self, step: Callable[..., T], *args, **kwargs) -> T:
        self.stats.milp_solves += 1
        return self._timed(step, *args, **kwargs)

    def _timed(self, step: Callable[..., T], *args, **kwargs) -> T:
        """``step(*args, **kwargs)``, its wall time added to ``total_solve_time_s``."""
        start = time.perf_counter()  # reprolint: disable=R002 -- solve-time stat is reporting-only
        result = step(*args, **kwargs)
        self.stats.total_solve_time_s += time.perf_counter() - start  # reprolint: disable=R002 -- reporting-only
        return result

    def _cache_key(self, target_qps: float) -> Tuple[float, Tuple[Tuple[str, float], ...]]:
        # Multiplier estimates are quantised to 0.5 so heartbeat jitter does
        # not defeat the cache (and does not trigger gratuitous re-planning).
        multipliers = tuple(
            sorted((name, round(value * 2) / 2) for name, value in self.metadata.multiplier_estimates().items())
        )
        return (round(target_qps, 3), multipliers)

    def _remember(self, key, plan: Union[AllocationPlan, "_DeferredPlan"]) -> None:
        if len(self._plan_cache) >= self.plan_cache_size:
            self._plan_cache.pop(next(iter(self._plan_cache)))
        self._plan_cache[key] = plan

    def _update_stats(self, plan: AllocationPlan) -> None:
        if not plan.feasible:
            self.stats.infeasible_plans += 1
        elif plan.mode == HARDWARE_SCALING:
            self.stats.hardware_plans += 1
        elif plan.mode == ACCURACY_SCALING:
            self.stats.accuracy_plans += 1

    def solver_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the process-wide solver solution cache."""
        from repro.solver import default_cache

        return dict(default_cache.stats)

    # -- capacity helpers (used by experiments) ---------------------------------
    def max_capacity_qps(self, restrict_to_best: bool = False, accuracy_floor: Optional[float] = None) -> float:
        """Maximum demand the cluster can support (Figure 1 style capacity)."""
        result = self._problem().max_supported_demand(
            restrict_to_best=restrict_to_best, accuracy_floor=accuracy_floor
        )
        return result.max_demand_qps


class _DeferredPlan(NamedTuple):
    """A plan-cache entry whose accuracy-scaling solve was deferred.

    It keeps what the solve needs -- the problem (with its assembled
    matrices), the target and the incumbent's variants at the time -- so the
    plan it yields on the entry's first hit is the one an immediate solve
    would have cached.
    """

    problem: AllocationProblem
    target_qps: float
    preferred: Optional[Set[str]]
