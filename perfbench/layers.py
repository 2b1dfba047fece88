"""Where the benchmark's tracer hooks into the program, and the per-layer
metrics derived from one traced simulation.

Every span wraps a public function or method of one layer (``LAYER_OF`` maps
span names to the layers, which are the program's modules).  Per-request calls
get counts instead of spans; the histogram observe calls are also timed.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional

from perfbench.tracer import Tracer

__all__ = [
    "LAYER_OF",
    "SOLVE_OUTCOMES",
    "install",
    "solve_outcomes",
    "unclassified_solves",
    "arrivals_sampled",
    "layer_self_times",
    "layer_metrics",
]

#: span or hot-call name -> layer it belongs to
LAYER_OF: Dict[str, str] = {
    "harness.process": "harness",
    "scenarios.build": "scenarios",
    "workloads.sample_trace": "workloads",
    "control.step": "control",
    "control.allocate": "control",
    "routing.refresh": "core.load_balancer",
    "allocation.hardware_scaling": "core.allocation",
    "allocation.accuracy_scaling": "core.allocation",
    "allocation.max_supported_demand": "core.allocation",
    "allocation.best_effort_plan": "core.allocation",
    "solver.solve": "solver",
    "solver.fingerprint": "solver",
    "solver.standard_form": "solver",
    "solver.backend": "solver",
    "simulator.run": "simulator",
    "cluster.apply_plan": "simulator",
    "metrics.summary": "simulator.metrics",
    "telemetry.snapshot": "telemetry",
    "telemetry.histogram": "telemetry",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

#: every solver.solve call lands in exactly one of these
SOLVE_OUTCOMES = ("proven_optimal", "limit_stopped", "infeasible", "cache_hit", "error")


def _solve_note(solution, model, *args, **kwargs) -> dict:
    from repro.solver import ERROR, INFEASIBLE, OPTIMAL

    proven = solution.info.get("optimal_proven")
    if solution.info.get("cache") == "hit":
        outcome = "cache_hit"
    elif solution.status == OPTIMAL and proven is True:
        outcome = "proven_optimal"
    elif solution.status == OPTIMAL and proven is False:
        outcome = "limit_stopped"
    elif solution.status == INFEASIBLE:
        outcome = "infeasible"
    elif solution.status == ERROR:
        outcome = "error"
    else:
        outcome = f"unclassified:{solution.status}"
    return {"outcome": outcome, "vars": model.num_vars, "int_vars": len(model.integer_indices)}


def _plan_note(plan, *args, **kwargs) -> dict:
    return {"plan": plan is not None}


def _arrivals_note(times, *args, **kwargs) -> dict:
    return {"n": int(len(times))}


def install(tracer: Tracer, full: bool = True) -> None:
    """Wrap the program's layer entry points with ``tracer``.

    ``full=False`` installs only the two probes the correctness checks need
    (solver outcomes and sampled arrivals): a few dozen spans per run, which
    is what untraced runs carry.  Undo with ``tracer.restore()``.
    """
    from repro.solver import solve
    from repro.workloads import arrivals

    tracer.patch_function(solve, lambda fn: tracer.wrap(fn, "solver.solve", _solve_note))
    for cls in vars(arrivals).values():
        if isinstance(cls, type) and issubclass(cls, arrivals.ArrivalProcess) and "sample_trace" in vars(cls):
            tracer.patch_method(
                cls, "sample_trace", lambda fn: tracer.wrap(fn, "workloads.sample_trace", _arrivals_note)
            )
    if not full:
        return

    from repro.control.engine import ControlPlaneEngine
    from repro.core.allocation import AllocationProblem
    from repro.core.load_balancer import LoadBalancer
    from repro.core.resource_manager import ResourceManager
    from repro.scenarios.spec import ScenarioSpec
    from repro.simulator import Cluster, Frontend, MetricsCollector, ServingSimulation, SimWorker
    from repro.solver import Model, ScipyMilpBackend, fingerprint_model
    from repro.telemetry import Histogram, TelemetryRegistry, WindowedHistogram

    def span(name, note=None):
        return lambda fn: tracer.wrap(fn, name, note)

    tracer.patch_function(fingerprint_model, span("solver.fingerprint"))
    for cls, attr, make in (
        (ScenarioSpec, "build", span("scenarios.build")),
        (ControlPlaneEngine, "step", span("control.step")),
        (ResourceManager, "allocate", span("control.allocate")),
        (LoadBalancer, "refresh", span("routing.refresh")),
        (AllocationProblem, "solve_hardware_scaling", span("allocation.hardware_scaling", _plan_note)),
        (AllocationProblem, "solve_accuracy_scaling", span("allocation.accuracy_scaling", _plan_note)),
        (AllocationProblem, "max_supported_demand", span("allocation.max_supported_demand")),
        (AllocationProblem, "best_effort_plan", span("allocation.best_effort_plan")),
        (Model, "to_standard_form", span("solver.standard_form")),
        (ScipyMilpBackend, "solve", span("solver.backend")),
        (ServingSimulation, "run", span("simulator.run")),
        (Cluster, "apply_plan", span("cluster.apply_plan")),
        (MetricsCollector, "summary", span("metrics.summary")),
        (TelemetryRegistry, "snapshot", span("telemetry.snapshot")),
        (Frontend, "submit", lambda fn: tracer.count(fn, "frontend.submit")),
        (SimWorker, "enqueue", lambda fn: tracer.count(fn, "worker.enqueue")),
    ):
        tracer.patch_method(cls, attr, make)
    for cls in (Histogram, WindowedHistogram):
        for attr in ("observe", "observe_many"):
            tracer.patch_method(cls, attr, lambda fn: tracer.timed(fn, "telemetry.histogram"))


def solve_outcomes(tracer: Tracer) -> Dict[str, int]:
    """Count of solver.solve calls per outcome, plus ``calls``."""
    counts = dict.fromkeys(SOLVE_OUTCOMES, 0)
    calls = 0
    for span in tracer.spans:
        if span.name == "solver.solve":
            calls += 1
            outcome = span.attrs["outcome"] if span.attrs else "unclassified:no-result"
            counts[outcome] = counts.get(outcome, 0) + 1
    counts["calls"] = calls
    return counts


def arrivals_sampled(tracer: Tracer) -> int:
    return sum(span.attrs["n"] for span in tracer.spans if span.name == "workloads.sample_trace" and span.attrs)


def _drop_bucket(reason: str) -> str:
    if "failed" in reason:
        return "drops.worker_failed"
    if "assign" in reason:
        return "drops.reassigned"
    if "route" in reason or "not hosted" in reason or "downstream" in reason:
        return "drops.no_route"
    if "budget" in reason or "SLO" in reason or "overrun" in reason:
        return "drops.early_drop"
    return "drops.other"


DROP_BUCKETS = ("drops.early_drop", "drops.no_route", "drops.worker_failed", "drops.reassigned", "drops.other")


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Self time per layer; the hot histogram time counts as telemetry."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(tracer.spans, tracer.self_times()):
        totals[LAYER_OF[span.name]] += own
    for name, (_, seconds) in tracer.hot.items():
        if name in LAYER_OF:
            totals[LAYER_OF[name]] += seconds
    return totals


def _ms_quantiles(durations: List[float]) -> Dict[str, float]:
    if not durations:
        return {"p50": 0.0, "max": 0.0}
    return {"p50": statistics.median(durations) * 1000.0, "max": max(durations) * 1000.0}


def layer_metrics(tracer: Tracer, sim, summary, cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run of ``sim`` (already run).

    ``cpu_s`` is the process CPU time spent while the root span was open;
    ``trace.attribution_error`` compares the layer self times against it.
    """
    spans = tracer.spans
    own = tracer.self_times()
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def self_total(*names: str) -> float:
        return sum(own[i] for name in names for i in by_name.get(name, ()))

    def durations(name: str) -> List[float]:
        return [spans[i].duration for i in by_name.get(name, ())]

    tele = summary.telemetry
    outcomes = solve_outcomes(tracer)
    solve_attrs = [spans[i].attrs for i in by_name.get("solver.solve", ())]
    hw = [spans[i].attrs["plan"] for i in by_name.get("allocation.hardware_scaling", ())]
    layers = layer_self_times(tracer)
    rm = getattr(getattr(sim, "control_plane", None), "resource_manager", None)
    rm_stats = rm.stats if rm is not None else None
    events = sim.engine.events_processed
    drops = dict.fromkeys(DROP_BUCKETS, 0)
    for reason, count in sim.drop_reasons.items():
        drops[_drop_bucket(reason)] += count
    hist_calls, hist_s = tracer.hot.get("telemetry.histogram", [0, 0.0])
    batches = tele.get("worker.batches", 0.0)
    allocate = _ms_quantiles(durations("control.allocate"))
    solve_ms = _ms_quantiles(durations("solver.solve"))
    self_sum = sum(layers.values())

    metrics = {
        "scenarios.build_s": total("scenarios.build"),
        "workloads.arrivals": arrivals_sampled(tracer),
        "workloads.sample_s": total("workloads.sample_trace"),
        "control.steps": calls("control.step"),
        "control.allocations": calls("control.allocate"),
        "control.plan_changes": tele.get("control.plan_changes", 0.0),
        "control.plan_cache_hit_ratio": (
            rm_stats.cache_hits / rm_stats.invocations if rm_stats is not None and rm_stats.invocations else 0.0
        ),
        "control.step_self_s": self_total("control.step"),
        "control.allocate_ms.p50": allocate["p50"],
        "control.allocate_ms.max": allocate["max"],
        "routing.refreshes": calls("routing.refresh"),
        "routing.refresh_s": total("routing.refresh"),
        "allocation.solves": calls("allocation.hardware_scaling") + calls("allocation.accuracy_scaling"),
        "allocation.build_self_s": layers["core.allocation"],
        "allocation.hw_useful_ratio": sum(hw) / len(hw) if hw else 0.0,
        "allocation.best_effort_plans": calls("allocation.best_effort_plan"),
        "solver.calls": outcomes["calls"],
        "solver.cache_hits": outcomes["cache_hit"],
        "solver.proven_optimal": outcomes["proven_optimal"],
        "solver.limit_stopped": outcomes["limit_stopped"],
        "solver.infeasible": outcomes["infeasible"],
        "solver.errors": outcomes["error"],
        "solver.fingerprint_s": self_total("solver.fingerprint"),
        "solver.standard_form_s": total("solver.standard_form"),
        "solver.backend_s": self_total("solver.backend"),
        "solver.solve_ms.p50": solve_ms["p50"],
        "solver.solve_ms.max": solve_ms["max"],
        "solver.max_vars": max((a["vars"] for a in solve_attrs), default=0),
        "solver.max_int_vars": max((a["int_vars"] for a in solve_attrs), default=0),
        "simulator.events": events,
        "simulator.self_s": layers["simulator"],
        "simulator.events_per_s": events / layers["simulator"] if layers["simulator"] > 0 else 0.0,
        "cluster.apply_plan_s": total("cluster.apply_plan"),
        "frontend.submits": tracer.hot.get("frontend.submit", [0])[0],
        "worker.enqueues": tracer.hot.get("worker.enqueue", [0])[0],
        "worker.batches": batches,
        "worker.mean_batch_size": tele.get("worker.processed_queries", 0.0) / batches if batches else 0.0,
        "queries.forwarded": tele.get("queries.forwarded", 0.0),
        "queries.dropped": tele.get("queries.dropped", 0.0),
        **drops,
        "faults.injected": tele.get("faults.injected", 0.0),
        "resilience.failover_requeued": tele.get("resilience.failover_requeued", 0.0),
        "resilience.retries": tele.get("resilience.retries", 0.0),
        "resilience.retries_exhausted": tele.get("resilience.retries_exhausted", 0.0),
        "metrics.summary_s": total("metrics.summary"),
        "telemetry.snapshot_s": total("telemetry.snapshot"),
        "telemetry.histogram_s": hist_s,
        "telemetry.histogram_calls": hist_calls,
        **{f"layer.{layer}.self_s": seconds for layer, seconds in layers.items()},
        "trace.spans": len(spans),
        "trace.cpu_s": cpu_s,
        "trace.attribution_error": abs(self_sum - cpu_s) / cpu_s if cpu_s > 0 else math.inf,
    }
    return {name: float(value) for name, value in metrics.items()}


def unclassified_solves(outcomes: Dict[str, int]) -> Optional[str]:
    """Why the outcome counts do not close, or None when every solve call
    landed in exactly one known outcome."""
    known = sum(outcomes.get(name, 0) for name in SOLVE_OUTCOMES)
    if known != outcomes["calls"]:
        extra = {k: v for k, v in outcomes.items() if k not in SOLVE_OUTCOMES and k != "calls"}
        return f"{outcomes['calls']} solver calls but {known} classified (other outcomes: {extra})"
    return None
