"""Figure 1: hardware-scaling / accuracy-scaling phases of a capacity ramp.

The paper hosts the two-task traffic-analysis pipeline on 20 workers and ramps
the demand.  Loki first meets demand by *hardware scaling* (more workers, top
accuracy) until the cluster is exhausted (~560 QPS in the paper), then by
*accuracy scaling* of the second task (car classification), and finally of the
first task (object detection), reaching ~1765 QPS -- roughly 3.1x the hardware
scaling capacity, and 2.7x at a ~13% accuracy drop (end of phase 2).

This experiment sweeps the provisioning demand through the same range using
the Resource Manager's two-step MILP and records, for every demand level, the
scaling mode, the number of active workers, the expected system accuracy and
the per-task accuracy of the variants actually serving traffic -- which is
exactly the information plotted in Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.allocation import AllocationProblem, HARDWARE_SCALING
from repro.core.pipeline import Pipeline
from repro.experiments.common import format_table
from repro.scenarios import SweepRunner
from repro.zoo import traffic_analysis_pipeline

__all__ = ["PhasePoint", "Fig1Result", "run", "main"]


@dataclass
class PhasePoint:
    """One demand level of the capacity sweep."""

    demand_qps: float
    mode: str
    feasible: bool
    workers: int
    system_accuracy: float
    task_accuracy: Dict[str, float]
    phase: int


@dataclass
class Fig1Result:
    """The full sweep plus the headline ratios of Figure 1."""

    points: List[PhasePoint]
    hardware_capacity_qps: float
    phase2_capacity_qps: float
    max_capacity_qps: float
    capacity_gain_phase2: float
    capacity_gain_max: float
    accuracy_drop_phase2: float
    accuracy_drop_max: float

    def phase_boundaries(self) -> Dict[int, float]:
        boundaries: Dict[int, float] = {}
        for point in self.points:
            if point.feasible:
                boundaries[point.phase] = max(boundaries.get(point.phase, 0.0), point.demand_qps)
        return boundaries


def _task_accuracies(plan, pipeline: Pipeline) -> Dict[str, float]:
    """Traffic-weighted accuracy of the variants serving each task."""
    accuracies: Dict[str, float] = {}
    for task in pipeline.tasks:
        rows = plan.allocations_for(task)
        if not rows:
            accuracies[task] = 0.0
            continue
        weight = sum(r.replicas * r.throughput_qps for r in rows)
        if weight <= 0:
            accuracies[task] = max(r.accuracy for r in rows)
        else:
            accuracies[task] = sum(r.accuracy * r.replicas * r.throughput_qps for r in rows) / weight
    return accuracies


def _classify_phase(mode: str, task_accuracy: Dict[str, float], pipeline: Pipeline, tolerance: float = 0.995) -> int:
    """Phase 1: hardware scaling; phase 2: only non-root tasks degraded; phase 3: root degraded."""
    if mode == HARDWARE_SCALING:
        return 1
    root = pipeline.root
    if task_accuracy.get(root, 1.0) >= tolerance:
        return 2
    return 3


def _solve_point(args: Tuple[Pipeline, int, float, float, float]) -> PhasePoint:
    """One demand level of the sweep (top-level so SweepRunner.map can pickle it)."""
    pipeline, num_workers, slo_ms, utilization_target, demand = args
    problem = AllocationProblem(
        pipeline,
        num_workers=num_workers,
        latency_slo_ms=slo_ms,
        utilization_target=utilization_target,
    )
    plan = problem.solve(float(demand))
    task_accuracy = _task_accuracies(plan, pipeline)
    phase = _classify_phase(plan.mode, task_accuracy, pipeline)
    if not plan.feasible:
        phase = 3
    return PhasePoint(
        demand_qps=float(demand),
        mode=plan.mode,
        feasible=plan.feasible,
        workers=plan.total_workers,
        system_accuracy=plan.expected_accuracy,
        task_accuracy=task_accuracy,
        phase=phase,
    )


def run(
    pipeline: Optional[Pipeline] = None,
    num_workers: int = 20,
    slo_ms: float = 250.0,
    num_points: int = 15,
    utilization_target: float = 0.75,
    sweep_runner: Optional[SweepRunner] = None,
) -> Fig1Result:
    """Sweep demand from near zero to the cluster's maximum supportable QPS.

    Every demand point is an independent MILP solve, so the sweep fans them
    across processes through :meth:`SweepRunner.map`; each point builds its
    own :class:`AllocationProblem`, which keeps the serial and parallel paths
    bit-identical (no shared cache state across points).
    """
    pipeline = pipeline or traffic_analysis_pipeline(latency_slo_ms=slo_ms)
    problem = AllocationProblem(
        pipeline,
        num_workers=num_workers,
        latency_slo_ms=slo_ms,
        utilization_target=utilization_target,
    )

    hardware_capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    max_capacity = problem.max_supported_demand().max_demand_qps

    demands = np.unique(
        np.concatenate(
            [
                np.linspace(max(hardware_capacity * 0.15, 1.0), hardware_capacity, max(3, num_points // 3)),
                np.linspace(hardware_capacity * 1.02, max_capacity * 0.999, max(4, num_points - num_points // 3)),
            ]
        )
    )

    runner = sweep_runner or SweepRunner()
    points = runner.map(
        _solve_point,
        [(pipeline, num_workers, slo_ms, utilization_target, float(demand)) for demand in demands],
    )

    max_accuracy = pipeline.max_end_to_end_accuracy()
    phase2_capacity = hardware_capacity
    phase2_accuracy = max_accuracy
    for point in points:
        if point.phase <= 2 and point.feasible:
            if point.demand_qps >= phase2_capacity:
                phase2_capacity = point.demand_qps
                phase2_accuracy = point.system_accuracy

    min_feasible_accuracy = min((p.system_accuracy for p in points if p.feasible), default=max_accuracy)
    return Fig1Result(
        points=points,
        hardware_capacity_qps=hardware_capacity,
        phase2_capacity_qps=phase2_capacity,
        max_capacity_qps=max_capacity,
        capacity_gain_phase2=phase2_capacity / hardware_capacity if hardware_capacity else 0.0,
        capacity_gain_max=max_capacity / hardware_capacity if hardware_capacity else 0.0,
        accuracy_drop_phase2=(max_accuracy - phase2_accuracy) / max_accuracy if max_accuracy else 0.0,
        accuracy_drop_max=(max_accuracy - min_feasible_accuracy) / max_accuracy if max_accuracy else 0.0,
    )


def main(**kwargs) -> Fig1Result:
    result = run(**kwargs)
    rows = []
    for p in result.points:
        rows.append(
            [
                f"{p.demand_qps:.0f}",
                p.mode,
                p.phase,
                p.workers,
                f"{p.system_accuracy:.3f}",
                "  ".join(f"{task}:{acc:.2f}" for task, acc in sorted(p.task_accuracy.items())),
            ]
        )
    print("Figure 1 -- capacity ramp phases (traffic-analysis pipeline)")
    print(format_table(["demand_qps", "mode", "phase", "workers", "sys_acc", "per-task accuracy"], rows))
    print(
        f"\nhardware-scaling capacity: {result.hardware_capacity_qps:.0f} QPS"
        f"\nphase-2 capacity:          {result.phase2_capacity_qps:.0f} QPS"
        f" ({result.capacity_gain_phase2:.2f}x, accuracy drop {100 * result.accuracy_drop_phase2:.1f}%)"
        f"\nmaximum capacity:          {result.max_capacity_qps:.0f} QPS"
        f" ({result.capacity_gain_max:.2f}x, accuracy drop {100 * result.accuracy_drop_max:.1f}%)"
        f"\npaper:                     2.7x at ~13% drop (end of phase 2), ~3.1x maximum"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
