#!/usr/bin/env python
"""Social-media scenario: riding out a viral traffic burst with accuracy scaling.

The social-media pipeline (ResNet classification -> CLIP captioning) is driven
by a bursty Twitter-like trace.  The example shows how Loki's plan evolves
over the run: hardware scaling during quiet periods (few servers, maximum
accuracy) and accuracy scaling during the bursts (all servers, slightly lower
accuracy), which is the paper's Figure 6 behaviour in miniature.

Run with::

    python examples/social_media.py [duration_seconds]
"""

import sys


from repro.core import Controller, ControllerConfig
from repro.core.allocation import AllocationProblem
from repro.simulator import ServingSimulation, SimulationConfig
from repro.workloads import scale_trace_to_capacity, twitter_like_trace
from repro.zoo import social_media_pipeline


def main(duration_s: int = 90) -> None:
    pipeline = social_media_pipeline(latency_slo_ms=250.0)
    problem = AllocationProblem(pipeline, num_workers=20, latency_slo_ms=250.0)
    hardware_capacity = problem.max_supported_demand(restrict_to_best=True).max_demand_qps
    trace = scale_trace_to_capacity(
        twitter_like_trace(duration_s=duration_s, peak_qps=1.0, burstiness=0.5, seed=11),
        hardware_capacity,
        peak_fraction=2.7,
    )

    controller = Controller(
        pipeline,
        ControllerConfig(num_workers=20, latency_slo_ms=250.0, headroom=1.2, reallocation_threshold=0.15),
    )
    simulation = ServingSimulation(
        pipeline,
        controller,
        trace,
        SimulationConfig(num_workers=20, latency_slo_ms=250.0, seed=3),
    )
    summary = simulation.run()

    print(f"requests: {summary.total_requests}, SLO violations: {summary.slo_violation_ratio:.4f}")
    print(f"mean accuracy: {summary.mean_accuracy:.4f} (max possible 1.0)")
    print(f"mean workers: {summary.mean_workers:.1f} / 20, peak workers: {summary.peak_workers}")
    print(f"resource manager invocations: {controller.resource_manager.stats.invocations}, "
          f"MILP solves: {controller.resource_manager.stats.milp_solves} "
          f"({controller.resource_manager.stats.replans_skipped} re-plans skipped), "
          f"solver time per MILP: {1000 * controller.resource_manager.stats.mean_solve_time_s:.0f} ms")

    print("\n time   demand   workers   interval accuracy   violations")
    intervals = summary.intervals
    step = max(1, len(intervals) // 15)
    for interval in intervals[::step]:
        print(
            f"  {interval.start_s:5.0f}s  {interval.demand:6d}   {interval.active_workers:7d}"
            f"   {interval.mean_accuracy:17.3f}   {interval.violation_ratio:10.3f}"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 90)
