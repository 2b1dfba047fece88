"""One benchmark simulation in a fresh process.

    python3 perfbench/child.py --workload W --seed S --t0 T --mode sim|setup --trace 0|1 --out FILE
        [--duration-s D]

Builds workload ``W`` for simulation seed ``S`` (``setup`` mode stops there),
runs it and writes one JSON record to ``FILE``: set-up time since ``T`` (the
parent's ``time.time()`` just before it started this process), the CPU time
of ``ServingSimulation.run``, peak memory, the simulated summary and its hash,
and the correctness checks.  With ``--trace 1`` every layer entry point is
wrapped in spans, the spans are written next to ``FILE`` and the record
carries the per-layer metrics.
"""

from __future__ import annotations

import time

_CPU0 = time.process_time()
_WALL0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracer import Tracer  # noqa: E402

#: the layer self times must add up to the traced process's CPU time within
#: this share.  The spans use the wall clock, so waiting (I/O, page faults),
#: time the host gives the CPU to someone else, or extra threads show up as a
#: gap; on a shared 2-core host the gap measured 0.5% to 3.7%.
ATTRIBUTION_TOLERANCE = 0.10

#: summary fields reported as the simulated end-to-end metrics
SUMMARY_FIELDS = (
    "total_requests",
    "completed_requests",
    "violated_requests",
    "dropped_requests",
    "late_requests",
    "slo_violation_ratio",
    "mean_accuracy",
    "mean_workers",
    "mean_latency_ms",
    "p99_latency_ms",
)


def summary_hash(summary) -> str:
    """Hash over every field of a SimulationSummary (intervals, telemetry and
    fault timeline included)."""
    text = json.dumps(dataclasses.asdict(summary), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def check_summary(summary, arrivals: int) -> list:
    """Accounting and finiteness failures of one simulated summary."""
    failures = []
    closed = summary.completed_requests + summary.dropped_requests + summary.late_requests
    if not closed == summary.total_requests == arrivals:
        failures.append(
            f"accounting does not close: completed+dropped+late={closed}, "
            f"total={summary.total_requests}, arrivals sampled={arrivals}"
        )
    if summary.violated_requests != summary.dropped_requests + summary.late_requests:
        failures.append("violated != dropped + late")
    for name in SUMMARY_FIELDS:
        if not math.isfinite(getattr(summary, name)):
            failures.append(f"summary.{name} is not finite")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("sim", "setup"), default="sim")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--duration-s", type=int, default=None, help="shorten the trace (tests)")
    args = parser.parse_args(argv)

    from perfbench import layers
    from perfbench.workloads import build_spec

    run_id = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    tracer = Tracer(run_id)
    root = tracer.open("harness.process")
    root.start = _WALL0
    layers.install(tracer, full=bool(args.trace))

    spec = build_spec(args.workload, args.duration_s)
    sim = spec.build(args.seed)
    record = {"workload": args.workload, "seed": args.seed, "setup_s": time.time() - args.t0}
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(record))
        return 0

    cpu = time.process_time()
    summary = sim.run()
    record["run_cpu_s"] = time.process_time() - cpu
    tracer.close(root)
    record["process_cpu_s"] = time.process_time() - _CPU0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = layers.solve_outcomes(tracer)
    failures = check_summary(summary, layers.arrivals_sampled(tracer))
    unclassified = layers.unclassified_solves(outcomes)
    if unclassified:
        failures.append(unclassified)
    record["summary"] = {name: getattr(summary, name) for name in SUMMARY_FIELDS}
    record["summary_hash"] = summary_hash(summary)
    record["solver_outcomes"] = outcomes
    record["solver_options"] = spec.control_overrides.get("solver_options")
    if args.trace:
        failures.extend(tracer.nesting_errors())
        metrics = layers.layer_metrics(tracer, sim, summary, cpu_s=record["process_cpu_s"])
        if metrics["trace.attribution_error"] > ATTRIBUTION_TOLERANCE:
            failures.append(
                f"layer self times miss the traced CPU by {metrics['trace.attribution_error']:.1%} "
                f"(tolerance {ATTRIBUTION_TOLERANCE:.0%})"
            )
        record["layer_metrics"] = metrics
        spans_path = Path(args.out).with_suffix(".spans.jsonl")
        tracer.dump(str(spans_path))
        record["spans_file"] = spans_path.name
    tracer.restore()
    record["failures"] = failures
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
