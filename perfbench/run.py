"""Benchmark entry point: one workload, one --seed value, one JSON result line.

    python3 perfbench/run.py --workload fig6_social --seed 0 --seconds 15 --trace 0

The workloads are those of ``BENCHMARK.json`` plus ``fig5_traffic``, which
runs the same way but is left out of it (see ``perfbench/workloads.py``).
Every simulation runs cold in its own child process (``perfbench/child.py``),
one at a time.  ``--trace 0`` simulates the workload's seed panel
(``workloads.sim_seeds``), adds set-up-only children until set-up was measured
``MIN_SETUPS`` times, repeats seeds of the panel, cheapest first, at least
once and until ``--seconds`` have passed (each repeat must reproduce its
seed's summary exactly) and prints the end-to-end metrics.  ``--trace 1`` runs the
panel's first seed twice, untraced and traced, requires identical summaries
and prints the per-layer metrics of the traced child plus the tracing
overhead.  Records and spans are written under ``perfbench/out/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``, where
``attempted`` counts simulations and ``failed`` those that failed a check or
crashed.  If the run deadline passes, the metrics are those measured so far
and every simulation counts as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up is measured at least this many times per untraced run
MIN_SETUPS = 5
#: units of the metrics printed beside the declared ones
EXTRA_UNITS = {"slo_violation_ratio": "ratio", "dropped_ratio": "ratio"}
#: a run must finish within this many seconds
RUN_DEADLINE_S = 170.0


class Runner:
    def __init__(self, workload: str, seed: int, trace: int, duration_s: Optional[int] = None):
        self.workload = workload
        self.duration_s = duration_s
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.tag = f"{workload}-seed{seed}-trace{trace}"
        self.children = 0
        #: set once the run deadline has passed; no further child is started
        self.out_of_time = False
        #: why the last child gave no record
        self.error = ""

    def child(self, sim_seed: int, mode: str = "sim", trace: int = 0) -> Optional[dict]:
        """Run one child process to completion and return its record, or
        ``None`` (reason in :attr:`error`) if it crashed or hit the deadline."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.out_of_time = True
            self.error = "the run deadline passed before this child started"
            return None
        self.children += 1
        out = OUT / f"{self.tag}-{self.children}.json"
        out.unlink(missing_ok=True)
        t0 = time.time()
        command = [
            sys.executable,
            str(HERE / "child.py"),
            f"--workload={self.workload}",
            f"--seed={sim_seed}",
            f"--t0={t0!r}",
            f"--mode={mode}",
            f"--trace={trace}",
            f"--out={out}",
        ]
        if self.duration_s is not None:
            command.append(f"--duration-s={self.duration_s}")
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.out_of_time = True
            self.error = f"child {command[2:4]} was stopped at the run deadline"
            return None
        if done.returncode != 0 or not out.exists():
            sys.stderr.write(done.stderr[-4000:])
            self.error = f"child {command[2:4]} exited with code {done.returncode}"
            return None
        return json.loads(out.read_text())


def _pooled(records: list) -> dict:
    """Simulated end-to-end metrics pooled over one record per seed."""

    def share(field: str) -> float:
        return sum(r["summary"][field] for r in records) / sum(r["summary"]["total_requests"] for r in records)

    def mean(field: str) -> float:
        return statistics.fmean(r["summary"][field] for r in records)

    return {
        "slo_attainment_ratio": share("completed_requests"),
        "served_ratio": 1.0 - share("dropped_requests"),
        "slo_violation_ratio": share("violated_requests"),
        "dropped_ratio": share("dropped_requests"),
        "mean_accuracy": mean("mean_accuracy"),
        "p99_latency_ms": mean("p99_latency_ms"),
        "mean_latency_ms": mean("mean_latency_ms"),
        "mean_workers": mean("mean_workers"),
    }


def run_plain(runner: Runner, seeds: list, seconds: float) -> tuple:
    """Untraced run: end-to-end metrics, failure messages and run record."""
    failures = []
    first = {}
    cpu = {s: [] for s in seeds}
    setups, rss = [], []
    attempted = failed = 0
    started = time.monotonic()

    def simulate(sim_seed: int) -> None:
        nonlocal attempted, failed
        attempted += 1
        record = runner.child(sim_seed)
        if record is None:
            failures.append(f"seed {sim_seed}: {runner.error}")
            failed += 1
            return
        before = len(failures)
        failures.extend(f"seed {sim_seed}: {f}" for f in record["failures"])
        setups.append(record["setup_s"])
        rss.append(record["peak_rss_mb"])
        cpu[sim_seed].append(record["run_cpu_s"])
        if sim_seed not in first:
            first[sim_seed] = record
        elif record["summary_hash"] != first[sim_seed]["summary_hash"]:
            failures.append(f"seed {sim_seed}: a repeat gave a different simulated summary")
        failed += len(failures) > before

    for sim_seed in seeds:
        if not runner.out_of_time:
            simulate(sim_seed)
    while len(setups) < MIN_SETUPS and not runner.out_of_time:
        record = runner.child(seeds[0], mode="setup")
        if record is None:
            failures.append(f"set-up child: {runner.error}")
            break
        setups.append(record["setup_s"])
    # Repeat seeds, cheapest first, until --seconds have passed; always at
    # least once, so that every run checks that a seed reproduces its summary.
    order = sorted(first, key=lambda s: first[s]["run_cpu_s"])
    repeats = 0
    while order and not runner.out_of_time and (repeats == 0 or time.monotonic() - started < seconds):
        simulate(order[repeats % len(order)])
        repeats += 1

    panel = [first[s] for s in seeds if s in first]
    metrics = {}
    if panel:
        requests = sum(r["summary"]["total_requests"] for r in panel)
        metrics = {
            "requests_per_cpu_s": requests / sum(statistics.median(cpu[r["seed"]]) for r in panel),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            **_pooled(panel),
        }
    if len(panel) < len(seeds):
        failures.append(f"only {len(panel)} of {len(seeds)} seeds were measured")
    run_record = {
        "sims": attempted,
        "setups": setups,
        "summary_hashes": {str(s): first[s]["summary_hash"] for s in first},
        "solver_outcomes": {str(s): first[s]["solver_outcomes"] for s in first},
        "solver_limit_stopped": sum(first[s]["solver_outcomes"]["limit_stopped"] for s in first),
        "solver_options": panel[0]["solver_options"] if panel else None,
    }
    return metrics, failures, run_record, attempted, failed


def run_traced(runner: Runner, seeds: list) -> tuple:
    """Traced run: per-layer metrics of the panel's first seed."""
    plain = runner.child(seeds[0])
    if plain is None:
        failures = [f"untraced: {runner.error}"]
    else:
        failures = [f"untraced: {f}" for f in plain["failures"]]
    traced = runner.child(seeds[0], trace=1)
    if traced is None:
        failures.append(f"traced: {runner.error}")
    else:
        failures.extend(f"traced: {f}" for f in traced["failures"])
    failed = (plain is None or bool(plain["failures"])) + (traced is None or bool(traced["failures"]))
    metrics = {}
    if traced is not None:
        metrics = dict(traced["layer_metrics"])
    if plain is not None and traced is not None:
        if plain["summary_hash"] != traced["summary_hash"]:
            failures.append("the traced run gave a different simulated summary than the untraced one")
            failed = max(failed, 1)
        metrics["trace.overhead_ratio"] = traced["process_cpu_s"] / plain["process_cpu_s"] - 1.0
    run_record = {
        "sims": 2,
        "summary_hashes": {str(seeds[0]): plain["summary_hash"]} if plain else {},
        "solver_outcomes": {str(seeds[0]): traced["solver_outcomes"]} if traced else {},
        "solver_limit_stopped": traced["solver_outcomes"]["limit_stopped"] if traced else None,
        "solver_options": traced["solver_options"] if traced else None,
        "spans_file": traced["spans_file"] if traced else None,
    }
    return metrics, failures, run_record, 2, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Loki paper-workload benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--duration-s", type=int, default=None, help="shorten every trace (tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import SIMS_PER_RUN, sim_seeds

    if args.workload not in SIMS_PER_RUN:
        print(f"error: unknown workload {args.workload!r}; available: {sorted(SIMS_PER_RUN)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.trace, args.duration_s)
    seeds = sim_seeds(args.workload, args.seed)
    if args.trace:
        metrics, failures, run_record, attempted, failed = run_traced(runner, seeds)
    else:
        metrics, failures, run_record, attempted, failed = run_plain(runner, seeds, args.seconds)

    # A run-level failure (the deadline passed, a metric is missing or not
    # finite) spoils every simulation of the run.
    run_failures = [f"metric {name} is not finite" for name, v in metrics.items() if not math.isfinite(v)]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        run_failures.append(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    if runner.out_of_time:
        run_failures.append(f"the run deadline of {RUN_DEADLINE_S:g} s passed; the metrics are partial")
    if run_failures:
        failures.extend(run_failures)
        failed = attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items() if name in metrics},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "sim_seeds": seeds,
        "trace": args.trace,
        **run_record,
        "failures": failures,
        "metrics": metrics,
    }
    (OUT / f"{runner.tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  simulation seeds {seeds}  trace {args.trace}")
    print(f"solver budget {json.dumps(run_record['solver_options'])}  limit-stopped solves {run_record['solver_limit_stopped']}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6g} {declared.get(name) or EXTRA_UNITS.get(name, '')}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
