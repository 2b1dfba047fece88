"""Tests of the benchmark itself: short runs through the real code path, the
metric names against BENCHMARK.json, span nesting and same-seed reruns.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import SIMS_PER_RUN  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: shortest traces that still exercise each workload (diurnal traces need
#: >= 10 s; fleet_chaos's crashes start at 10 s)
SHORT_S = {"fleet_steady": 6, "fleet_chaos": 14, "fig6_social": 10, "fig5_traffic": 10}


def run_bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT, extra=()) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", f"--workload={workload}", f"--seed={seed}",
               "--seconds=0", f"--trace={trace}", *extra]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(SIMS_PER_RUN) and set(SIMS_PER_RUN) - set(listed) == {"fig5_traffic"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + listed
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert unit.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert unit.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_predictions_cover_every_per_layer_metric():
    table = json.loads((BENCH / "predictions.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert list(table["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, row in table["metrics"].items():
        assert row["moves"] is None or row["moves"] in end_to_end, name
        assert set(row["on"]) | set(row["flat_on"]) <= set(SIMS_PER_RUN), name
        assert not set(row["on"]) & set(row["flat_on"]), name
    assert table["solver_budget"]["options"] == {"mip_rel_gap": 2e-3, "time_limit": None, "node_limit": 100}


@pytest.mark.parametrize("workload", list(SIMS_PER_RUN))
def test_short_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0, extra=[f"--duration-s={SHORT_S[workload]}"]))
    assert result["correct"] and result["failed"] == 0
    # the panel plus the one repeat every untraced run makes
    assert result["attempted"] == SIMS_PER_RUN[workload] + 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_short_traced_run_reports_every_per_layer_metric_and_nested_spans():
    result = result_of(run_bench("fleet_chaos", 1, extra=[f"--duration-s={SHORT_S['fleet_chaos']}"]))
    assert result["correct"] and result["attempted"] == 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["faults.injected"] > 0 and metrics["solver.calls"] > 0
    record = json.loads((BENCH / "out" / "fleet_chaos-seed0-trace1.json").read_text())
    lines = (BENCH / "out" / record["spans_file"]).read_text().splitlines()
    spans = [json.loads(line) for line in lines[:-1]]
    by_id = {s["id"]: s for s in spans}
    assert len({s["run_id"] for s in spans}) == 1
    assert spans[0]["name"] == "harness.process" and spans[0]["parent"] == -1
    for span in spans[1:]:
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"], span
        assert span["self_s"] >= -1e-6, span
    hot_s = sum(seconds for _, seconds in json.loads(lines[-1])["hot"].values())
    assert sum(s["self_s"] for s in spans) + hot_s == pytest.approx(spans[0]["end"] - spans[0]["start"], rel=1e-6)


def test_same_seed_rerun_gives_identical_summary(tmp_path):
    records = []
    for attempt in range(2):
        out = tmp_path / f"rerun{attempt}.json"
        command = [sys.executable, str(BENCH / "child.py"), "--workload=fleet_chaos", "--seed=3", "--t0=0",
                   f"--out={out}", f"--duration-s={SHORT_S['fleet_chaos']}"]
        subprocess.run(command, check=True, capture_output=True, timeout=120, cwd=ROOT)
        records.append(json.loads(out.read_text()))
    assert records[0]["failures"] == records[1]["failures"] == []
    assert records[0]["summary_hash"] == records[1]["summary_hash"]


def test_tracer_self_times_and_restore():
    class Layer:
        def outer(self, tracer):
            self.inner()
            self.hot()
            return "done"

        def inner(self):
            return sum(range(1000))

        def hot(self):
            return 1

    tracer = Tracer("unit")
    original = Layer.__dict__["outer"]
    tracer.patch_method(Layer, "outer", lambda fn: tracer.wrap(fn, "outer", lambda r, *a, **k: {"result": r}))
    tracer.patch_method(Layer, "inner", lambda fn: tracer.wrap(fn, "inner"))
    tracer.patch_method(Layer, "hot", lambda fn: tracer.timed(fn, "hot"))
    root = tracer.open("root")
    assert Layer().outer(tracer) == "done"
    tracer.close(root)
    assert [s.name for s in tracer.spans] == ["root", "outer", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1]
    assert tracer.spans[1].attrs == {"result": "done"}
    assert tracer.hot["hot"][0] == 1 and tracer.spans[1].hot_s > 0
    assert tracer.nesting_errors() == []
    own = tracer.self_times()
    assert sum(own) + tracer.hot["hot"][1] == pytest.approx(root.duration)
    tracer.restore()
    assert Layer.__dict__["outer"] is original


def test_solver_outcomes_must_close():
    assert layers.unclassified_solves({"calls": 2, "proven_optimal": 1, "infeasible": 1}) is None
    assert "unclassified" in layers.unclassified_solves({"calls": 2, "proven_optimal": 1, "unclassified:3": 1})


class FakeRunner:
    """Stands in for run.Runner: seeds in ``crash`` give no record, and the
    deadline passes after ``budget`` children."""

    def __init__(self, crash=(), budget=100):
        self.crash, self.budget = set(crash), budget
        self.calls = []
        self.out_of_time = False
        self.error = ""

    def child(self, sim_seed, mode="sim", trace=0):
        if len(self.calls) >= self.budget:
            self.out_of_time = True
            self.error = "deadline"
            return None
        self.calls.append((sim_seed, mode))
        if sim_seed in self.crash:
            self.error = "exited with code 1"
            return None
        summary = {"total_requests": 100, "completed_requests": 90, "violated_requests": 10,
                   "dropped_requests": 4, "late_requests": 6, "mean_accuracy": 0.9,
                   "p99_latency_ms": 200.0, "mean_latency_ms": 80.0, "mean_workers": 10.0}
        return {"seed": sim_seed, "failures": [], "setup_s": 1.0, "peak_rss_mb": 100.0,
                "run_cpu_s": 1.0 + sim_seed, "summary": summary, "summary_hash": f"h{sim_seed}",
                "solver_outcomes": {"limit_stopped": 0}, "solver_options": {}}


def test_crashed_simulation_counts_as_failed_and_the_run_still_reports():
    metrics, failures, _, attempted, failed = run.run_plain(FakeRunner(crash={1}), [0, 1], seconds=0)
    assert (attempted, failed) == (3, 1)
    assert any(f.startswith("seed 1: exited") for f in failures)
    assert metrics["requests_per_cpu_s"] == 100.0 and metrics["served_ratio"] == 0.96


def test_every_untraced_run_repeats_its_cheapest_seed():
    fake = FakeRunner()
    _, failures, _, attempted, failed = run.run_plain(fake, [2, 0, 1], seconds=0)
    assert failures == [] and (attempted, failed) == (4, 0)
    sims = [seed for seed, mode in fake.calls if mode == "sim"]
    assert sims == [2, 0, 1, 0]


def test_deadline_stops_the_run_with_partial_metrics():
    fake = FakeRunner(budget=1)
    metrics, failures, _, attempted, failed = run.run_plain(fake, [0, 1], seconds=0)
    assert fake.out_of_time and (attempted, failed) == (2, 1)
    assert "setup_s" in metrics and any("only 1 of 2 seeds" in f for f in failures)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("fleet_chaos", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
