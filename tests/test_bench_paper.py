"""The committed perf trajectory, ``BENCH_paper.jsonl``, stays readable.

Each line is one perfbench run of a workload declared in ``BENCHMARK.json``:
``{"pr", "parent", "workload", "seed", "seconds", "result"}``, where
``result`` is perfbench's last JSON line.  CONTRIBUTING.md gives the command
that appends a PR's lines.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LINES = [line for line in (ROOT / "BENCH_paper.jsonl").read_text().splitlines() if line.strip()]
RECORDS = [json.loads(line) for line in LINES]

per_record = pytest.mark.parametrize(
    "record", RECORDS, ids=[f"line{n}" for n in range(1, len(RECORDS) + 1)]
)


@per_record
def test_record_carries_the_documented_fields(record):
    assert set(record) == {"pr", "parent", "workload", "seed", "seconds", "result"}
    assert isinstance(record["pr"], int) and record["pr"] > 0
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent"])
    assert isinstance(record["seed"], int)
    assert record["seconds"] > 0


@per_record
def test_record_workload_is_declared(record):
    assert record["workload"] in {w["name"] for w in BENCHMARK["workloads"]}


@per_record
def test_record_is_a_correct_run(record):
    result = record["result"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]


@per_record
def test_record_has_every_end_to_end_metric(record):
    metrics = record["result"]["metrics"]
    missing = [m["name"] for m in BENCHMARK["end_to_end"] if m["name"] not in metrics]
    assert missing == []


@per_record
def test_end_to_end_metrics_are_finite_in_their_declared_units(record):
    metrics = record["result"]["metrics"]
    for declared in BENCHMARK["end_to_end"]:
        measured = metrics[declared["name"]]
        assert measured["unit"] == declared["unit"], declared["name"]
        assert math.isfinite(measured["value"]), declared["name"]


def test_trajectory_covers_every_declared_workload():
    recorded = {record["workload"] for record in RECORDS}
    assert recorded == {w["name"] for w in BENCHMARK["workloads"]}


def test_trajectory_is_appended_in_pr_order():
    prs = [record["pr"] for record in RECORDS]
    assert prs == sorted(prs)
