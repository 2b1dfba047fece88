"""Every builtin scenario through the simulator's one request lifecycle.

Each catalogue entry (shortened for runtime) must close its books: every
submitted request ends exactly once as completed, late or dropped, and the
per-interval series and the telemetry counters agree with the run totals.
A selection of scenarios covering each pipeline, routing policy, control
plane and the chaos/resilience paths must also reproduce bit for bit from
the same seed.
"""

import dataclasses
import functools

import pytest

from repro.scenarios import get_scenario, scenario_names

#: diurnal trace factories refuse traces shorter than this
MIN_DIURNAL_DURATION_S = 10
#: constant-trace scenarios are shortened to this many trace seconds
SHORT_DURATION_S = 6
#: overload peaks are capped at the fleet's capacity: beyond it every
#: allocation MILP turns hard (7-11 s a run on a 2-core host) while the
#: requests still overrun their deadlines and get dropped, which is what the
#: accounting checks need
MAX_PEAK_OVER_HARDWARE = 1.0
#: the 4x arrival spike keeps traffic_flash_crowd's MILPs hard (~10 s) at any
#: peak; traffic_diurnal and traffic_demand_surge run the same pipeline,
#: system and drop policy
SKIPPED_FOR_RUNTIME = ("traffic_flash_crowd",)
LIFECYCLE_SCENARIOS = [n for n in scenario_names() if n not in SKIPPED_FOR_RUNTIME]


def _short_spec(name):
    spec = get_scenario(name)
    params = dict(spec.trace_params)
    if spec.trace == "constant":
        params["duration_s"] = min(params.get("duration_s", SHORT_DURATION_S), SHORT_DURATION_S)
    else:
        params["duration_s"] = min(params.get("duration_s", MIN_DIURNAL_DURATION_S), MIN_DIURNAL_DURATION_S)
    overrides = {"trace_params": params}
    if spec.peak_over_hardware is not None and spec.peak_over_hardware > MAX_PEAK_OVER_HARDWARE:
        overrides["peak_over_hardware"] = MAX_PEAK_OVER_HARDWARE
    return spec.with_overrides(**overrides)


@functools.lru_cache(maxsize=None)
def _run(name, seed=0):
    """(simulation, summary) of one shortened run, shared by the checks below."""
    simulation = _short_spec(name).build(seed=seed)
    return simulation, simulation.run()


@pytest.mark.parametrize("name", LIFECYCLE_SCENARIOS)
def test_every_request_is_accounted_exactly_once(name):
    simulation, summary = _run(name)
    submitted = simulation.frontend.total_submitted
    assert submitted > 0
    assert summary.total_requests == submitted
    assert summary.total_requests == len(simulation._arrival_times)
    finished = summary.completed_requests + summary.dropped_requests + summary.late_requests
    assert finished == submitted
    assert summary.violated_requests == summary.dropped_requests + summary.late_requests
    # frontend rejections are drops of the request's root query
    assert simulation.frontend.rejected_no_plan <= summary.dropped_requests


@pytest.mark.parametrize("name", LIFECYCLE_SCENARIOS)
def test_intervals_and_telemetry_agree_with_totals(name):
    simulation, summary = _run(name)
    intervals = summary.intervals
    assert sum(i.demand for i in intervals) == summary.total_requests
    assert sum(i.completed for i in intervals) == summary.completed_requests
    assert sum(i.dropped for i in intervals) == summary.dropped_requests
    assert sum(i.late for i in intervals) == summary.late_requests
    assert sum(i.violations for i in intervals) == summary.violated_requests
    telemetry = summary.telemetry
    assert telemetry["frontend.requests"] == summary.total_requests
    assert telemetry["requests.completed"] == summary.completed_requests
    assert telemetry["requests.dropped"] == summary.dropped_requests
    assert telemetry["requests.late"] == summary.late_requests
    assert telemetry["queries.dropped"] == simulation.dropped_queries
    assert telemetry["queries.dropped"] == sum(simulation.drop_reasons.values())
    assert telemetry["queries.forwarded"] == simulation.forwarded_queries
    assert telemetry["worker.processed_queries"] == sum(
        w.processed_queries for w in simulation.cluster.workers
    )


#: one scenario per pipeline / routing policy / control plane / chaos path
DETERMINISM_SCENARIOS = [
    "validation_uniform",
    "jsq_heterogeneous",
    "slo_feedback_flash_crowd",
    "chaos_crash_restart",
    "chaos_stragglers",
    "social_twitter_bursty",
]


@pytest.mark.parametrize("name", DETERMINISM_SCENARIOS)
def test_same_seed_reproduces_bit_for_bit(name):
    _, first = _run(name)
    second = _short_spec(name).run(seed=0)
    assert dataclasses.asdict(second) == dataclasses.asdict(first)
