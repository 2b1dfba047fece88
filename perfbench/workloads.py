"""The benchmark's workloads: paper-shaped scenario specs plus run sizing.

Every workload pins the same deterministic solver budget.  The control plane's
default ``time_limit=3.0`` is wall clock: on the near-capacity fig5 MILPs some
solves stop at that limit, so the chosen plans -- and the SLO-violation ratio
-- depend on machine load.  A node budget with no time limit makes HiGHS stop
at the same point on any machine, so a seed gives the same plans every run.
Solves stopped by the node budget are still counted (``solver.limit_stopped``
in the traced run).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.scenarios import get_scenario
from repro.scenarios.faults import FaultSpec
from repro.scenarios.spec import ScenarioSpec

__all__ = ["SOLVER_BUDGET", "SIMS_PER_RUN", "sim_seeds", "build_spec"]

#: the reproducible solver setting documented on ``ControllerConfig``
SOLVER_BUDGET: Dict[str, object] = {"mip_rel_gap": 2e-3, "time_limit": None, "node_limit": 100}


#: workload name -> distinct simulation seeds per untraced run.  The seed
#: decides which hard MILPs a run meets, so on the solver-bound workloads one
#: seed's CPU time varies a lot (fig6: 6 to 12 s, fig5: 19 to 44 s on a 2-core
#: host), and on fleet_chaos it decides which workers crash; those runs pool
#: seeds.  fig5_traffic is not in BENCHMARK.json: with the three seeds a run
#: can afford, its throughput still spreads across runs by about the largest
#: bound allowed.  It stays runnable for paired before/after runs and for the
#: traced attribution of the paper's main workload.
SIMS_PER_RUN: Dict[str, int] = {"fleet_steady": 1, "fleet_chaos": 3, "fig6_social": 7, "fig5_traffic": 3}


def sim_seeds(name: str, seed: int) -> List[int]:
    """Simulation seeds of one run: ``--seed s`` maps to ``k*s .. k*s+k-1``."""
    k = SIMS_PER_RUN[name]
    return [k * seed + i for i in range(k)]


def _fleet(name: str) -> ScenarioSpec:
    return get_scenario("traffic_demand_surge").with_overrides(
        name=name,
        description="traffic_analysis on 120 workers, constant 60 s trace at 0.6x hardware capacity",
        num_workers=120,
        trace="constant",
        trace_params={"qps": 1.0, "duration_s": 60},
        peak_over_hardware=0.6,
        faults=(),
    )


def build_spec(name: str, duration_s: Optional[int] = None) -> ScenarioSpec:
    """The scenario spec of workload ``name``, with the pinned solver budget.

    ``duration_s`` shortens the trace (the benchmark's own tests use it).
    """
    if name == "fig5_traffic":
        spec = get_scenario("traffic_azure")
    elif name == "fig6_social":
        spec = get_scenario("social_twitter_bursty")
    elif name == "fleet_steady":
        spec = _fleet(name)
    elif name == "fleet_chaos":
        spec = _fleet(name).with_overrides(
            faults=(
                FaultSpec(kind="crash_restart", at_s=10.0, duration_s=40.0, count=12, mttf_s=8.0, mttr_s=3.0),
                FaultSpec(kind="worker_slowdown", at_s=20.0, duration_s=15.0, count=10, magnitude=3.0),
            ),
            resilience={"max_retries": 2, "failover_requeue": True},
        )
    else:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(SIMS_PER_RUN)}")
    if duration_s is not None:
        spec = spec.with_overrides(trace_params={**spec.trace_params, "duration_s": duration_s})
    return spec.with_overrides(
        control_overrides={**spec.control_overrides, "solver_options": dict(SOLVER_BUDGET)}
    )
