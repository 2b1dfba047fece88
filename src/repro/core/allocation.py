"""MILP formulations for hardware and accuracy scaling (Section 4 of the paper).

Notation (Table 1 of the paper)
-------------------------------

===========  ====================================================================
``T``        set of tasks; ``t_i`` the i-th task
``V_i``      set of model variants of task ``t_i``; ``v_{i,k}`` the k-th variant
``E``        edges of the pipeline graph
``P``        root-to-sink paths of the augmented graph
``B``        allowed batch sizes
``D``        incoming demand (QPS) at the root
``S``        number of workers in the cluster
``L``        end-to-end latency SLO
``r(i,k)``   multiplicative factor of variant ``v_{i,k}``
``q(i,k,b)`` profiled throughput of ``v_{i,k}`` at batch size ``b``
``A(v)``     profiled accuracy of a variant; ``Â(p)`` end-to-end accuracy of path p
``x(i,k)``   number of instances of ``v_{i,k}`` (optimisation variable)
``y(i,k)``   batch size of ``v_{i,k}`` (optimisation variable)
``c(p)``     ratio of queries routed through path ``p``
===========  ====================================================================

Linearisation
-------------

As written in the paper, constraint (2) multiplies ``x(i,k)`` with
``q(i,k,y(i,k))`` and the path latency (6) depends on the chosen batch sizes,
both of which are nonlinear.  We linearise exactly by expanding every
``(variant, batch size)`` pair into a *configuration*: a configuration has
constant throughput and constant processing latency, so

* ``x(i,k,b)`` -- integer count of instances of variant ``k`` of task ``i``
  configured with maximum batch size ``b`` -- makes (2) linear, and
* augmented paths are enumerated at the configuration level, so every path has
  a fixed end-to-end latency and constraint (7) becomes a pre-solve pruning
  step (paths whose latency exceeds the effective budget are simply removed).

Instead of the ratio variables ``c(p)`` we use absolute flows
``g(p) = D * c(p)`` internally, which keeps the formulation linear also when
the demand itself is an optimisation variable (used by
:meth:`AllocationProblem.max_supported_demand` to compute cluster capacity for
Figure 1).

Shared-prefix consistency
-------------------------

When a pipeline fans out (the traffic-analysis pipeline's detection task feeds
two branches), the same physical query traverses the shared prefix once.  The
formulation therefore (a) counts the load of a shared task from a single
designated branch and (b) adds *coupling constraints* forcing the per
configuration flow through a shared task to be identical across branches, so
the designated-branch accounting is exact and the variant mix at the shared
task is consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core.pipeline import Pipeline, PathKey
from repro.core.profiles import ModelVariant
from repro.solver import MatrixModel, Sense, Solution, solve

__all__ = [
    "Configuration",
    "ConfigPath",
    "VariantAllocation",
    "AllocationPlan",
    "AllocationProblem",
    "build_hardware_scaling_model",
    "build_accuracy_scaling_model",
    "HARDWARE_SCALING",
    "ACCURACY_SCALING",
    "DEFAULT_SOLVER_OPTIONS",
]

HARDWARE_SCALING = "hardware"
ACCURACY_SCALING = "accuracy"

#: HiGHS budget of every allocation MILP unless the caller passes its own.
#: Near-capacity accuracy-scaling MILPs can take several seconds to prove
#: optimality; a small relative gap and a time limit keep the Resource
#: Manager's runtime close to the paper's ~500 ms while staying within a
#: fraction of a percent of the optimum.
DEFAULT_SOLVER_OPTIONS: Dict[str, object] = {"mip_rel_gap": 2e-3, "time_limit": 3.0}

#: system accuracy the accuracy-scaling objective credits, in total, for
#: keeping the incumbent plan's variants (see ``_build_model``)
STABILITY_BONUS = 0.02


# ---------------------------------------------------------------------------
# Configurations and configuration-level paths
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Configuration:
    """A (task, variant, batch size) triple with its constant profile."""

    task: str
    variant: ModelVariant
    batch_size: int

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.task, self.variant.name, self.batch_size)

    @property
    def latency_ms(self) -> float:
        return self.variant.latency_ms(self.batch_size)

    @property
    def throughput_qps(self) -> float:
        return self.variant.throughput_qps(self.batch_size)

    @property
    def accuracy(self) -> float:
        return self.variant.accuracy


@dataclass(frozen=True)
class ConfigPath:
    """A root-to-sink path at configuration granularity."""

    branch_index: int
    configs: Tuple[Configuration, ...]
    multipliers: Tuple[float, ...]
    accuracy: float
    latency_ms: float

    @property
    def key(self) -> Tuple[Tuple[str, str, int], ...]:
        return tuple(c.key for c in self.configs)

    @property
    def variant_key(self) -> PathKey:
        return tuple((c.task, c.variant.name) for c in self.configs)

    @property
    def tasks(self) -> Tuple[str, ...]:
        return tuple(c.task for c in self.configs)


# ---------------------------------------------------------------------------
# Decoded plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VariantAllocation:
    """One row of a resource-allocation plan."""

    task: str
    variant_name: str
    batch_size: int
    replicas: int
    throughput_qps: float
    latency_ms: float
    accuracy: float

    @property
    def total_throughput_qps(self) -> float:
        return self.replicas * self.throughput_qps


@dataclass
class AllocationPlan:
    """The output of the Resource Manager for one invocation.

    Attributes
    ----------
    mode:
        ``"hardware"`` when the demand was met with the most accurate variants
        (step 1), ``"accuracy"`` when accuracy scaling was needed (step 2).
    allocations:
        One entry per hosted (variant, batch size) with a positive replica
        count.
    path_ratios:
        ``c(p)`` per variant-level path key, normalised per branch.
    expected_accuracy:
        The MILP's estimate of system accuracy under this plan (the objective
        of step 2; for step 1 it equals the maximum end-to-end accuracy).
    total_workers:
        Number of workers used (Σ x).
    demand_qps:
        The demand the plan was provisioned for.
    feasible:
        False when even accuracy scaling could not meet the demand; the
        allocations then describe the best-effort max-throughput plan.
    """

    pipeline_name: str
    mode: str
    demand_qps: float
    allocations: List[VariantAllocation]
    path_ratios: Dict[PathKey, float]
    expected_accuracy: float
    total_workers: int
    feasible: bool = True
    solver_info: Dict[str, object] = field(default_factory=dict)

    # -- helpers -----------------------------------------------------------
    def allocations_for(self, task: str) -> List[VariantAllocation]:
        return [a for a in self.allocations if a.task == task]

    def workers_for(self, task: str) -> int:
        return sum(a.replicas for a in self.allocations_for(task))

    def variants_for(self, task: str) -> List[str]:
        return sorted({a.variant_name for a in self.allocations_for(task)})

    def tasks(self) -> List[str]:
        return sorted({a.task for a in self.allocations})

    def capacity_qps(self, task: str) -> float:
        """Aggregate throughput capacity provisioned for ``task``."""
        return sum(a.total_throughput_qps for a in self.allocations_for(task))

    def latency_budget_ms(self, task: str, variant_name: str, batch_size: int) -> float:
        for a in self.allocations:
            if a.task == task and a.variant_name == variant_name and a.batch_size == batch_size:
                return a.latency_ms
        raise KeyError(f"no allocation for {task}/{variant_name}/b{batch_size}")

    def summary(self) -> str:
        lines = [
            f"plan[{self.pipeline_name}] mode={self.mode} demand={self.demand_qps:.1f} qps "
            f"workers={self.total_workers} accuracy={self.expected_accuracy:.4f} feasible={self.feasible}"
        ]
        for a in sorted(self.allocations, key=lambda a: (a.task, -a.accuracy)):
            lines.append(
                f"  {a.task:<22} {a.variant_name:<18} b={a.batch_size:<3} x{a.replicas:<3} "
                f"{a.total_throughput_qps:8.1f} qps  {a.latency_ms:6.1f} ms"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------
class AllocationProblem:
    """Builds and solves the hardware/accuracy-scaling MILPs for one pipeline.

    Parameters
    ----------
    pipeline:
        The pipeline to provision.
    num_workers:
        Cluster size ``S``.
    latency_slo_ms:
        End-to-end SLO ``L``; defaults to the pipeline's configured SLO.
    communication_latency_ms:
        Homogeneous per-hop communication latency subtracted from the SLO
        (Section 4.2).
    batch_sizes:
        Allowed batch sizes ``B``; defaults to each variant's own allowed set
        intersected with this set.
    slo_slack_factor:
        The queueing allowance of Section 4.1: the processing budget is
        ``SLO / slo_slack_factor`` (the paper divides by two).
    multiplicative_factors:
        Optional overrides ``{variant_name: factor}`` from runtime estimates
        (heartbeats); defaults to the profiled factors.

    The configuration/path index and the last model's constraints are
    cached, so the parameters above must not change after construction
    (``solver_options`` may).
    """

    def __init__(
        self,
        pipeline: Pipeline,
        num_workers: int,
        latency_slo_ms: Optional[float] = None,
        communication_latency_ms: float = 2.0,
        batch_sizes: Optional[Sequence[int]] = None,
        slo_slack_factor: float = 2.0,
        utilization_target: float = 0.8,
        multiplicative_factors: Optional[Mapping[str, float]] = None,
        solver_options: Optional[Dict[str, object]] = None,
    ):
        if num_workers < 1:
            raise ValueError("cluster must have at least one worker")
        if not (0.0 < utilization_target <= 1.0):
            raise ValueError("utilization_target must be in (0, 1]")
        self.pipeline = pipeline
        self.num_workers = int(num_workers)
        self.latency_slo_ms = float(latency_slo_ms if latency_slo_ms is not None else pipeline.latency_slo_ms)
        self.communication_latency_ms = float(communication_latency_ms)
        self.batch_sizes = tuple(batch_sizes) if batch_sizes is not None else None
        self.slo_slack_factor = float(slo_slack_factor)
        # Capacity is provisioned at a target utilisation below 1 so queueing
        # delay stays within the SLO/2 waiting allowance (arrivals are bursty;
        # running replicas at 100% of their profiled throughput would make
        # waiting times unbounded).
        self.utilization_target = float(utilization_target)
        self.multiplicative_factors = dict(multiplicative_factors or {})
        self.solver_options = dict(DEFAULT_SOLVER_OPTIONS if solver_options is None else solver_options)

        self._task_paths = pipeline.task_paths()
        self._designated_branch: Dict[str, int] = {}
        for branch_index, task_path in enumerate(self._task_paths):
            for task in task_path:
                self._designated_branch.setdefault(task, branch_index)
        self._indices: Dict[bool, _PathIndex] = {}
        #: (key, constraints) of the last model built (see ``_build_model``)
        self._constraints: Optional[Tuple[tuple, MatrixModel]] = None

    # -- profile access with runtime overrides -----------------------------
    def multiplicative_factor(self, variant: ModelVariant) -> float:
        return self.multiplicative_factors.get(variant.name, variant.multiplicative_factor)

    def allowed_batches(self, variant: ModelVariant) -> Tuple[int, ...]:
        if self.batch_sizes is None:
            return tuple(sorted(variant.batch_sizes))
        return tuple(sorted(set(variant.batch_sizes) & set(self.batch_sizes)))

    def effective_throughput_qps(self, config: Configuration) -> float:
        """Capacity credited to one instance of ``config`` (profiled throughput x target utilisation)."""
        return config.throughput_qps * self.utilization_target

    def effective_budget_ms(self, num_hops: int) -> float:
        """Processing-latency budget for a path with ``num_hops`` tasks.

        Implements Section 4.2: the SLO is divided by ``slo_slack_factor``
        (2 by default) to leave room for queueing, and the aggregate
        communication latency of the path's hops is subtracted.
        """
        return self.latency_slo_ms / self.slo_slack_factor - num_hops * self.communication_latency_ms

    # -- configuration-level path enumeration -------------------------------
    def configurations(self, restrict_to_best: bool = False) -> List[Configuration]:
        """All (task, variant, batch) configurations, optionally only the most accurate variants."""
        configs: List[Configuration] = []
        for task_name in self.pipeline.topological_order():
            variants = self.pipeline.registry.variants(task_name)
            if restrict_to_best:
                variants = variants[:1]
            for variant in variants:
                for batch in self.allowed_batches(variant):
                    configs.append(Configuration(task=task_name, variant=variant, batch_size=batch))
        return configs

    def config_paths(self, restrict_to_best: bool = False) -> List[ConfigPath]:
        """Latency-feasible configuration paths (constraint (7) applied by pruning)."""
        paths: List[ConfigPath] = []
        registry = self.pipeline.registry
        for branch_index, task_path in enumerate(self._task_paths):
            budget = self.effective_budget_ms(len(task_path))
            per_task_configs: List[List[Configuration]] = []
            for task_name in task_path:
                variants = registry.variants(task_name)
                if restrict_to_best:
                    variants = variants[:1]
                task_configs = [
                    Configuration(task=task_name, variant=v, batch_size=b)
                    for v in variants
                    for b in self.allowed_batches(v)
                ]
                per_task_configs.append(task_configs)
            self._extend_paths(paths, branch_index, task_path, per_task_configs, budget)
        return paths

    def _extend_paths(
        self,
        out: List[ConfigPath],
        branch_index: int,
        task_path: Sequence[str],
        per_task_configs: Sequence[Sequence[Configuration]],
        budget_ms: float,
    ) -> None:
        """Depth-first enumeration with latency-based pruning."""
        n = len(task_path)
        # Lower bound on remaining latency from each position enables pruning.
        min_remaining = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            min_remaining[i] = min_remaining[i + 1] + min(c.latency_ms for c in per_task_configs[i])

        def visit(position: int, chosen: List[Configuration], latency: float):
            if latency + min_remaining[position] > budget_ms + 1e-9:
                return
            if position == n:
                multipliers = self._path_multipliers(task_path, chosen)
                accuracy = math.prod(c.accuracy for c in chosen)
                out.append(
                    ConfigPath(
                        branch_index=branch_index,
                        configs=tuple(chosen),
                        multipliers=multipliers,
                        accuracy=accuracy,
                        latency_ms=latency,
                    )
                )
                return
            for config in per_task_configs[position]:
                visit(position + 1, chosen + [config], latency + config.latency_ms)

        visit(0, [], 0.0)

    def _path_multipliers(self, task_path: Sequence[str], configs: Sequence[Configuration]) -> Tuple[float, ...]:
        multipliers: List[float] = []
        running = 1.0
        for position, config in enumerate(configs):
            if position > 0:
                upstream = configs[position - 1]
                edge = self.pipeline.edge(task_path[position - 1], task_path[position])
                running *= self.multiplicative_factor(upstream.variant) * edge.branch_ratio
            multipliers.append(running)
        return tuple(multipliers)

    # -- MILP assembly -------------------------------------------------------
    def _index(self, restrict_to_best: bool) -> "_PathIndex":
        index = self._indices.get(restrict_to_best)
        if index is None:
            index = self._indices[restrict_to_best] = _PathIndex(self, restrict_to_best)
        return index

    def _build_model(
        self,
        demand_qps: Optional[float],
        mode: str,
        restrict_to_best: bool,
        accuracy_floor: Optional[float] = None,
        preferred_variants: Optional[Iterable[str]] = None,
    ) -> Tuple[MatrixModel, "_PathIndex"]:
        """Assemble the MILP shared by all solve entry points.

        ``demand_qps=None`` turns the demand into an optimisation variable
        (used to compute the maximum supportable demand); ``accuracy_floor``
        then bounds the accuracy of the served mix instead of the system
        accuracy at a fixed demand.  The constraints of the last
        (demand, floor) pair are kept, so models that differ only in the
        objective share them.
        """
        index = self._index(restrict_to_best)
        key = (restrict_to_best, demand_qps, accuracy_floor)
        if self._constraints is None or self._constraints[0] != key:
            self._constraints = (key, self._assemble_constraints(index, demand_qps, accuracy_floor))
        constraints = self._constraints[1]

        objective = np.zeros(constraints.num_vars)
        if mode == HARDWARE_SCALING:
            objective[: index.num_x] = 1.0
            sign = 1
        elif mode == ACCURACY_SCALING:
            # System accuracy = (1/|branches|) Σ_p c(p) Â(p); with flows this is
            # (1/(|branches| D)) Σ_p g(p) Â(p).  D is a constant here.
            assert demand_qps is not None and demand_qps > 0
            objective[index.num_x : index.num_columns] = index.path_accuracy / (len(self._task_paths) * demand_qps)
            # Plan-stability bonus: slightly prefer keeping the variants of the
            # incumbent plan so consecutive re-allocations do not shuffle model
            # assignments gratuitously (every shuffle costs a model-load on a
            # worker).  The bonus is small (worth ``STABILITY_BONUS`` system
            # accuracy in total), so it only breaks ties between near-optimal
            # mixes and never outweighs a real accuracy gain.
            if preferred_variants:
                preferred = set(preferred_variants)
                bonus_columns = [j for j, config in enumerate(index.configs) if config.variant.name in preferred]
                objective[bonus_columns] = STABILITY_BONUS / max(1, self.num_workers)
            sign = -1
        elif mode == "max_throughput":
            assert demand_qps is None
            objective[index.num_columns] = 1.0  # the demand variable D
            sign = -1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown mode {mode!r}")
        model = constraints.replace(name=f"{self.pipeline.name}-{mode}", objective=objective, objective_sign=sign)
        return model, index

    def _assemble_constraints(
        self, index: "_PathIndex", demand_qps: Optional[float], accuracy_floor: Optional[float]
    ) -> MatrixModel:
        """Variables, bounds and rows of the MILP (the objective is left zero).

        Columns: ``x`` per configuration, ``g`` per path, the demand ``D``
        when it is a variable, then one fixed-at-one variable per branch
        whose paths were all pruned.  Rows: one demand row per branch, the
        structural rows of ``index``, then the optional accuracy floor.
        """
        names = list(index.names)
        if demand_qps is None:
            names.append("D")
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        senses: List[Sense] = []
        rhs: List[float] = []
        pruned: List[int] = []

        # Demand-coverage constraint per branch: Σ_{p in branch} g(p) = D.
        for branch_index, columns in enumerate(index.branch_columns):
            row = len(senses)
            if not columns:
                # Every path of this branch was pruned by the latency budget:
                # the problem is structurally infeasible for this SLO.
                pruned.append(len(names))
                rows.append(row)
                cols.append(len(names))
                vals.append(1.0)
                names.append(f"infeasible[{branch_index}]")
                senses.append(Sense.LE)
                rhs.append(0.0)
                continue
            rows.extend([row] * len(columns))
            cols.extend(columns)
            vals.extend([1.0] * len(columns))
            if demand_qps is None:
                rows.append(row)
                cols.append(index.num_columns)
                vals.append(-1.0)
            senses.append(Sense.EQ)
            rhs.append(0.0 if demand_qps is None else float(demand_qps))

        # Coupling, capacity (2) and cluster size (3).
        offset = len(senses)
        rows_arr = [np.asarray(rows, dtype=np.int64), index.rows + offset]
        cols_arr = [np.asarray(cols, dtype=np.int64), index.cols]
        vals_arr = [np.asarray(vals, dtype=float), index.vals]
        senses.extend(index.senses)
        rhs.extend(index.rhs(self.num_workers))

        floor_values = None
        if accuracy_floor is not None and demand_qps is None:
            # Accuracy floor with variable demand: Σ g(p) (Â(p) - floor) >= 0 per the
            # normalisation Σ_p g(p) = |branches| * D.
            floor_values, floor_rhs = index.path_accuracy - accuracy_floor, 0.0
        elif accuracy_floor is not None and demand_qps > 0 and index.paths:
            # Accuracy floor at a fixed demand (capacity-at-accuracy sweeps).
            floor_values = index.path_accuracy / (len(self._task_paths) * demand_qps)
            floor_rhs = float(accuracy_floor)
        if floor_values is not None:
            rows_arr.append(np.full(len(floor_values), len(senses)))
            cols_arr.append(np.arange(index.num_x, index.num_columns))
            vals_arr.append(floor_values)
            senses.append(Sense.GE)
            rhs.append(floor_rhs)

        n = len(names)
        lb = np.zeros(n)
        ub = np.full(n, math.inf)
        ub[: index.num_x] = float(self.num_workers)
        lb[pruned] = ub[pruned] = 1.0
        integer = np.zeros(n, dtype=bool)
        integer[: index.num_x] = True
        A = _csr(np.concatenate(rows_arr), np.concatenate(cols_arr), np.concatenate(vals_arr), (len(senses), n))
        return MatrixModel(
            name=self.pipeline.name,
            variable_names=names,
            lb=lb,
            ub=ub,
            integer=integer,
            objective=np.zeros(n),
            objective_sign=1,
            A=A,
            senses=senses,
            rhs=np.asarray(rhs, dtype=float),
        )

    # -- solving --------------------------------------------------------------
    def solve_hardware_scaling(self, demand_qps: float) -> Optional[AllocationPlan]:
        """Step 1: minimise workers using only the most accurate variants.

        Returns ``None`` when infeasible (the Resource Manager then falls back
        to accuracy scaling).
        """
        model, index = self._build_model(demand_qps, HARDWARE_SCALING, restrict_to_best=True)
        solution = solve(model, **self.solver_options)
        if not solution.is_optimal:
            return None
        return self._decode(solution, index, demand_qps, HARDWARE_SCALING)

    def solve_accuracy_scaling(
        self,
        demand_qps: float,
        accuracy_floor: Optional[float] = None,
        preferred_variants: Optional[Iterable[str]] = None,
    ) -> Optional[AllocationPlan]:
        """Step 2: maximise system accuracy using the whole cluster.

        ``preferred_variants`` lists the variants of the incumbent plan; a
        small stability bonus steers ties toward reusing them (fewer model
        swaps between consecutive invocations).
        """
        model, index = self._build_model(
            demand_qps,
            ACCURACY_SCALING,
            restrict_to_best=False,
            accuracy_floor=accuracy_floor,
            preferred_variants=preferred_variants,
        )
        solution = solve(model, **self.solver_options)
        if not solution.is_optimal:
            return None
        return self._decode(solution, index, demand_qps, ACCURACY_SCALING)

    def solve(
        self,
        demand_qps: float,
        preferred_variants: Optional[Iterable[str]] = None,
    ) -> AllocationPlan:
        """The Resource Manager's two-step procedure (Section 4).

        Try hardware scaling at maximum accuracy first; if infeasible, fall
        back to accuracy scaling; if that is also infeasible, return the
        best-effort max-throughput plan flagged ``feasible=False``.
        """
        plan = self.solve_hardware_scaling(demand_qps)
        if plan is not None:
            return plan
        plan = self.solve_accuracy_scaling(demand_qps, preferred_variants=preferred_variants)
        if plan is not None:
            return plan
        return self.best_effort_plan(demand_qps)

    def best_effort_plan(self, demand_qps: float) -> AllocationPlan:
        """When even accuracy scaling cannot meet demand, provision the cluster
        for its maximum supportable throughput and mark the plan infeasible."""
        capacity_plan = self.max_supported_demand()
        plan = capacity_plan.plan
        return AllocationPlan(
            pipeline_name=self.pipeline.name,
            mode=ACCURACY_SCALING,
            demand_qps=demand_qps,
            allocations=plan.allocations,
            path_ratios=plan.path_ratios,
            expected_accuracy=plan.expected_accuracy,
            total_workers=plan.total_workers,
            feasible=False,
            solver_info={**plan.solver_info, "max_supported_qps": capacity_plan.max_demand_qps},
        )

    def max_supported_demand(self, restrict_to_best: bool = False, accuracy_floor: Optional[float] = None):
        """Maximum demand the cluster can absorb (used for Figure 1 capacity curves)."""
        model, index = self._build_model(None, "max_throughput", restrict_to_best, accuracy_floor=accuracy_floor)
        solution = solve(model, **self.solver_options)
        if not solution.is_optimal:
            return MaxDemandResult(max_demand_qps=0.0, plan=self._empty_plan(0.0))
        max_demand = solution.get("D", 0.0)
        plan = self._decode(solution, index, max(max_demand, 1e-9), ACCURACY_SCALING)
        return MaxDemandResult(max_demand_qps=max_demand, plan=plan)

    # -- LP certificates --------------------------------------------------------
    def accuracy_upper_bound(self, demand_qps: float) -> Optional[float]:
        """An upper bound on the system accuracy of every accuracy-scaling
        plan for ``demand_qps``: the optimum of step 2's LP relaxation,
        without the stability bonus.  ``None`` unless HiGHS proves that
        optimum (an infeasible relaxation included)."""
        model, _ = self._build_model(demand_qps, ACCURACY_SCALING, restrict_to_best=False)
        relaxed = model.replace(name=f"{model.name}-relaxation", integer=np.zeros(model.num_vars, dtype=bool))
        solution = solve(relaxed, cache=False, **self.solver_options)
        if not (solution.is_optimal and solution.info.get("optimal_proven")):
            return None
        return solution.objective

    def can_route(self, plan: AllocationPlan, demand_qps: float) -> bool:
        """Whether ``plan``'s replica counts, held fixed, carry ``demand_qps``
        under this problem's constraints (an LP over the path flows).  When
        they do, step 2 for ``demand_qps`` has a feasible integer point."""
        model, index = self._build_model(demand_qps, ACCURACY_SCALING, restrict_to_best=False)
        replicas = np.zeros(index.num_x)
        for allocation in plan.allocations:
            column = index.config_of.get((allocation.task, allocation.variant_name, allocation.batch_size))
            if column is None:
                return False
            replicas[column] = allocation.replicas
        lb = model.lb.copy()
        ub = model.ub.copy()
        lb[: index.num_x] = ub[: index.num_x] = replicas
        fixed = model.replace(
            name=f"{model.name}-fixed-replicas",
            lb=lb,
            ub=ub,
            integer=np.zeros(model.num_vars, dtype=bool),
            objective=np.zeros(model.num_vars),
        )
        solution = solve(fixed, cache=False, **self.solver_options)
        return solution.is_optimal and bool(solution.info.get("optimal_proven"))

    # -- decoding --------------------------------------------------------------
    def _decode(self, solution: Solution, index: "_PathIndex", demand_qps: float, mode: str) -> AllocationPlan:
        values = solution.x.tolist()
        allocations: List[VariantAllocation] = []
        total_workers = 0
        for config, value in zip(index.configs, values):
            replicas = int(round(value))
            if replicas <= 0:
                continue
            total_workers += replicas
            allocations.append(
                VariantAllocation(
                    task=config.task,
                    variant_name=config.variant.name,
                    batch_size=config.batch_size,
                    replicas=replicas,
                    throughput_qps=self.effective_throughput_qps(config),
                    latency_ms=config.latency_ms,
                    accuracy=config.accuracy,
                )
            )

        num_branches = max(1, len(self._task_paths))
        path_ratios: Dict[PathKey, float] = {}
        accuracy_numerator = 0.0
        for path, flow in zip(index.paths, values[index.num_x : index.num_columns]):
            if flow <= 1e-9:
                continue
            ratio = flow / demand_qps if demand_qps > 0 else 0.0
            path_ratios[path.variant_key] = path_ratios.get(path.variant_key, 0.0) + ratio
            accuracy_numerator += ratio * path.accuracy
        expected_accuracy = accuracy_numerator / num_branches if path_ratios else 0.0

        return AllocationPlan(
            pipeline_name=self.pipeline.name,
            mode=mode,
            demand_qps=demand_qps,
            allocations=allocations,
            path_ratios=path_ratios,
            expected_accuracy=expected_accuracy,
            total_workers=total_workers,
            feasible=True,
            solver_info=dict(solution.info),
        )

    def _empty_plan(self, demand_qps: float) -> AllocationPlan:
        return AllocationPlan(
            pipeline_name=self.pipeline.name,
            mode=ACCURACY_SCALING,
            demand_qps=demand_qps,
            allocations=[],
            path_ratios={},
            expected_accuracy=0.0,
            total_workers=0,
            feasible=False,
        )


class _PathIndex:
    """The configurations and latency-feasible paths of one problem, with the
    demand-independent rows of its MILP laid out as matrix entries.

    Columns are ``x`` per configuration, then ``g`` per path.  The rows are,
    in order: the shared-prefix coupling rows, the capacity rows (2) and the
    cluster-size row (3).
    """

    def __init__(self, problem: AllocationProblem, restrict_to_best: bool):
        configs = problem.configurations(restrict_to_best=restrict_to_best)
        paths = problem.config_paths(restrict_to_best=restrict_to_best)
        self.configs = configs
        self.paths = paths
        self.num_x = len(configs)
        self.num_columns = len(configs) + len(paths)
        self.names = [f"x[{c.task}|{c.variant.name}|{c.batch_size}]" for c in configs]
        self.names += [f"g[{index}]" for index in range(len(paths))]
        self.config_of = {c.key: column for column, c in enumerate(configs)}
        self.path_accuracy = np.array([p.accuracy for p in paths], dtype=float)
        flow_column = [self.num_x + index for index in range(len(paths))]
        #: flow columns of each branch's paths (the per-branch demand rows)
        self.branch_columns: List[List[int]] = [[] for _ in problem._task_paths]
        for index, path in enumerate(paths):
            self.branch_columns[path.branch_index].append(flow_column[index])

        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        self.senses: List[Sense] = []

        def add_row(entries: Iterable[Tuple[int, float]], sense: Sense) -> None:
            row = len(self.senses)
            for column, value in entries:
                rows.append(row)
                cols.append(column)
                vals.append(value)
            self.senses.append(sense)

        # Shared-prefix coupling: configuration flow through a shared task must
        # agree across branches (see module docstring).
        by_config_branch: Dict[Tuple[Tuple[str, str, int], int], List[int]] = {}
        branches_per_task: Dict[str, set] = {}
        for index, path in enumerate(paths):
            for config in path.configs:
                by_config_branch.setdefault((config.key, path.branch_index), []).append(flow_column[index])
                branches_per_task.setdefault(config.task, set()).add(path.branch_index)
        for task, branches in branches_per_task.items():
            if len(branches) < 2:
                continue
            reference, *others = sorted(branches)
            # Sorted so the constraint order (and therefore solver tie-breaks
            # between equally optimal plans) does not depend on PYTHONHASHSEED.
            for key in sorted({key for (key, _) in by_config_branch if key[0] == task}):
                ref_columns = by_config_branch.get((key, reference), [])
                for other in others:
                    other_columns = by_config_branch.get((key, other), [])
                    add_row([(c, 1.0) for c in ref_columns] + [(c, -1.0) for c in other_columns], Sense.EQ)

        # Capacity constraint (2): load on each configuration from its
        # designated branch must fit the provisioned throughput.
        load: List[List[Tuple[int, float]]] = [[] for _ in configs]
        for index, path in enumerate(paths):
            for position, config in enumerate(path.configs):
                if problem._designated_branch[config.task] == path.branch_index:
                    load[self.config_of[config.key]].append((flow_column[index], path.multipliers[position]))
        for column, (config, terms) in enumerate(zip(configs, load)):
            if terms:
                add_row([(column, -problem.effective_throughput_qps(config))] + terms, Sense.LE)

        # Cluster size constraint (3); its rhs is the cluster size.
        add_row([(column, 1.0) for column in range(self.num_x)], Sense.LE)

        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=float)

    def rhs(self, num_workers: int) -> List[float]:
        return [0.0] * (len(self.senses) - 1) + [float(num_workers)]


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: Tuple[int, int]) -> sparse.csr_matrix:
    """Canonical CSR (sorted columns, no stored zeros) from distinct entries:
    the matrix ``scipy.sparse.csr_matrix`` makes of the dense equivalent."""
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sparse.csr_matrix((vals[order], cols[order].astype(np.int32), indptr), shape=shape)


@dataclass
class MaxDemandResult:
    """Result of :meth:`AllocationProblem.max_supported_demand`."""

    max_demand_qps: float
    plan: AllocationPlan


# ---------------------------------------------------------------------------
# Convenience functions used by tests and the experiment harness
# ---------------------------------------------------------------------------
def build_hardware_scaling_model(problem: AllocationProblem, demand_qps: float) -> MatrixModel:
    """Return the raw MILP of the hardware-scaling step (for inspection/tests)."""
    model, _ = problem._build_model(demand_qps, HARDWARE_SCALING, restrict_to_best=True)
    return model


def build_accuracy_scaling_model(problem: AllocationProblem, demand_qps: float) -> MatrixModel:
    """Return the raw MILP of the accuracy-scaling step (for inspection/tests)."""
    model, _ = problem._build_model(demand_qps, ACCURACY_SCALING, restrict_to_best=False)
    return model
