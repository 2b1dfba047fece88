"""The allocator's matrix assembly against a LinExpr reference builder.

:meth:`AllocationProblem._build_model` assembles the MILPs as matrices.
:func:`reference_model` below writes the same formulation with the
:class:`~repro.solver.Model` algebra, row by row, and
:meth:`~repro.solver.Model.to_matrix` turns it into the rows the solver
reads.  Both must hand HiGHS the same bytes: the row matrix, the standard
form, the CSR matrices, the bounds and the variable names are compared bit
for bit (``tobytes``, so even the sign of a zero counts), for every kind of
model the allocator builds.
"""

from typing import Optional

import pytest

from repro.core.allocation import (
    ACCURACY_SCALING,
    HARDWARE_SCALING,
    STABILITY_BONUS,
    AllocationProblem,
)
from repro.core.pipeline import Edge, Pipeline, Task
from repro.core.profiles import ProfileRegistry
from repro.solver import LinExpr, Model, Sense, fingerprint_model
from repro.zoo import social_media_pipeline, traffic_analysis_pipeline
from tests.conftest import make_variant


def _sum(terms):
    total = LinExpr()
    for term in terms:
        total = total + term
    return total


def reference_model(
    problem: AllocationProblem,
    demand_qps: Optional[float],
    mode: str,
    accuracy_floor: Optional[float] = None,
    preferred_variants=None,
) -> Model:
    """The allocation MILP written with the modelling algebra."""
    restrict = mode == HARDWARE_SCALING
    configs = problem.configurations(restrict_to_best=restrict)
    paths = problem.config_paths(restrict_to_best=restrict)
    num_branches = len(problem._task_paths)
    model = Model(f"{problem.pipeline.name}-{mode}")
    x = {c.key: model.add_var(f"x[{c.task}|{c.variant.name}|{c.batch_size}]", ub=problem.num_workers, integer=True)
         for c in configs}
    g = [model.add_var(f"g[{index}]") for index in range(len(paths))]
    demand = model.add_var("D") if demand_qps is None else None

    for branch in range(num_branches):
        flows = [g[i] * 1.0 for i, p in enumerate(paths) if p.branch_index == branch]
        if not flows:
            model.add_constraint(model.add_var(f"infeasible[{branch}]", lb=1.0, ub=1.0) <= 0.0)
            continue
        model.add_constraint(_sum(flows) == (float(demand_qps) if demand is None else demand * 1.0))

    by_config_branch, branches_per_task = {}, {}
    for i, path in enumerate(paths):
        for config in path.configs:
            by_config_branch.setdefault((config.key, path.branch_index), []).append(i)
            branches_per_task.setdefault(config.task, set()).add(path.branch_index)
    for task, branches in branches_per_task.items():
        if len(branches) < 2:
            continue
        reference, *others = sorted(branches)
        for key in sorted({key for (key, _) in by_config_branch if key[0] == task}):
            ref = _sum(g[i] for i in by_config_branch.get((key, reference), []))
            for other in others:
                model.add_constraint(ref == _sum(g[i] for i in by_config_branch.get((key, other), [])))

    for config in configs:
        load = [
            g[i] * path.multipliers[position]
            for i, path in enumerate(paths)
            for position, c in enumerate(path.configs)
            if c.key == config.key and problem._designated_branch[c.task] == path.branch_index
        ]
        if load:
            model.add_constraint(_sum(load) <= x[config.key] * problem.effective_throughput_qps(config))

    total_x = _sum(var * 1.0 for var in x.values())
    model.add_constraint(total_x <= float(problem.num_workers))

    def accuracy():
        return _sum(g[i] * (p.accuracy / (num_branches * demand_qps)) for i, p in enumerate(paths))

    if accuracy_floor is not None and demand_qps is None:
        model.add_constraint(_sum(g[i] * (p.accuracy - accuracy_floor) for i, p in enumerate(paths)) >= 0.0)
    elif accuracy_floor is not None and paths:
        model.add_constraint(accuracy() >= accuracy_floor)

    if mode == HARDWARE_SCALING:
        model.minimize(total_x)
    elif mode == ACCURACY_SCALING:
        objective = accuracy()
        if preferred_variants:
            bonus = STABILITY_BONUS / max(1, problem.num_workers)
            for config in configs:
                if config.variant.name in preferred_variants:
                    objective = objective + x[config.key] * bonus
        model.maximize(objective)
    else:
        model.maximize(demand * 1.0)
    return model


def assert_same_bytes(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        if hasattr(e, "indptr"):
            for attr in ("shape", "indptr", "indices", "data"):
                a_part, e_part = getattr(a, attr), getattr(e, attr)
                if attr != "shape":
                    assert a_part.dtype == e_part.dtype, attr
                    a_part, e_part = a_part.tobytes(), e_part.tobytes()
                assert a_part == e_part, attr
        else:
            assert a.dtype == e.dtype and a.shape == e.shape
            assert a.tobytes() == e.tobytes()


def assert_matches_reference(problem, demand_qps, mode, **kwargs):
    restrict = mode == HARDWARE_SCALING
    model, _ = problem._build_model(demand_qps, mode, restrict_to_best=restrict, **kwargs)
    reference = reference_model(problem, demand_qps, mode, **kwargs)
    expected = reference.to_matrix()
    assert model.variable_names == expected.variable_names
    assert model.objective_sign == expected.objective_sign
    assert model.senses == expected.senses
    assert_same_bytes((model.A, model.rhs), (expected.A, expected.rhs))
    assert_same_bytes(model.to_standard_form(), reference.to_standard_form())
    assert_same_bytes(model.sparse_form(), expected.sparse_form())
    assert_same_bytes(model.bounds_arrays(), expected.bounds_arrays())
    assert model.integer_indices == expected.integer_indices
    assert fingerprint_model(model) == fingerprint_model(expected)


def pruned_branch_pipeline() -> Pipeline:
    """detect -> {fast (0.6), slow (0.4)}: every path through ``slow`` is too slow."""
    registry = ProfileRegistry()
    registry.register("detect", make_variant("det", beta=5.0, factor=2.0, family="det"))
    registry.register("fast", make_variant("fast", beta=2.0, family="fast"))
    registry.register("slow", make_variant("slow", alpha=400.0, family="slow"))
    return Pipeline(
        "pruned",
        [Task("detect"), Task("fast"), Task("slow")],
        [Edge("detect", "fast", 0.6), Edge("detect", "slow", 0.4)],
        registry,
        latency_slo_ms=200.0,
    )


PIPELINES = {
    "traffic_analysis": lambda: traffic_analysis_pipeline(latency_slo_ms=250.0),
    "social_media": lambda: social_media_pipeline(latency_slo_ms=250.0),
}


@pytest.fixture(params=sorted(PIPELINES))
def paper_problem(request):
    problem = AllocationProblem(PIPELINES[request.param](), num_workers=20, multiplicative_factors={})
    assert problem.config_paths(), "the parity cases need latency-feasible paths"
    return problem


class TestAssemblyMatchesReference:
    def test_hardware(self, paper_problem):
        assert_matches_reference(paper_problem, 120.0, HARDWARE_SCALING)

    def test_accuracy(self, paper_problem):
        assert_matches_reference(paper_problem, 150.0, ACCURACY_SCALING)

    def test_accuracy_with_preferred_variants(self, paper_problem):
        variants = {c.variant.name for c in paper_problem.configurations()}
        preferred = set(sorted(variants)[::2])
        assert_matches_reference(paper_problem, 150.0, ACCURACY_SCALING, preferred_variants=preferred)

    def test_accuracy_with_floor(self, paper_problem):
        assert_matches_reference(paper_problem, 150.0, ACCURACY_SCALING, accuracy_floor=0.8)

    def test_max_throughput(self, paper_problem):
        assert_matches_reference(paper_problem, None, "max_throughput")

    def test_max_throughput_with_floor(self, paper_problem):
        assert_matches_reference(paper_problem, None, "max_throughput", accuracy_floor=0.8)

    def test_coupling_rows_are_covered(self):
        """traffic_analysis fans out, so its models carry coupling rows."""
        problem = AllocationProblem(traffic_analysis_pipeline(), num_workers=20)
        model, _ = problem._build_model(100.0, ACCURACY_SCALING, restrict_to_best=False)
        demand_rows = len(problem._task_paths)
        assert sum(sense is Sense.EQ for sense in model.senses) > demand_rows

    @pytest.mark.parametrize("mode, demand", [(HARDWARE_SCALING, 30.0), (ACCURACY_SCALING, 30.0),
                                              ("max_throughput", None)])
    def test_fully_pruned_branch(self, mode, demand):
        problem = AllocationProblem(pruned_branch_pipeline(), num_workers=8)
        assert {p.branch_index for p in problem.config_paths()} == {0}
        assert_matches_reference(problem, demand, mode)

    @pytest.mark.parametrize("mode, demand", [(HARDWARE_SCALING, 30.0), (ACCURACY_SCALING, 30.0),
                                              ("max_throughput", None)])
    def test_every_path_pruned(self, small_pipeline, mode, demand):
        problem = AllocationProblem(small_pipeline, num_workers=10, latency_slo_ms=10.0)
        assert problem.config_paths() == []
        assert_matches_reference(problem, demand, mode)
