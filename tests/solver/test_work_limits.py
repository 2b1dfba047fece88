"""Deterministic solver work limits (HiGHS node budgets).

Wall-clock limits make MILP results depend on machine load: a solve that
terminates on ``time_limit`` returns whatever incumbent it happened to reach
in the allotted seconds.  HiGHS's ``node_limit`` bounds the *work*, not the
wall clock, so a budgeted solve returns the same plan on any machine — which
is what lets full-grid fig5-style allocation MILPs run reproducibly (the
parity suite previously had to restrict the batch grid to keep every solve
under the wall clock).
"""

import numpy as np

from repro.core.allocation import AllocationProblem, build_accuracy_scaling_model
from repro.solver import LinExpr, Model, OPTIMAL, ScipyMilpBackend, solve
from repro.zoo import traffic_analysis_pipeline


def knapsack_model(num_items: int = 14, seed: int = 3) -> Model:
    """A dense 0/1-style knapsack MILP that needs real branching."""
    rng = np.random.default_rng(seed)
    model = Model("knapsack")
    values = rng.uniform(1.0, 10.0, size=num_items)
    weights = rng.uniform(1.0, 8.0, size=num_items)
    xs = [model.add_var(f"x{i}", ub=3.0, integer=True) for i in range(num_items)]
    expr = xs[0] * float(weights[0])
    obj = xs[0] * float(values[0])
    for i in range(1, num_items):
        expr = expr + xs[i] * float(weights[i])
        obj = obj + xs[i] * float(values[i])
    model.add_constraint(expr <= float(weights.sum() * 0.9))
    model.maximize(obj)
    return model


def multi_knapsack_model(num_items: int = 40, num_rows: int = 5, seed: int = 0) -> Model:
    """A binary multi-dimensional knapsack that HiGHS cannot close at the root."""
    rng = np.random.default_rng(seed)
    model = Model("multi-knapsack")
    xs = [model.add_var(f"x{i}", ub=1.0, integer=True) for i in range(num_items)]
    weights = rng.integers(10, 100, size=(num_rows, num_items))
    values = rng.integers(10, 100, size=num_items)
    for row in weights:
        model.add_constraint(LinExpr.from_terms(zip(xs, map(float, row))) <= float(row.sum() // 2))
    model.maximize(LinExpr.from_terms(zip(xs, map(float, values))))
    return model


class TestHighsNodeBudget:
    #: no wall clock and no gap: only the node budget can stop the search
    BUDGET = {"time_limit": None, "mip_rel_gap": 0.0, "node_limit": 1}

    def test_node_budget_stops_before_the_proof(self):
        model = multi_knapsack_model()
        solution = ScipyMilpBackend(**self.BUDGET).solve(model.to_matrix())
        # The root's incumbent comes back, but unproven.
        assert solution.status == OPTIMAL
        assert solution.info["optimal_proven"] is False
        assert model.is_feasible_point(solution.x)

    def test_unbudgeted_solve_proves_optimality(self):
        model = multi_knapsack_model()
        proven = ScipyMilpBackend(time_limit=None, mip_rel_gap=0.0).solve(model.to_matrix())
        budgeted = ScipyMilpBackend(**self.BUDGET).solve(model.to_matrix())
        assert proven.status == OPTIMAL
        assert proven.info["optimal_proven"] is True
        assert proven.objective >= budgeted.objective - 1e-9

    def test_node_budgeted_solve_is_deterministic(self):
        """A solve stopped by the node budget, not by the clock, returns the
        same incumbent every time."""
        first, second = (ScipyMilpBackend(**self.BUDGET).solve(multi_knapsack_model().to_matrix()) for _ in range(2))
        assert first.info["optimal_proven"] is second.info["optimal_proven"] is False
        assert first.objective == second.objective
        assert np.array_equal(first.x, second.x)


class TestScipyNodeLimit:
    def test_node_limit_option_accepted_and_deterministic(self):
        model = knapsack_model()
        first = ScipyMilpBackend(node_limit=10_000).solve(model.to_matrix())
        second = ScipyMilpBackend(node_limit=10_000).solve(model.to_matrix())
        assert first.status == OPTIMAL
        assert first.objective == second.objective
        assert np.array_equal(first.x, second.x)

    def test_node_limit_flows_through_solver_options(self):
        """ControllerConfig.solver_options-style kwargs reach the backend."""
        solution = solve(knapsack_model(), cache=False, mip_rel_gap=2e-3, node_limit=50_000)
        assert solution.status == OPTIMAL


class TestFullGridAllocationDeterminism:
    #: deterministic (wall-clock-free) HiGHS options: the work is bounded
    #: by a node budget instead of seconds
    DETERMINISTIC_OPTIONS = {"time_limit": None, "node_limit": 20_000, "mip_rel_gap": 2e-3}

    def test_full_batch_grid_fig5_milp_is_reproducible(self):
        """The fig5-shaped accuracy-scaling MILP on the *unrestricted* batch
        grid, solved under a deterministic node budget (no wall clock),
        returns an identical plan on repeated solves — removing the
        machine-load dependence the parity suite's restricted-batch-grid
        caveat worked around."""
        pipeline = traffic_analysis_pipeline(latency_slo_ms=250.0)
        problem = AllocationProblem(
            pipeline,
            num_workers=20,
            latency_slo_ms=250.0,
            solver_options=dict(self.DETERMINISTIC_OPTIONS),
        )
        demand = problem.max_supported_demand(restrict_to_best=True).max_demand_qps * 2.5
        model = build_accuracy_scaling_model(problem, demand)

        solutions = [
            solve(model, cache=False, **self.DETERMINISTIC_OPTIONS)
            for _ in range(2)
        ]
        first, second = solutions
        assert first.status == OPTIMAL
        assert first.objective == second.objective
        assert np.array_equal(first.x, second.x)

    def test_controller_accepts_deterministic_solver_options(self):
        """A Controller configured with work-limited solver options produces
        an identical full-grid plan on a rebuilt controller (end to end,
        no wall-clock dependence)."""
        from repro.core import Controller, ControllerConfig

        plans = []
        for _ in range(2):
            pipeline = traffic_analysis_pipeline(latency_slo_ms=250.0)
            config = ControllerConfig(
                num_workers=20,
                latency_slo_ms=250.0,
                solver_options=dict(self.DETERMINISTIC_OPTIONS),
            )
            controller = Controller(pipeline, config)
            controller.report_demand(0.0, 60.0)
            plan, routing = controller.step(0.0, force=True)
            assert plan is not None and plan.allocations
            assert routing is not None
            plans.append(
                sorted((a.task, a.variant_name, a.batch_size, a.replicas) for a in plan.allocations)
            )
        assert plans[0] == plans[1]
