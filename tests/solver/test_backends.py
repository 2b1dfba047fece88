"""Tests for the HiGHS backend and the :func:`repro.solver.solve` entry point,
on small models with hand-computed optima."""


import pytest

from repro.core import ControllerConfig
from repro.core.allocation import AllocationProblem
from repro.core.resource_manager import ResourceManager
from repro.scenarios import get_scenario
from repro.scenarios.spec import SYSTEM_FACTORIES
from repro.solver import (
    INFEASIBLE,
    Model,
    OPTIMAL,
    ScipyMilpBackend,
    SolutionCache,
    UNBOUNDED,
    solve,
)


def knapsack_model():
    """max 10a + 6b + 4c subject to a+b+c<=2, 5a+4b+3c<=8, binary vars; optimum 14 (a=c=1)."""
    m = Model("knapsack")
    a = m.add_var("a", ub=1, integer=True)
    b = m.add_var("b", ub=1, integer=True)
    c = m.add_var("c", ub=1, integer=True)
    m.add_constraint(a + b + c <= 2)
    m.add_constraint(5 * a + 4 * b + 3 * c <= 8)
    m.maximize(10 * a + 6 * b + 4 * c)
    return m


def covering_model():
    """min x + y subject to 3x + 2y >= 12, x,y integer >= 0; optimum 5 (x=4,y=0 is 4... check).

    Actually 3x+2y>=12 with min x+y: x=4,y=0 gives 4; x=2,y=3 gives 5 -> optimum is 4.
    """
    m = Model("covering")
    x = m.add_var("x", integer=True)
    y = m.add_var("y", integer=True)
    m.add_constraint(3 * x + 2 * y >= 12)
    m.minimize(x + y)
    return m


def lp_model():
    """Pure LP: max x + 2y s.t. x + y <= 4, x <= 3; optimum 8 at (0, 4)."""
    m = Model("lp")
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constraint(x + y <= 4)
    m.add_constraint(x * 1.0 <= 3)
    m.maximize(x + 2 * y)
    return m


def infeasible_model():
    m = Model("infeasible")
    x = m.add_var("x", lb=0, ub=10, integer=True)
    m.add_constraint(x * 1.0 >= 5)
    m.add_constraint(x * 1.0 <= 3)
    m.minimize(x * 1.0)
    return m


class TestScipyBackend:
    def test_knapsack_optimum(self):
        solution = ScipyMilpBackend().solve(knapsack_model().to_matrix())
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(14.0, abs=1e-6)
        assert solution["a"] == pytest.approx(1.0)
        assert solution["c"] == pytest.approx(1.0)

    def test_covering_optimum(self):
        solution = ScipyMilpBackend().solve(covering_model().to_matrix())
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(4.0, abs=1e-6)

    def test_lp_optimum(self):
        solution = ScipyMilpBackend().solve(lp_model().to_matrix())
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(8.0, abs=1e-6)

    def test_infeasible_detected(self):
        solution = ScipyMilpBackend().solve(infeasible_model().to_matrix())
        assert solution.status == INFEASIBLE

    def test_solution_is_feasible_point(self):
        model = knapsack_model()
        solution = ScipyMilpBackend().solve(model.to_matrix())
        assert model.is_feasible_point(solution.x)

    def test_mixed_integer_continuous(self):
        m = Model("mixed")
        x = m.add_var("x", integer=True, ub=10)
        y = m.add_var("y", ub=10)
        m.add_constraint(x + y <= 7.5)
        m.maximize(2 * x + y)
        solution = ScipyMilpBackend().solve(m.to_matrix())
        assert solution.status == OPTIMAL
        assert solution["x"] == pytest.approx(7.0)
        assert solution["y"] == pytest.approx(0.5, abs=1e-6)

    def test_empty_model(self):
        solution = ScipyMilpBackend().solve(Model("empty").to_matrix())
        assert solution.status == OPTIMAL

    def test_unbounded_detection(self):
        m = Model("unbounded")
        x = m.add_var("x")
        m.maximize(x * 1.0)
        solution = ScipyMilpBackend().solve(m.to_matrix())
        assert solution.status in (UNBOUNDED, INFEASIBLE)

    def test_integer_values_are_snapped(self):
        solution = ScipyMilpBackend().solve(covering_model().to_matrix())
        assert solution["x"] == int(solution["x"])
        assert solution["y"] == int(solution["y"])

    def test_runtime_reported(self):
        solution = ScipyMilpBackend().solve(knapsack_model().to_matrix())
        assert solution.info["backend"] == "scipy-highs"
        assert solution.info["runtime_s"] >= 0


class TestSolve:
    def test_solves_with_highs(self):
        solution = solve(knapsack_model(), cache=False)
        assert solution.status == OPTIMAL
        assert solution.info["backend"] == "scipy-highs"

    def test_options_reach_highs(self):
        solution = solve(covering_model(), cache=False, mip_rel_gap=1e-3, node_limit=1_000)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(4.0, abs=1e-6)

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            solve(knapsack_model(), relative_gap=1e-3)


def cluster_cap_model():
    """min x + y s.t. x + y <= 3, 2x + y >= 4, integer: optimum 2 at (2, 0)."""
    m = Model("cap")
    x = m.add_var("x", integer=True)
    y = m.add_var("y", integer=True)
    m.add_constraint(x + y <= 3)
    m.add_constraint(2 * x + y >= 4)
    m.minimize(x + y)
    return m


class TestHighsOnHandModels:
    def test_cluster_style_cap(self):
        model = cluster_cap_model()
        solution = solve(model, cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(2.0, abs=1e-6)
        assert model.is_feasible_point(solution.x)

    def test_covering_solution_is_feasible_point(self):
        model = covering_model()
        solution = solve(model, cache=False)
        assert model.is_feasible_point(solution.x)
        assert 3 * solution["x"] + 2 * solution["y"] >= 12

    def test_proven_optimum_reports_its_gap(self):
        solution = solve(knapsack_model(), cache=False)
        assert solution.info["optimal_proven"] is True
        assert solution.info["mip_gap"] <= 1e-6


HAND_MODELS = {
    "knapsack": knapsack_model,
    "covering": covering_model,
    "lp": lp_model,
    "infeasible": infeasible_model,
    "cluster_cap": cluster_cap_model,
}


@pytest.mark.parametrize("name", sorted(HAND_MODELS))
def test_cached_solve_matches_uncached(name):
    """A cache miss stores, and a hit replays, exactly what HiGHS returned --
    statuses without a point included."""
    cache = SolutionCache(maxsize=4)
    uncached = solve(HAND_MODELS[name](), cache=False)
    miss = solve(HAND_MODELS[name](), cache=cache)
    hit = solve(HAND_MODELS[name](), cache=cache)
    assert (miss.info["cache"], hit.info["cache"]) == ("miss", "hit")
    for solution in (miss, hit):
        assert solution.status == uncached.status
        assert solution.values == uncached.values
        if uncached.status == OPTIMAL:
            assert solution.objective == uncached.objective


REMOVED_KNOBS = {"solver_backend": "bnb", "solver_warm_start": False}


def _build_every_system(small_pipeline, knob):
    for system in sorted(SYSTEM_FACTORIES):
        get_scenario("smoke").with_overrides(system=system, control_overrides=knob).build(seed=0)


REMOVED_KNOB_LAYERS = {
    "ControllerConfig": lambda small_pipeline, knob: ControllerConfig(**knob),
    "ResourceManager": lambda small_pipeline, knob: ResourceManager(small_pipeline, num_workers=8, **knob),
    "AllocationProblem": lambda small_pipeline, knob: AllocationProblem(small_pipeline, num_workers=8, **knob),
    "control_overrides": _build_every_system,
}


@pytest.mark.parametrize("layer", sorted(REMOVED_KNOB_LAYERS))
@pytest.mark.parametrize("knob", sorted(REMOVED_KNOBS))
def test_removed_solver_knobs_fail_loudly(knob, layer, small_pipeline):
    """Backend selection and warm starts are not options: asking for them is
    an error at every layer, never a silent fall-through to HiGHS."""
    with pytest.raises(TypeError):
        REMOVED_KNOB_LAYERS[layer](small_pipeline, {knob: REMOVED_KNOBS[knob]})


@pytest.mark.parametrize("argument", [{"backend": "bnb"}, {"warm_start": {"a": 1.0}}], ids=["backend", "warm_start"])
def test_solve_rejects_removed_arguments(argument):
    with pytest.raises(TypeError):
        solve(knapsack_model(), **argument)
