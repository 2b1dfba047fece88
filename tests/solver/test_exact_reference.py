"""HiGHS against an exact enumeration oracle on random bounded MILPs (hypothesis).

Every family is small enough for :func:`tests.solver.reference.reference_solve`
to enumerate all integer points, so each HiGHS answer -- status and
objective -- is checked against a solve that shares no search code with it.
The families cover the three outcomes a solve can have: feasible by
construction, possibly infeasible, and feasible with an unbounded
continuous direction that may or may not improve the objective.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import AllocationProblem, build_hardware_scaling_model
from repro.solver import INFEASIBLE, OPTIMAL, UNBOUNDED, ScipyMilpBackend
from tests.solver.reference import BoxMilp, reference_solve

FEASIBLE, MAYBE_INFEASIBLE, WITH_RAY = "feasible", "maybe_infeasible", "with_ray"


def _tol(reference: float) -> float:
    """Agreement tolerance: HiGHS stops at a 1e-6 relative MIP gap."""
    return 1e-6 + 1e-5 * abs(reference)


def random_box_milp(seed: int, num_vars: int, num_cons: int, with_continuous: bool, family: str = FEASIBLE) -> BoxMilp:
    """A random packing/covering MILP over a small integer box.

    An integer point ``x0`` is drawn first and every row's rhs is set to
    ``A @ x0 + slack``.  With ``family=FEASIBLE`` the slack is non-negative,
    so ``x0`` is feasible whatever the coefficients; ``MAYBE_INFEASIBLE``
    draws slacks that may be negative; ``WITH_RAY`` appends one continuous
    variable without an upper bound to a feasible instance.
    """
    rng = np.random.default_rng(seed)
    ub = rng.integers(1, 6, size=num_vars).astype(float)
    integer = np.ones(num_vars, dtype=bool) if not with_continuous else rng.random(num_vars) < 0.7
    x0 = np.array([rng.integers(0, u + 1) for u in ub.astype(int)], dtype=float)

    A = rng.uniform(-2.0, 3.0, size=(num_cons, num_vars))
    slack_low, slack_high = (-3.0, 1.0) if family == MAYBE_INFEASIBLE else (0.0, 2.0)
    b = A @ x0 + rng.uniform(slack_low, slack_high, size=num_cons)
    c = rng.uniform(0.2, 3.0, size=num_vars)
    maximize = bool(rng.random() < 0.5)
    if family == WITH_RAY:
        A = np.hstack([A, rng.uniform(-3.0, 1.0, size=(num_cons, 1))])
        c = np.append(c, rng.uniform(-1.0, 3.0))
        ub = np.append(ub, np.inf)
        integer = np.append(integer, False)
    return BoxMilp(c=c, A=A, b=b, ub=ub, integer=integer, maximize=maximize)


def assert_highs_matches_reference(problem: BoxMilp) -> str:
    """Solve ``problem`` with HiGHS and the oracle; return the oracle's status."""
    model = problem.to_model()
    status, objective = reference_solve(problem)
    solution = ScipyMilpBackend().solve(model.to_matrix())
    # With presolve on, HiGHS may certify an unbounded MILP only as
    # "unbounded or infeasible"; the backend's re-solve without presolve
    # must still report the exact status.
    assert solution.status == status, (solution.status, solution.info["message"])
    if status == OPTIMAL:
        assert model.is_feasible_point(solution.x)
        assert solution.objective == pytest.approx(objective, abs=_tol(objective))
    return status


milp_shapes = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    num_vars=st.integers(min_value=2, max_value=8),
    num_cons=st.integers(min_value=1, max_value=6),
    with_continuous=st.booleans(),
)


class TestHighsMatchesExactReference:
    @settings(max_examples=20, deadline=None)
    @given(**milp_shapes)
    def test_feasible_milps(self, seed, num_vars, num_cons, with_continuous):
        problem = random_box_milp(seed, num_vars, num_cons, with_continuous, FEASIBLE)
        assert assert_highs_matches_reference(problem) == OPTIMAL  # feasible by construction

    @settings(max_examples=20, deadline=None)
    @given(**milp_shapes)
    def test_possibly_infeasible_milps(self, seed, num_vars, num_cons, with_continuous):
        problem = random_box_milp(seed, num_vars, num_cons, with_continuous, MAYBE_INFEASIBLE)
        assert assert_highs_matches_reference(problem) in (OPTIMAL, INFEASIBLE)

    @settings(max_examples=20, deadline=None)
    @given(**milp_shapes)
    def test_milps_with_an_unbounded_direction(self, seed, num_vars, num_cons, with_continuous):
        problem = random_box_milp(seed, num_vars, num_cons, with_continuous, WITH_RAY)
        assert assert_highs_matches_reference(problem) in (OPTIMAL, UNBOUNDED)

    @pytest.mark.parametrize(
        "family, outcomes", [(MAYBE_INFEASIBLE, {OPTIMAL, INFEASIBLE}), (WITH_RAY, {OPTIMAL, UNBOUNDED})]
    )
    def test_families_reach_every_outcome(self, family, outcomes):
        """The random families are not degenerate: each produces both of
        its outcomes, so the checks above exercise both."""
        seen = {reference_solve(random_box_milp(seed, 4, 3, True, family))[0] for seed in range(40)}
        assert seen == outcomes


class TestPresolveAmbiguity:
    def test_unbounded_or_infeasible_is_resolved(self):
        """Some WITH_RAY instances leave presolve at "unbounded or
        infeasible"; the re-solve without presolve reports them UNBOUNDED,
        as the oracle does."""
        retried = []
        for seed in range(20):
            problem = random_box_milp(seed, 4, 3, True, WITH_RAY)
            solution = ScipyMilpBackend().solve(problem.to_model().to_matrix())
            if solution.info.get("presolve_retry"):
                retried.append(seed)
                assert solution.status == reference_solve(problem)[0] == UNBOUNDED
        assert retried


class TestHighsMatchesReferenceOnAllocationMilps:
    """The hardware-scaling MILP the allocator builds, on a cluster small
    enough to enumerate: HiGHS must reach the true fewest-workers plan, and
    must call a demand above capacity infeasible."""

    @pytest.mark.parametrize("demand_qps", [10.0, 80.0, 150.0, 400.0])
    def test_hardware_scaling(self, small_pipeline, demand_qps):
        problem = AllocationProblem(small_pipeline, num_workers=4, latency_slo_ms=150.0)
        model = build_hardware_scaling_model(problem, demand_qps)
        c, A_ub, b_ub, A_eq, b_eq, integrality = model.to_standard_form()
        lb, ub = model.bounds_arrays()
        assert not lb.any()  # a BoxMilp box starts at zero
        status, objective = reference_solve(
            BoxMilp(
                c=c, A=np.vstack([A_ub, A_eq, -A_eq]), b=np.concatenate([b_ub, b_eq, -b_eq]),
                ub=ub, integer=integrality.astype(bool), maximize=False,
            )
        )
        solution = ScipyMilpBackend().solve(model)
        assert solution.status == status
        if status == OPTIMAL:
            assert model.is_feasible_point(solution.x)
            assert model.objective_sign * solution.objective == pytest.approx(objective, abs=_tol(objective))


class TestReferenceOnHandSolvedModels:
    """The oracle itself, on models whose answers are known by hand."""

    def test_knapsack(self):
        # max 10a + 6b + 4c s.t. a+b+c <= 2, 5a+4b+3c <= 8, binary: optimum 14 (a=c=1)
        problem = BoxMilp(
            c=np.array([10.0, 6.0, 4.0]), A=np.array([[1.0, 1.0, 1.0], [5.0, 4.0, 3.0]]),
            b=np.array([2.0, 8.0]), ub=np.ones(3), integer=np.ones(3, dtype=bool), maximize=True,
        )
        assert reference_solve(problem) == (OPTIMAL, pytest.approx(14.0))

    def test_mixed_integer(self):
        # max 2x + y s.t. x + y <= 7.5, x integer: optimum 14.5 at (7, 0.5)
        problem = BoxMilp(
            c=np.array([2.0, 1.0]), A=np.array([[1.0, 1.0]]), b=np.array([7.5]),
            ub=np.array([10.0, 10.0]), integer=np.array([True, False]), maximize=True,
        )
        assert reference_solve(problem) == (OPTIMAL, pytest.approx(14.5))

    def test_infeasible(self):
        # x >= 5 and x <= 3
        problem = BoxMilp(
            c=np.array([1.0]), A=np.array([[-1.0], [1.0]]), b=np.array([-5.0, 3.0]),
            ub=np.array([10.0]), integer=np.array([True]), maximize=False,
        )
        assert reference_solve(problem)[0] == INFEASIBLE

    def test_unbounded(self):
        # max x + y s.t. x - y <= 2, x integer in [0, 3], y >= 0 unbounded
        problem = BoxMilp(
            c=np.array([1.0, 1.0]), A=np.array([[1.0, -1.0]]), b=np.array([2.0]),
            ub=np.array([3.0, np.inf]), integer=np.array([True, False]), maximize=True,
        )
        assert reference_solve(problem)[0] == UNBOUNDED
