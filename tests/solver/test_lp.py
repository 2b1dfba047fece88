"""HiGHS on pure LPs: hand-solved edge cases and a vertex-enumeration oracle.

Allocation models with every variable continuous reach HiGHS as LPs, and the
modelling layer's equality rows, shifted lower bounds and negative right-hand
sides all pass through :meth:`repro.solver.Model.to_standard_form` on the way.
The random families are checked against
:func:`tests.solver.reference.vertex_lp_solve`, which solves no LP at all.
"""

import numpy as np
import pytest

from repro.solver import INFEASIBLE, OPTIMAL, UNBOUNDED, LinExpr, Model, solve
from tests.solver.reference import vertex_lp_solve


def lp_model(c, A_ub=(), b_ub=(), A_eq=(), b_eq=(), lb=None, ub=None, maximize=False) -> Model:
    """``opt c @ x`` s.t. ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``, ``lb <= x <= ub``."""
    n = len(c)
    lb = np.zeros(n) if lb is None else lb
    ub = np.full(n, np.inf) if ub is None else ub
    model = Model("lp")
    xs = [model.add_var(f"x{j}", lb=float(lb[j]), ub=float(ub[j])) for j in range(n)]

    def row(coeffs) -> LinExpr:
        return LinExpr.from_terms(zip(xs, (float(a) for a in coeffs)))

    for coeffs, rhs in zip(A_ub, b_ub):
        model.add_constraint(row(coeffs) <= float(rhs))
    for coeffs, rhs in zip(A_eq, b_eq):
        model.add_constraint(row(coeffs) == float(rhs))
    (model.maximize if maximize else model.minimize)(row(c))
    return model


class TestHighsLpEdgeCases:
    def test_simple_maximisation(self):
        # max x + 2y s.t. x + y <= 4, x <= 3: optimum 8 at (0, 4)
        solution = solve(lp_model([1.0, 2.0], A_ub=[[1, 1], [1, 0]], b_ub=[4, 3], maximize=True), cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(8.0, abs=1e-7)
        assert solution["x1"] == pytest.approx(4.0, abs=1e-7)

    def test_equality_constraints(self):
        # min x + y s.t. x + y = 5, x - y = 1: the unique point (3, 2)
        solution = solve(lp_model([1.0, 1.0], A_eq=[[1, 1], [1, -1]], b_eq=[5, 1]), cache=False)
        assert solution.status == OPTIMAL
        assert solution["x0"] == pytest.approx(3.0, abs=1e-7)
        assert solution["x1"] == pytest.approx(2.0, abs=1e-7)

    def test_upper_bounds_respected(self):
        solution = solve(lp_model([1.0], ub=[2.5], maximize=True), cache=False)
        assert solution.status == OPTIMAL
        assert solution["x0"] == pytest.approx(2.5, abs=1e-7)

    def test_shifted_lower_bounds(self):
        solution = solve(lp_model([1.0], lb=[3.0], ub=[10.0]), cache=False)
        assert solution.status == OPTIMAL
        assert solution["x0"] == pytest.approx(3.0, abs=1e-7)

    def test_infeasible_problem(self):
        # x <= 1 and x == 5
        solution = solve(lp_model([1.0], A_ub=[[1.0]], b_ub=[1.0], A_eq=[[1.0]], b_eq=[5.0]), cache=False)
        assert solution.status == INFEASIBLE

    def test_unbounded_problem(self):
        # max x over x >= 0: an LP, so HiGHS proves unboundedness exactly
        solution = solve(lp_model([1.0], maximize=True), cache=False)
        assert solution.status == UNBOUNDED

    def test_bounds_contradicted_by_row(self):
        # x in [4, 10] and x <= 1
        solution = solve(lp_model([1.0], A_ub=[[1.0]], b_ub=[1.0], lb=[4.0], ub=[10.0]), cache=False)
        assert solution.status == INFEASIBLE

    def test_negative_rhs_handled(self):
        # x - y <= -1 means y >= x + 1; min y: y = 1
        solution = solve(lp_model([0.0, 1.0], A_ub=[[1, -1]], b_ub=[-1]), cache=False)
        assert solution.status == OPTIMAL
        assert solution["x1"] == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_problem_terminates(self):
        # Redundant rows are all active at the optimum.
        model = lp_model(
            [1.0, 1.0], A_ub=[[1, 0], [1, 0], [0, 1], [1, 1]], b_ub=[2, 2, 2, 2], A_eq=[[1, 1]], b_eq=[2]
        )
        solution = solve(model, cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(2.0, abs=1e-7)
        assert model.is_feasible_point(solution.x)

    def test_negative_box(self):
        # max x + y over [-3, -1] x [-2, 5] with x + y <= 0: optimum 0
        model = lp_model([1.0, 1.0], A_ub=[[1, 1]], b_ub=[0.0], lb=[-3.0, -2.0], ub=[-1.0, 5.0], maximize=True)
        solution = solve(model, cache=False)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(0.0, abs=1e-7)
        assert solution["x0"] <= -1.0 + 1e-7


def random_lp(seed: int, num_eq: int):
    """A feasible-by-construction LP over a finite box, as plain arrays.

    A point ``x0`` strictly inside the box is drawn first; every inequality
    row keeps positive slack at ``x0`` and every equality row passes through
    it.  With equality rows the box is shifted below zero.
    """
    rng = np.random.default_rng(seed)
    n, m = 5, 4 - num_eq
    lb = np.zeros(n) if num_eq == 0 else rng.uniform(-2.0, 0.0, size=n)
    ub = lb + 10.0
    x0 = rng.uniform(lb + 0.5, lb + 2.0)
    A_ub = rng.uniform(0.1, 2.0, size=(m, n))
    b_ub = A_ub @ x0 + rng.uniform(0.5, 1.0, size=m)
    A_eq = rng.uniform(-1.0, 2.0, size=(num_eq, n))
    b_eq = A_eq @ x0
    c = rng.uniform(-1.0, 1.0, size=n)
    return c, A_ub, b_ub, A_eq, b_eq, lb, ub, bool(seed % 2)


class TestHighsMatchesVertexReference:
    @staticmethod
    def check(arrays):
        c, A_ub, b_ub, A_eq, b_eq, lb, ub, maximize = arrays
        model = lp_model(c, A_ub, b_ub, A_eq, b_eq, lb, ub, maximize)
        status, objective = vertex_lp_solve(c, A_ub, b_ub, A_eq, b_eq, lb, ub, maximize)
        solution = solve(model, cache=False)
        assert status == solution.status == OPTIMAL
        assert solution.objective == pytest.approx(objective, abs=1e-6)
        assert model.is_feasible_point(solution.x)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_inequality_lps(self, seed):
        self.check(random_lp(seed, num_eq=0))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_lps_with_equalities_and_shifted_bounds(self, seed):
        self.check(random_lp(seed, num_eq=2))


class TestVertexReferenceOnHandSolvedLps:
    """The oracle itself, on LPs whose answers are known by hand."""

    NO_ROWS = (np.zeros((0, 2)), np.zeros(0))

    def test_maximisation(self):
        # max x + 2y s.t. x + y <= 4, x <= 3 in [0, 10]^2: optimum 8
        result = vertex_lp_solve(
            np.array([1.0, 2.0]), np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([4.0, 3.0]),
            *self.NO_ROWS, np.zeros(2), np.full(2, 10.0), maximize=True,
        )
        assert result == (OPTIMAL, pytest.approx(8.0))

    def test_equalities_pin_the_point(self):
        # min x + y s.t. x + y = 5, x - y = 1: optimum 5 at (3, 2)
        result = vertex_lp_solve(
            np.array([1.0, 1.0]), *self.NO_ROWS, np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([5.0, 1.0]),
            np.zeros(2), np.full(2, 10.0), maximize=False,
        )
        assert result == (OPTIMAL, pytest.approx(5.0))

    def test_infeasible(self):
        # x <= 1 and x == 5
        status, _ = vertex_lp_solve(
            np.array([1.0]), np.array([[1.0]]), np.array([1.0]), np.array([[1.0]]), np.array([5.0]),
            np.zeros(1), np.full(1, 10.0), maximize=False,
        )
        assert status == INFEASIBLE
