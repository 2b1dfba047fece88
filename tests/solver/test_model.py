"""Tests for the MILP modelling layer (variables, expressions, constraints)."""


import numpy as np
import pytest
from scipy import sparse

from repro.solver.model import INFEASIBLE, OPTIMAL, LinExpr, Model, Sense, Solution


class TestVariable:
    def test_add_var_assigns_indices_in_order(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        assert (x.index, y.index) == (0, 1)

    def test_duplicate_name_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ValueError):
            m.add_var("x")

    def test_inconsistent_bounds_rejected(self):
        m = Model()
        with pytest.raises(ValueError):
            m.add_var("x", lb=5, ub=1)

    def test_get_var_by_name(self):
        m = Model()
        x = m.add_var("x")
        assert m.get_var("x") is x

    def test_variable_equality_and_hash(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        assert x == x
        assert not (x == y)
        assert len({x, y, x}) == 2


class TestLinExpr:
    def test_scalar_addition_and_multiplication(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        expr = 2 * x + 3 * y + 5
        assert expr.coeffs == {0: 2.0, 1: 3.0}
        assert expr.constant == 5.0

    def test_subtraction_and_negation(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        expr = x - 2 * y
        assert expr.coeffs == {0: 1.0, 1: -2.0}
        neg = -expr
        assert neg.coeffs == {0: -1.0, 1: 2.0}

    def test_rsub_with_scalar(self):
        m = Model()
        x = m.add_var("x")
        expr = 10 - x
        assert expr.constant == 10.0
        assert expr.coeffs == {0: -1.0}

    def test_combining_terms_on_same_variable(self):
        m = Model()
        x = m.add_var("x")
        expr = x + 2 * x + x * 3
        assert expr.coeffs == {0: 6.0}

    def test_value_evaluation(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        expr = 2 * x + y + 1
        assert expr.value([3.0, 4.0]) == pytest.approx(11.0)

    def test_from_terms(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        expr = LinExpr.from_terms([(x, 1.5), (y, -2.0)], constant=4.0)
        assert expr.coeffs == {0: 1.5, 1: -2.0}
        assert expr.constant == 4.0

    def test_multiplying_by_expression_is_rejected(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        with pytest.raises(TypeError):
            (x + 1) * (y + 1)

    def test_scaling_by_numpy_scalar(self):
        m = Model()
        x = m.add_var("x")
        expr = np.float64(2.5) * x
        assert expr.coeffs == {0: 2.5}


class TestConstraint:
    def test_le_constraint_normalisation_folds_constant(self):
        m = Model()
        x = m.add_var("x")
        con = (x + 3) <= 10
        coeffs, sense, rhs = con.normalised()
        assert sense is Sense.LE
        assert rhs == pytest.approx(7.0)
        assert coeffs == {0: 1.0}

    def test_ge_and_eq_senses(self):
        m = Model()
        x = m.add_var("x")
        assert ((x * 1.0) >= 2).sense is Sense.GE
        assert ((x * 1.0) == 2).sense is Sense.EQ

    def test_violation_measurement(self):
        m = Model()
        x = m.add_var("x")
        con = (2 * x) <= 4
        assert con.violation([1.0]) == 0.0
        assert con.violation([3.0]) == pytest.approx(2.0, abs=1e-6)

    def test_add_constraint_requires_constraint_object(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(TypeError):
            m.add_constraint(42)  # type: ignore[arg-type]

    def test_constraint_names_are_assigned(self):
        m = Model()
        x = m.add_var("x")
        c1 = m.add_constraint(x <= 1)
        c2 = m.add_constraint(x <= 2, name="cap")
        assert c1.name == "c0"
        assert c2.name == "cap"


class TestStandardForm:
    def test_objective_sign_for_maximisation(self):
        m = Model()
        x = m.add_var("x", ub=10)
        m.maximize(3 * x)
        c, *_ = m.to_standard_form()
        assert c[0] == -3.0  # flipped for minimisation

    def test_constraint_matrices_shapes(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        m.add_constraint(x + y <= 5)
        m.add_constraint(x - y >= 1)
        m.add_constraint(x + 2 * y == 3)
        m.minimize(x + y)
        _, A_ub, b_ub, A_eq, b_eq, integrality = m.to_standard_form()
        assert A_ub.shape == (2, 2)
        assert A_eq.shape == (1, 2)
        # GE constraints are negated into <= form.
        assert b_ub[1] == pytest.approx(-1.0)
        assert list(integrality) == [0, 0]

    def test_integrality_vector(self):
        m = Model()
        m.add_var("x", integer=True)
        m.add_var("y")
        *_, integrality = m.to_standard_form()
        assert list(integrality) == [1, 0]

    def test_to_matrix_is_canonical_csr(self):
        """Rows are CSR with sorted columns and no explicit zeros -- what
        ``scipy.sparse.csr_matrix`` makes of the dense rows -- and a
        constraint's constant moves to the right-hand side."""
        m = Model()
        x, y, z = m.add_var("x"), m.add_var("y"), m.add_var("z")
        m.add_constraint(z * 2.0 + x * 0.0 + y - 1 <= 4)  # z before y, an explicit 0 * x
        m.add_constraint(x - x + y >= 1)  # x cancels to a zero coefficient
        m.minimize(x + y)
        matrix = m.to_matrix()
        dense = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 0.0]])
        expected = sparse.csr_matrix(dense)
        assert matrix.A.indptr.tobytes() == expected.indptr.tobytes()
        assert matrix.A.indices.tobytes() == expected.indices.tobytes()
        assert matrix.A.data.tobytes() == expected.data.tobytes()
        assert matrix.senses == [Sense.LE, Sense.GE]
        assert list(matrix.rhs) == [5.0, 1.0]
        assert m.to_matrix() is matrix  # cached until the model changes
        m.add_var("w")
        assert m.to_matrix() is not matrix

    def test_is_feasible_point_checks_bounds_integrality_constraints(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=5, integer=True)
        y = m.add_var("y", lb=0)
        m.add_constraint(x + y <= 4)
        assert m.is_feasible_point([2, 1.5])
        assert not m.is_feasible_point([2.5, 0.0])  # fractional integer
        assert not m.is_feasible_point([6, 0.0])  # above ub
        assert not m.is_feasible_point([3, 2.0])  # violates constraint
        assert not m.is_feasible_point([1.0])  # wrong shape

    def test_make_solution_reports_objective_and_values(self):
        m = Model()
        x = m.add_var("x")
        m.maximize(2 * x + 1)
        sol = m.to_matrix().make_solution(np.array([3.0]))
        assert sol.objective == pytest.approx(7.0)
        assert sol["x"] == pytest.approx(3.0)
        assert sol.get(x) == pytest.approx(3.0)


class TestSolution:
    def test_solution_flags(self):
        assert Solution(status=OPTIMAL).is_optimal
        assert not Solution(status=INFEASIBLE).is_feasible

    def test_get_with_default(self):
        sol = Solution(status=OPTIMAL, values={"x": 2.0})
        assert sol.get("missing", 7.0) == 7.0
        assert sol["x"] == 2.0
