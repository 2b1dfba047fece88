"""Backend-agnostic modelling layer for (mixed-integer) linear programs.

The Loki resource manager formulates its hardware- and accuracy-scaling steps
as MILPs (Section 4.1 of the paper).  This module provides the small algebraic
modelling layer those formulations are written against.  It intentionally
mirrors the look-and-feel of commercial modelling APIs (``model.add_var``,
``expr <= rhs``, ``model.maximize``) so the allocation code in
:mod:`repro.core.allocation` reads close to the paper's notation, while the
actual solve is delegated to HiGHS (:mod:`repro.solver.scipy_backend`).

The solver reads a :class:`MatrixModel`: the rows as one CSR matrix plus
senses and right-hand sides.  :meth:`Model.to_matrix` converts the algebra
into one; code that builds the same family of MILPs many times (the
allocator) skips the algebra and assembles the matrices itself.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

__all__ = [
    "Sense",
    "Variable",
    "LinExpr",
    "Constraint",
    "Model",
    "MatrixModel",
    "Solution",
    "SolverError",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ERROR",
]

#: Solution status constants.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ERROR = "error"

Number = Union[int, float]

#: anything the algebra can combine with a variable or expression
ExprLike = Union["LinExpr", "Variable", int, float]

#: dense assignment vectors accepted by evaluation helpers
VectorLike = Union[Sequence[float], np.ndarray]

#: ``(c, A_ub, b_ub, A_eq, b_eq, integrality)`` minimisation matrices
StandardForm = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: :data:`StandardForm` with ``A_ub`` and ``A_eq`` as canonical CSR matrices
SparseForm = Tuple[np.ndarray, sparse.csr_matrix, np.ndarray, sparse.csr_matrix, np.ndarray, np.ndarray]


class SolverError(RuntimeError):
    """Raised when a backend cannot process the given model."""


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    Attributes
    ----------
    index:
        Position of the variable in the model's column ordering.
    name:
        Human-readable name, used in solutions and debugging output.
    lb, ub:
        Lower / upper bounds.  ``ub`` may be ``math.inf``.
    integer:
        Whether the variable is required to take integer values.
    """

    index: int
    name: str
    lb: float = 0.0
    ub: float = math.inf
    integer: bool = False

    # -- algebra ---------------------------------------------------------
    def to_expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    def __add__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() + other

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() + other

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self.to_expr() - other

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (-1.0) * self.to_expr() + other

    def __mul__(self, coeff: Number) -> "LinExpr":
        return self.to_expr() * coeff

    def __rmul__(self, coeff: Number) -> "LinExpr":
        return self.to_expr() * coeff

    def __neg__(self) -> "LinExpr":
        return self.to_expr() * -1.0

    def __le__(self, other: ExprLike) -> "Constraint":
        return self.to_expr() <= other

    def __ge__(self, other: ExprLike) -> "Constraint":
        return self.to_expr() >= other

    def __eq__(self, other: object) -> object:  # type: ignore[override]
        if isinstance(other, Variable):
            return self.index == other.index
        return self.to_expr() == other  # type: ignore[arg-type]

    def __hash__(self) -> int:
        return hash(("Variable", self.index))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "int" if self.integer else "cont"
        return f"Variable({self.name!r}, [{self.lb}, {self.ub}], {kind})"


class LinExpr:
    """A linear expression ``sum_j coeffs[j] * x_j + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Optional[Mapping[int, float]] = None, constant: float = 0.0) -> None:
        self.coeffs: Dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    # -- construction helpers -------------------------------------------
    @staticmethod
    def from_terms(terms: Iterable[Tuple[Variable, Number]], constant: float = 0.0) -> "LinExpr":
        """Build an expression from ``(variable, coefficient)`` pairs."""
        expr = LinExpr(constant=constant)
        for var, coeff in terms:
            expr.add_term(var, coeff)
        return expr

    def add_term(self, var: Variable, coeff: Number) -> "LinExpr":
        """Add ``coeff * var`` in place and return ``self``."""
        if coeff:
            self.coeffs[var.index] = self.coeffs.get(var.index, 0.0) + float(coeff)
        return self

    def copy(self) -> "LinExpr":
        return LinExpr(self.coeffs, self.constant)

    # -- algebra ---------------------------------------------------------
    def _coerce(self, other: ExprLike) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return other.to_expr()
        if isinstance(other, (int, float, np.integer, np.floating)):
            return LinExpr(constant=float(other))
        raise TypeError(f"cannot combine LinExpr with {type(other)!r}")

    def __add__(self, other: ExprLike) -> "LinExpr":
        other = self._coerce(other)
        result = self.copy()
        for idx, coeff in other.coeffs.items():
            result.coeffs[idx] = result.coeffs.get(idx, 0.0) + coeff
        result.constant += other.constant
        return result

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return self._coerce(other) + (self * -1.0)

    def __mul__(self, coeff: Number) -> "LinExpr":
        if not isinstance(coeff, (int, float, np.integer, np.floating)):
            raise TypeError("LinExpr may only be scaled by a scalar")
        return LinExpr({k: v * float(coeff) for k, v in self.coeffs.items()}, self.constant * float(coeff))

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- relational operators produce constraints ------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        rhs = self._coerce(other)
        return Constraint(self - rhs, Sense.LE, 0.0)

    def __ge__(self, other: ExprLike) -> "Constraint":
        rhs = self._coerce(other)
        return Constraint(self - rhs, Sense.GE, 0.0)

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]
        rhs = self._coerce(other)  # type: ignore[arg-type]
        return Constraint(self - rhs, Sense.EQ, 0.0)

    def __hash__(self) -> int:  # pragma: no cover - LinExpr is not meant to be hashed
        raise TypeError("LinExpr objects are unhashable")

    # -- evaluation -------------------------------------------------------
    def value(self, assignment: VectorLike) -> float:
        """Evaluate the expression at the given variable assignment."""
        total = self.constant
        for idx, coeff in self.coeffs.items():
            total += coeff * assignment[idx]
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        terms = " + ".join(f"{c:g}*x{i}" for i, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms} + {self.constant:g})"


@dataclass
class Constraint:
    """A linear constraint ``expr (sense) rhs``.

    The expression's constant is folded into the right-hand side when the
    constraint is normalised by :meth:`Model.add_constraint`.
    """

    expr: LinExpr
    sense: Sense
    rhs: float
    name: str = ""

    def normalised(self) -> Tuple[Dict[int, float], Sense, float]:
        """Return ``(coeffs, sense, rhs)`` with the constant moved to the rhs."""
        coeffs = dict(self.expr.coeffs)
        rhs = self.rhs - self.expr.constant
        return coeffs, self.sense, rhs

    def violation(self, assignment: VectorLike, tol: float = 1e-7) -> float:
        """Amount by which the constraint is violated at ``assignment`` (0 if satisfied)."""
        lhs = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return max(0.0, lhs - self.rhs - tol)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - lhs - tol)
        return max(0.0, abs(lhs - self.rhs) - tol)


@dataclass
class Solution:
    """Result of solving a :class:`Model`."""

    status: str
    objective: float = math.nan
    values: Dict[str, float] = field(default_factory=dict)
    #: raw column vector in model variable order (empty when infeasible)
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: backend-specific diagnostics (iterations, node counts, messages, ...)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    @property
    def is_feasible(self) -> bool:
        return self.status == OPTIMAL

    def __getitem__(self, key: Union[str, Variable]) -> float:
        if isinstance(key, Variable):
            key = key.name
        return self.values[key]

    def get(self, key: Union[str, Variable], default: float = 0.0) -> float:
        if isinstance(key, Variable):
            key = key.name
        return self.values.get(key, default)


class Model:
    """A mixed-integer linear program.

    Usage::

        m = Model("allocation")
        x = m.add_var("x", lb=0, integer=True)
        y = m.add_var("y", lb=0, integer=True)
        m.add_constraint(2 * x + y <= 10, name="capacity")
        m.maximize(3 * x + 2 * y)
        sol = solve(m)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        #: +1 for minimisation, -1 for maximisation
        self.objective_sign: int = 1
        self._names: Dict[str, Variable] = {}
        #: bumped on every structural change; invalidates the matrix cache
        self._revision: int = 0
        self._matrix_cache: Optional[Tuple[int, "MatrixModel"]] = None

    # -- building ---------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        integer: bool = False,
    ) -> Variable:
        """Add a decision variable and return it."""
        if name in self._names:
            raise ValueError(f"duplicate variable name: {name!r}")
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb > ub ({lb} > {ub})")
        var = Variable(index=len(self.variables), name=name, lb=float(lb), ub=float(ub), integer=integer)
        self.variables.append(var)
        self._names[name] = var
        self._revision += 1
        return var

    def add_vars(self, names: Iterable[str], **kwargs: Any) -> List[Variable]:
        return [self.add_var(name, **kwargs) for name in names]

    def get_var(self, name: str) -> Variable:
        return self._names[name]

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise TypeError("add_constraint expects a Constraint (use <=, >= or == on expressions)")
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        self.constraints.append(constraint)
        self._revision += 1
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint], prefix: str = "c") -> List[Constraint]:
        added: List[Constraint] = []
        for i, con in enumerate(constraints):
            added.append(self.add_constraint(con, name=f"{prefix}{len(self.constraints)}"))
        return added

    def minimize(self, expr: Union[LinExpr, Variable]) -> None:
        self.objective = expr.to_expr() if isinstance(expr, Variable) else expr.copy()
        self.objective_sign = 1
        self._revision += 1

    def maximize(self, expr: Union[LinExpr, Variable]) -> None:
        self.objective = expr.to_expr() if isinstance(expr, Variable) else expr.copy()
        self.objective_sign = -1
        self._revision += 1

    # -- matrix form -------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def to_matrix(self) -> "MatrixModel":
        """The model as a :class:`MatrixModel`, the form the solver reads.

        Each constraint becomes one CSR row (constant moved to the right-hand
        side, zero coefficients dropped).  The result is cached until the
        model changes structurally; treat it as read-only.
        """
        if self._matrix_cache is not None and self._matrix_cache[0] == self._revision:
            return self._matrix_cache[1]
        n = self.num_vars
        indptr = [0]
        indices: List[int] = []
        data: List[float] = []
        senses: List[Sense] = []
        rhs: List[float] = []
        for con in self.constraints:
            coeffs, sense, value = con.normalised()
            for idx in sorted(coeffs):
                if coeffs[idx] != 0.0:
                    indices.append(idx)
                    data.append(coeffs[idx])
            indptr.append(len(indices))
            senses.append(sense)
            rhs.append(value)
        A = sparse.csr_matrix(
            (np.array(data, dtype=float), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
            shape=(len(senses), n),
        )
        objective = np.zeros(n)
        for idx, coeff in self.objective.coeffs.items():
            objective[idx] = coeff
        matrix = MatrixModel(
            name=self.name,
            variable_names=[v.name for v in self.variables],
            lb=np.array([v.lb for v in self.variables], dtype=float),
            ub=np.array([v.ub for v in self.variables], dtype=float),
            integer=np.array([v.integer for v in self.variables], dtype=bool),
            objective=objective,
            objective_sign=self.objective_sign,
            A=A,
            senses=senses,
            rhs=np.array(rhs, dtype=float),
            objective_constant=self.objective.constant,
        )
        self._matrix_cache = (self._revision, matrix)
        return matrix

    def to_standard_form(self) -> StandardForm:
        """``(c, A_ub, b_ub, A_eq, b_eq, integrality)`` for *minimisation*
        (see :meth:`MatrixModel.to_standard_form`)."""
        return self.to_matrix().to_standard_form()

    def is_feasible_point(self, x: VectorLike, tol: float = 1e-6) -> bool:
        """Check bounds, integrality and constraints at ``x``."""
        return self.to_matrix().is_feasible_point(x, tol)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"constraints={self.num_constraints}, "
            f"{'min' if self.objective_sign > 0 else 'max'})"
        )


class MatrixModel:
    """A MILP in matrix form: the only form the solver layer reads.

    Constraint ``i`` is row ``i`` of ``A`` with sense ``senses[i]`` and
    right-hand side ``rhs[i]``; the objective ``objective @ x +
    objective_constant`` is minimised (``objective_sign`` 1) or maximised
    (-1).  :meth:`Model.to_matrix` produces one from the modelling algebra;
    code that builds the same family of MILPs many times (the allocator)
    assembles one directly.

    ``A`` must be canonical CSR (sorted column indices, no explicit zeros);
    ``objective`` holds the objective coefficients before the sign flip.
    The arrays are shared, not copied: treat them as read-only.
    """

    def __init__(
        self,
        name: str,
        variable_names: Sequence[str],
        lb: np.ndarray,
        ub: np.ndarray,
        integer: np.ndarray,
        objective: np.ndarray,
        objective_sign: int,
        A: sparse.csr_matrix,
        senses: Sequence[Sense],
        rhs: np.ndarray,
        objective_constant: float = 0.0,
    ) -> None:
        self.name = name
        self.variable_names = variable_names
        self.lb = lb
        self.ub = ub
        self.integer = integer
        self.objective = objective
        self.objective_sign = int(objective_sign)
        self.A = A
        self.senses = list(senses)
        self.rhs = rhs
        self.objective_constant = float(objective_constant)
        self._sparse_form: Optional[SparseForm] = None

    def replace(self, **changes: Any) -> "MatrixModel":
        """A copy with some constructor arguments changed (the rest shared)."""
        model = copy.copy(self)
        model.__dict__.update(changes)
        model._sparse_form = None
        return model

    @property
    def num_vars(self) -> int:
        return len(self.variable_names)

    @property
    def num_constraints(self) -> int:
        return len(self.senses)

    @property
    def integer_indices(self) -> List[int]:
        return np.flatnonzero(self.integer).tolist()

    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.lb, self.ub

    def _row_masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows that go to ``A_ub``, which of those are ``>=`` rows)."""
        ub_rows = np.array([s is not Sense.EQ for s in self.senses], dtype=bool)
        ge = np.array([s is Sense.GE for s in self.senses], dtype=bool)
        return ub_rows, ge[ub_rows]

    def _c(self) -> np.ndarray:
        return self.objective * self.objective_sign

    def to_standard_form(self) -> StandardForm:
        """Dense ``(c, A_ub, b_ub, A_eq, b_eq, integrality)`` for *minimisation*.

        ``c`` carries the sign flip of a maximisation; ``>=`` rows are
        negated into ``A_ub``, ``==`` rows form ``A_eq``, both in row order.
        """
        ub_rows, ge = self._row_masks()
        dense = self.A.toarray()
        A_ub = dense[ub_rows]
        A_ub[ge] = -A_ub[ge]
        b_ub = self.rhs[ub_rows]
        b_ub[ge] = -b_ub[ge]
        return self._c(), A_ub, b_ub, dense[~ub_rows], self.rhs[~ub_rows], self.integer.astype(int)

    def sparse_form(self) -> SparseForm:
        """:meth:`to_standard_form` with canonical CSR matrices, built without
        going dense (what HiGHS is fed; cached)."""
        if self._sparse_form is not None:
            return self._sparse_form
        ub_rows, ge = self._row_masks()
        A_ub = self.A[np.flatnonzero(ub_rows)]
        if ge.any():
            sign = np.where(ge, -1.0, 1.0)
            A_ub.data = A_ub.data * np.repeat(sign, np.diff(A_ub.indptr))
        b_ub = self.rhs[ub_rows]
        b_ub[ge] = -b_ub[ge]
        A_eq = self.A[np.flatnonzero(~ub_rows)]
        self._sparse_form = (self._c(), A_ub, b_ub, A_eq, self.rhs[~ub_rows], self.integer.astype(int))
        return self._sparse_form

    def recover_objective(self, x: np.ndarray) -> float:
        """Evaluate the *original* (sign-corrected) objective at ``x``."""
        return float(self.objective @ x) + self.objective_constant if len(x) else math.nan

    def is_feasible_point(self, x: VectorLike, tol: float = 1e-6) -> bool:
        """Check bounds, integrality and constraints at ``x``."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.num_vars,):
            return False
        if np.any(arr < self.lb - tol) or np.any(arr > self.ub + tol):
            return False
        ints = arr[self.integer]
        if np.any(np.abs(ints - np.round(ints)) > tol):
            return False
        lhs = self.A @ arr
        for value, sense, rhs in zip(lhs, self.senses, self.rhs):
            if sense is Sense.LE and value > rhs + tol:
                return False
            if sense is Sense.GE and value < rhs - tol:
                return False
            if sense is Sense.EQ and abs(value - rhs) > tol:
                return False
        return True

    def make_solution(self, x: np.ndarray, status: str = OPTIMAL, **info: Any) -> Solution:
        """Package a raw assignment into a :class:`Solution`."""
        x = np.asarray(x, dtype=float)
        values = dict(zip(self.variable_names, x.tolist()))
        return Solution(status=status, objective=self.recover_objective(x), values=values, x=x, info=dict(info))
