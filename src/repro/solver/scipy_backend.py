"""MILP backend on top of ``scipy.optimize.milp`` (HiGHS).

This is the engine behind :func:`repro.solver.solve`.  It plays the
role Gurobi plays in the paper: a :class:`~repro.solver.model.MatrixModel`
is handed to HiGHS in CSR form and solved to optimality.

With presolve on, HiGHS may only certify that a model has no finite optimum
("unbounded or infeasible").  The backend then solves once more without
presolve, which tells the two apart, so such a model is reported
``UNBOUNDED`` or ``INFEASIBLE`` rather than ``ERROR``.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np
from scipy import optimize

from repro.solver.model import (
    ERROR,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    MatrixModel,
    Solution,
    SolverError,
)

__all__ = ["ScipyMilpBackend"]

#: how scipy words HiGHS's "no finite optimum, cause unknown" status (which
#: it maps to the catch-all status 4)
UNBOUNDED_OR_INFEASIBLE = "unbounded or infeasible"


class ScipyMilpBackend:
    """Solve a :class:`~repro.solver.model.MatrixModel` via ``scipy.optimize.milp``.

    Parameters
    ----------
    time_limit:
        Wall-clock limit (seconds) passed to HiGHS.  ``None`` means no limit.
    mip_rel_gap:
        Relative MIP gap at which the solver may stop early.
    presolve:
        Whether HiGHS presolve is enabled.
    node_limit:
        Deterministic work limit: maximum branch-and-bound nodes HiGHS may
        explore.  Unlike ``time_limit`` it does not depend on machine load,
        so a solve bounded only by the node budget returns the same plan on
        any machine (HiGHS is deterministic for a fixed option set).
        ``None`` means unlimited.
    """

    def __init__(
        self,
        time_limit: Optional[float] = None,
        mip_rel_gap: float = 1e-6,
        presolve: bool = True,
        node_limit: Optional[int] = None,
    ):
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap
        self.presolve = presolve
        self.node_limit = node_limit

    def solve(self, model: MatrixModel) -> Solution:
        if model.num_vars == 0:
            return Solution(status=OPTIMAL, objective=model.objective_constant, values={}, x=np.zeros(0))

        c, A_ub, b_ub, A_eq, b_eq, integrality = model.sparse_form()
        lbs, ubs = model.bounds_arrays()
        bounds = optimize.Bounds(lbs, ubs)

        constraints = []
        if A_ub.shape[0]:
            constraints.append(optimize.LinearConstraint(A_ub, -np.inf * np.ones(A_ub.shape[0]), b_ub))
        if A_eq.shape[0]:
            constraints.append(optimize.LinearConstraint(A_eq, b_eq, b_eq))

        options = {"mip_rel_gap": self.mip_rel_gap, "presolve": self.presolve}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        if self.node_limit is not None:
            options["node_limit"] = int(self.node_limit)

        def run(options):
            try:
                return optimize.milp(
                    c=c,
                    constraints=constraints,
                    integrality=integrality,
                    bounds=bounds,
                    options=options,
                )
            except Exception as exc:  # pragma: no cover - defensive
                raise SolverError(f"scipy.optimize.milp failed: {exc}") from exc

        start = time.perf_counter()
        result = run(options)
        presolve_retry = (
            self.presolve and result.x is None and UNBOUNDED_OR_INFEASIBLE in str(getattr(result, "message", ""))
        )
        if presolve_retry:
            # Presolve can only tell that no finite optimum exists; without it
            # HiGHS says which of the two it is.
            result = run({**options, "presolve": False})
        elapsed = time.perf_counter() - start

        info = {
            "backend": "scipy-highs",
            "runtime_s": elapsed,
            "status_code": int(getattr(result, "status", -1)),
            "message": getattr(result, "message", ""),
            "mip_gap": getattr(result, "mip_gap", math.nan),
            # status 1 = iteration/time limit: the incumbent (if any) is
            # returned but not proven optimal.
            "optimal_proven": getattr(result, "status", -1) == 0,
        }
        if presolve_retry:
            info["presolve_retry"] = True

        # scipy.optimize.milp status codes: 0 optimal, 1 iteration/time limit,
        # 2 infeasible, 3 unbounded, 4 other.
        if result.status == 2:
            return Solution(status=INFEASIBLE, info=info)
        if result.status == 3:
            return Solution(status=UNBOUNDED, info=info)
        if result.x is None:
            return Solution(status=ERROR, info=info)

        x = np.asarray(result.x, dtype=float)
        # Snap integer variables to the nearest integer to remove tiny
        # numerical noise from the relaxation.
        for idx in model.integer_indices:
            x[idx] = round(x[idx])
        return model.make_solution(x, status=OPTIMAL, **info)
