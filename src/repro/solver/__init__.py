"""Mixed-integer linear programming substrate used by the Loki control plane.

The paper solves its resource-allocation problem with Gurobi; this package
hands the same MILPs to HiGHS through ``scipy.optimize.milp``:

* :mod:`repro.solver.model` -- a small modelling layer (variables, linear
  expressions, constraints, objective) and :class:`MatrixModel`, the matrix
  form the solver reads (:meth:`Model.to_matrix`).
* :mod:`repro.solver.scipy_backend` -- solves a :class:`MatrixModel` with
  HiGHS.
* :mod:`repro.solver.cache` -- model fingerprinting and the LRU solution
  cache behind :func:`solve`.

:func:`solve` is the entry point: it consults the solution cache and runs
HiGHS on a miss.
"""

from typing import Optional, Union

from repro.solver.model import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    ERROR,
    Constraint,
    LinExpr,
    MatrixModel,
    Model,
    Sense,
    Solution,
    SolverError,
    Variable,
)
from repro.solver.cache import SolutionCache, default_cache, fingerprint_model
from repro.solver.scipy_backend import ScipyMilpBackend

__all__ = [
    "INFEASIBLE",
    "OPTIMAL",
    "UNBOUNDED",
    "ERROR",
    "Constraint",
    "LinExpr",
    "MatrixModel",
    "Model",
    "Sense",
    "Solution",
    "SolverError",
    "Variable",
    "ScipyMilpBackend",
    "SolutionCache",
    "default_cache",
    "fingerprint_model",
    "solve",
]


def solve(model: Union[Model, MatrixModel], cache: Union[bool, SolutionCache, None] = True, **options) -> Solution:
    """Solve ``model`` with HiGHS.

    Parameters
    ----------
    model:
        A :class:`MatrixModel`, or a :class:`Model`, which is converted once
        with :meth:`Model.to_matrix`.
    cache:
        ``True`` (default) consults the process-wide solution cache keyed by
        the model's content fingerprint; pass a :class:`SolutionCache` to use
        a private cache, or ``False``/``None`` to bypass caching.  Hits carry
        ``info["cache"] == "hit"``.
    options:
        Forwarded to :class:`ScipyMilpBackend` (``time_limit``,
        ``mip_rel_gap``, ``presolve``, ``node_limit``).

    Returns
    -------
    Solution
    """
    backend = ScipyMilpBackend(**options)  # unknown options raise here, hit or miss
    matrix = model.to_matrix() if isinstance(model, Model) else model
    cache_obj: Optional[SolutionCache]
    if cache is True:
        cache_obj = default_cache
    elif isinstance(cache, SolutionCache):
        cache_obj = cache
    else:
        cache_obj = None

    cache_key = None
    fingerprint = None
    if cache_obj is not None:
        fingerprint = fingerprint_model(matrix)
        cache_key = SolutionCache.key(fingerprint, options)
        cached = cache_obj.get(cache_key)
        if cached is not None:
            return cached

    solution = backend.solve(matrix)

    solution.info.setdefault("cache", "miss" if cache_obj is not None else "off")
    if fingerprint is not None:
        solution.info.setdefault("fingerprint", fingerprint[:16])
    if cache_obj is not None and cache_key is not None and solution.status in (OPTIMAL, INFEASIBLE, UNBOUNDED):
        cache_obj.put(cache_key, solution)
    return solution
