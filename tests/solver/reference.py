"""Exact reference solves for small, box-bounded MILPs (test-side oracle).

HiGHS is the only MILP solver in the package, so the property tests need an
answer that does not come from it.  :func:`reference_solve` enumerates every
integer point of the box and solves the continuous remainder of each with
``scipy.optimize.linprog``.  It reads the problem from the plain arrays of a
:class:`BoxMilp`, not from :class:`repro.solver.Model`, so a bug in the
modelling layer's matrix assembly cannot cancel out between the two sides.

Two cheap, exact shortcuts keep it fast on the test families:

* integer points that violate a row even with the most favourable
  continuous values are dropped in one vectorised pass;
* with continuous variables, the duals of one LP over the union of all
  remainders bound every remainder from below (weak duality), so the scan
  over integer points, best bound first, stops once no remaining point can
  beat the incumbent.  Every remainder has the same recession cone, so the
  first feasible unbounded remainder proves the whole MILP unbounded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.optimize import linprog

from repro.solver import INFEASIBLE, OPTIMAL, UNBOUNDED, Model

__all__ = ["BoxMilp", "reference_solve", "vertex_lp_solve", "MAX_INTEGER_POINTS"]

#: the enumeration refuses boxes with more integer points than this
MAX_INTEGER_POINTS = 2_000_000
_CHUNK = 1 << 16
_FEAS_TOL = 1e-7


@dataclass
class BoxMilp:
    """``opt c @ x`` s.t. ``A @ x <= b``, ``0 <= x <= ub``; integer where ``integer``.

    ``ub`` may be ``inf`` for continuous variables only.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    maximize: bool

    def to_model(self, name: str = "box-milp") -> Model:
        model = Model(name)
        xs = [
            model.add_var(f"x{j}", ub=float(self.ub[j]), integer=bool(self.integer[j]))
            for j in range(len(self.c))
        ]
        for row, rhs in zip(self.A, self.b):
            expr = xs[0] * float(row[0])
            for j in range(1, len(xs)):
                expr = expr + xs[j] * float(row[j])
            model.add_constraint(expr <= float(rhs))
        objective = xs[0] * float(self.c[0])
        for j in range(1, len(xs)):
            objective = objective + xs[j] * float(self.c[j])
        if self.maximize:
            model.maximize(objective)
        else:
            model.minimize(objective)
        return model


def _integer_points(sizes: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop-1`` of the mixed-radix enumeration of ``prod(range(s))``."""
    index = np.arange(start, stop)
    points = np.empty((stop - start, len(sizes)))
    for k in range(len(sizes) - 1, -1, -1):
        index, points[:, k] = np.divmod(index, sizes[k])
    return points


def reference_solve(p: BoxMilp) -> Tuple[str, float]:
    """``(status, objective)`` of ``p``, exact up to LP tolerances."""
    ints = np.flatnonzero(p.integer)
    conts = np.flatnonzero(~p.integer)
    if not np.all(np.isfinite(p.ub[ints])):
        raise ValueError("integer variables need finite upper bounds")
    sizes = p.ub[ints].astype(int) + 1
    total = int(np.prod(sizes))
    if total > MAX_INTEGER_POINTS:
        raise ValueError(f"{total} integer points exceed the enumeration limit")

    sign = -1.0 if p.maximize else 1.0  # minimise sign * c @ x
    cost_int, cost_cont = sign * p.c[ints], sign * p.c[conts]
    A_int, A_cont, ub_cont = p.A[:, ints], p.A[:, conts], p.ub[conts]
    with np.errstate(invalid="ignore"):
        # The most each row can be relieved by the continuous variables.
        relief = np.where(A_cont < 0, A_cont * ub_cont, 0.0).sum(axis=1)

    candidates, costs = [], []
    best = math.inf
    for start in range(0, total, _CHUNK):
        points = _integer_points(sizes, start, min(total, start + _CHUNK))
        keep = np.all(points @ A_int.T + relief <= p.b + _FEAS_TOL, axis=1)
        if not conts.size:
            if keep.any():
                best = min(best, float((points[keep] @ cost_int).min()))
            continue
        candidates.append(points[keep])
        costs.append(points[keep] @ cost_int)

    if conts.size:
        points, cost = np.concatenate(candidates), np.concatenate(costs)
        bounds = list(zip(np.zeros(len(conts)), ub_cont))
        # Every remainder's feasible set lies inside this one: each row is
        # relaxed by the least its integer part can contribute.
        int_floor = np.where(A_int < 0, A_int * p.ub[ints], 0.0).sum(axis=1)
        union = linprog(cost_cont, A_ub=A_cont, b_ub=p.b - int_floor, bounds=bounds, method="highs")
        if union.status == 2:
            return INFEASIBLE, math.nan
        if union.status == 3:
            bound = np.full(len(points), -math.inf)
        else:
            # Weak duality: the union's row and upper-bound duals stay feasible
            # for every remainder, so lam @ (b - A_int x) + mu @ ub bounds each.
            lam, mu = union.ineqlin.marginals, union.upper.marginals
            mu_ub = float(mu[mu != 0.0] @ ub_cont[mu != 0.0])
            bound = cost + (p.b - points @ A_int.T) @ lam + mu_ub
        for k in np.argsort(bound, kind="stable"):
            if bound[k] >= best - 1e-9:
                break
            rest = linprog(cost_cont, A_ub=A_cont, b_ub=p.b - A_int @ points[k], bounds=bounds, method="highs")
            if rest.status == 2:
                continue
            if rest.status == 3:
                return UNBOUNDED, math.nan
            assert rest.status == 0, rest.message
            best = min(best, float(cost[k] + rest.fun))

    if best == math.inf:
        return INFEASIBLE, math.nan
    return OPTIMAL, sign * best


def vertex_lp_solve(
    c: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    maximize: bool,
) -> Tuple[str, float]:
    """``(status, objective)`` of a box-bounded LP by vertex enumeration.

    A non-empty polytope attains its optimum at a vertex, and every vertex
    is the solution of ``n`` linearly independent active rows: all equality
    rows plus a choice of inequality or bound rows.  Each choice is solved
    as a square linear system and the best feasible solution is kept -- no
    LP code is involved, so this checks HiGHS on pure LPs independently.
    The box must be finite and the equality rows linearly independent.
    """
    n = len(c)
    if n == 0:
        return OPTIMAL, 0.0
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValueError("vertex enumeration needs a finite box")
    if np.any(lb > ub):
        return INFEASIBLE, math.nan
    eye = np.eye(n)
    G = np.vstack([A_ub.reshape(-1, n), eye, -eye])
    h = np.concatenate([b_ub, ub, -lb])
    E, f = A_eq.reshape(-1, n), np.asarray(b_eq, dtype=float)
    chosen = np.array(list(itertools.combinations(range(len(G)), n - len(E))), dtype=int)
    M = np.concatenate([np.broadcast_to(E, (len(chosen),) + E.shape), G[chosen]], axis=1)
    rhs = np.concatenate([np.broadcast_to(f, (len(chosen), len(f))), h[chosen]], axis=1)
    regular = np.abs(np.linalg.det(M)) > 1e-9
    x = np.linalg.solve(M[regular], rhs[regular][..., None])[..., 0]
    feasible = np.all(x @ G.T <= h + _FEAS_TOL, axis=1) & np.all(np.abs(x @ E.T - f) <= _FEAS_TOL, axis=1)
    if not feasible.any():
        return INFEASIBLE, math.nan
    values = x[feasible] @ c
    return OPTIMAL, float(values.max() if maximize else values.min())
