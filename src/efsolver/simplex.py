"""One-phase primal simplex on a dense tableau that starts feasible.

The tableau T has one row per constraint plus the objective row last, and
one column per variable plus the right-hand side last.  The caller builds
it at a feasible basis: basis[i] is the column basic in row i, that column
is the unit vector e_i with reduced cost 0, and the right-hand side is
nonnegative.  The objective row holds the reduced costs of a minimisation,
with minus the objective value in T[-1, -1].  `relaxation.solve_feasibility`
poses the dual of the residual LP this way, so no phase 1 is needed.

Pivoting is deterministic: entering column by most negative reduced cost
with lowest-index tie break, leaving row by minimum ratio with
lowest-basis-index tie break.  A run of degenerate pivots switches the
entering rule to Bland's lowest-index rule, which guarantees termination;
ordinary pivots switch back.  Optimality and pivot tolerances are 1e-9.
At the end T is the optimal tableau: its objective row holds the reduced
costs, from which the caller reads the dual solution.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import SimplexIterationLimit

EPS = 1e-9
_RATIO_TIE = 1e-12
_DEGENERATE_LIMIT = 64
MAX_ITER = 200_000  # pivots per solve before SimplexIterationLimit


class SimplexStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int,
           work: np.ndarray) -> None:
    """Pivot T on (row, col); `work` is scratch of T's shape."""
    prow = T[row] / T[row, col]
    np.multiply(T[:, col, None], prow, out=work)
    T -= work
    T[row] = prow
    basis[row] = col


def _choose_entering(costs: np.ndarray, bland: bool) -> int | None:
    if bland:
        idx = (costs < -EPS).nonzero()[0]
        return int(idx[0]) if idx.size else None
    j = int(costs.argmin())
    return j if costs[j] < -EPS else None


def _choose_leaving(T: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    colvals = T[:-1, col]
    rows = (colvals > EPS).nonzero()[0]
    if not rows.size:
        return None
    ratios = np.maximum(T[:-1, -1][rows], 0.0) / colvals[rows]
    tied = rows[ratios <= np.minimum.reduce(ratios) + _RATIO_TIE]
    if tied.size == 1:
        return int(tied[0])
    return int(tied[basis[tied].argmin()])


def simplex_solve(T: np.ndarray, basis: np.ndarray) -> SimplexStatus:
    """Pivot T and basis in place until optimal, or until an entering
    column has no positive entry (UNBOUNDED).

    Raises SimplexIterationLimit after MAX_ITER pivots.
    """
    work = np.empty_like(T)
    bland = False
    degenerate_run = 0
    for _ in range(MAX_ITER):
        col = _choose_entering(T[-1, :-1], bland)
        if col is None:
            return SimplexStatus.OPTIMAL
        row = _choose_leaving(T, basis, col)
        if row is None:
            return SimplexStatus.UNBOUNDED
        before = T[-1, -1]
        _pivot(T, basis, row, col, work)
        if abs(T[-1, -1] - before) <= EPS * max(1.0, abs(before)):
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    raise SimplexIterationLimit(
        f"simplex iteration limit reached ({MAX_ITER} pivots in one solve)")
