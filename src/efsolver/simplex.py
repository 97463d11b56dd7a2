"""Simplex pivots on a dense tableau: dual pivots to a feasible basis, then
primal pivots to an optimal one.

The tableau T has one row per constraint plus the objective row last, and
one column per variable plus the right-hand side last.  basis[i] is the
column basic in row i, and that column is the unit vector e_i with
reduced cost 0.  The objective row holds the reduced costs of a
minimisation, with minus the objective value in T[-1, -1].

`simplex_solve` takes a tableau that is primal feasible (no right-hand
side below -EPS) or dual feasible (no reduced cost below -EPS).  While a
right-hand side is below -EPS it makes dual simplex pivots, which keep the
reduced costs nonnegative (Chvatal, *Linear Programming*, 1983, ch. 10);
then primal pivots until no reduced cost is below -EPS.
`relaxation.solve_feasibility` builds a cold tableau at a feasible basis,
so a cold solve makes primal pivots only.  A warm solve starts from the
previous LP's optimal tableau, which stays dual feasible when columns of
nonnegative reduced cost are added and basic columns leave through
`pivot_out`; only its right-hand side needs the dual pivots.

Pivoting is deterministic.  Primal: entering column by most negative
reduced cost with lowest-index tie break, leaving row by minimum ratio
with lowest-basis-index tie break.  Dual: leaving row by most negative
right-hand side with lowest-index tie break, entering column by minimum
ratio of reduced cost to minus the row's entry, lowest index on ties.  A
run of degenerate pivots switches the primal entering rule and the dual
leaving rule to Bland's lowest-index rule, which guarantees termination;
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
    INFEASIBLE = "infeasible"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int,
           work: np.ndarray) -> None:
    """Pivot T on (row, col); `work` is scratch of T's shape.  The outer
    product of the entering column and the pivot row is the column spread
    over `work`'s rows, then multiplied by the row in place: the same
    products, which numpy forms about twice as fast along contiguous rows
    as from the column view."""
    prow = T[row] / T[row, col]
    work[...] = T[:, col, None]
    work *= prow
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


def _choose_dual_leaving(rhs: np.ndarray, basis: np.ndarray,
                         bland: bool) -> int | None:
    if bland:
        rows = (rhs < -EPS).nonzero()[0]
        return int(rows[basis[rows].argmin()]) if rows.size else None
    i = int(rhs.argmin())
    return i if rhs[i] < -EPS else None


def _least_ratio(T: np.ndarray, cols: np.ndarray, sizes: np.ndarray) -> int:
    """The column of `cols` whose reduced cost over the size of its entry
    (`sizes`, > 0) is least, lowest index on ties; negative reduced costs
    count as 0."""
    ratios = np.maximum(T[-1].take(cols), 0.0) / sizes
    return int(cols[(ratios <= np.minimum.reduce(ratios) + _RATIO_TIE).argmax()])


def pivot_out(T: np.ndarray, basis: np.ndarray, row: int,
              work: np.ndarray) -> bool:
    """Pivot the column basic in `row` out of the basis.

    The caller has removed that column from T, so every column but the
    right-hand side is a candidate.  The entering column is the one with
    an entry in `row` beyond EPS in size whose reduced cost over the
    entry's size is least: the dual ratio test over both signs, so that
    no reduced cost turns negative.  The row's right-hand side may.
    `work` is pivot scratch of T's shape.
    False, without a pivot, when no column qualifies.
    """
    sizes = np.abs(T[row, :-1])
    cols = (sizes > EPS).nonzero()[0]
    if not cols.size:
        return False
    _pivot(T, basis, row, _least_ratio(T, cols, sizes.take(cols)), work)
    return True


def simplex_solve(T: np.ndarray, basis: np.ndarray,
                  tally: list[int] | None = None,
                  work: np.ndarray | None = None) -> SimplexStatus:
    """Pivot T and basis in place until optimal: dual pivots while a
    right-hand side is below -EPS, then primal pivots.

    Returns INFEASIBLE when a row with a negative right-hand side has no
    entry below -EPS, UNBOUNDED when an entering column has no entry
    above EPS.  Adds the pivots made to tally[0] when a tally is given;
    `work` is pivot scratch of T's shape, allocated when not given.
    Raises SimplexIterationLimit after MAX_ITER pivots.
    """
    work = np.empty_like(T) if work is None else work
    bland = False
    degenerate_run = 0
    dual = True
    for _ in range(MAX_ITER):
        if dual:
            row = _choose_dual_leaving(T[:-1, -1], basis, bland)
            if row is None:
                dual, bland, degenerate_run = False, False, 0
            else:
                cols = (T[row, :-1] < -EPS).nonzero()[0]
                if not cols.size:
                    return SimplexStatus.INFEASIBLE
                col = _least_ratio(T, cols, -T[row].take(cols))
        if not dual:
            col = _choose_entering(T[-1, :-1], bland)
            if col is None:
                return SimplexStatus.OPTIMAL
            row = _choose_leaving(T, basis, col)
            if row is None:
                return SimplexStatus.UNBOUNDED
        before = T[-1, -1]
        _pivot(T, basis, row, col, work)
        if tally is not None:
            tally[0] += 1
        if abs(T[-1, -1] - before) <= EPS * max(1.0, abs(before)):
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    raise SimplexIterationLimit(
        f"simplex iteration limit reached ({MAX_ITER} pivots in one solve)")
