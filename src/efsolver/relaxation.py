"""The residual LP of an interval linear system.

An interval system P x <= q (entries of P, q are intervals, the inequality
must hold for every matrix in P and every right-hand side in q) is reduced
to an ordinary LP by the classical endpoint substitution (Rohn/Kreslova):
write x = x1 - x2 with x1, x2 >= 0, then the worst case over P is attained
at upper endpoints for x1 and lower endpoints for x2, and the worst case
over q at its lower endpoint:

    Phi(x1, x2) = Pbar x1 - Punder x2 <= q_lo,   x1, x2 >= 0.

The system arrives as endpoint arrays p_lo, p_hi (one row per live box,
one column per x variable) and q_lo, as the solver's live-box table keeps
them.  Instead of testing feasibility directly we minimise the worst row
violation rho:

    min rho   s.t.  Pbar x1 - Punder x2 - q_lo <= rho * 1,
                    C (x1 - x2) = d,   x1, x2 >= 0.

rho <= 0 certifies solvability; a positive minimum measures the distance
to feasibility and its per-row residuals drive the splitting heuristics.
Equality rows are carried exactly (never relaxed by rho).

Without a lower bound on rho the LP can be unbounded below (some column
improves every row at once), and any point far enough along that ray
satisfies the system.  So the LP always carries the floor
rho >= -RHO_FLOOR and is solved once.  The floor does not move the optimum
of an LP whose minimum lies above it.  When the floor binds, rho is
-RHO_FLOOR (still an upper bound on every row's residual, so it certifies
solvability) and the solution is marked with status UNBOUNDED: the
unfloored minimum is at or below -RHO_FLOOR, possibly unbounded.

The simplex solves the dual of this LP (Chvatal, *Linear Programming*,
1983, ch. 5), with multipliers y >= 0 for the n rows, z >= 0 for the
floor and u free for the equalities:

    min q_lo.y + RHO_FLOOR z - d.u   s.t.  sum(y) + z = 1,
                                           Punder^T y <= C^T u <= Pbar^T y,
                                           y, z >= 0.

It has 2r + 1 constraint rows however many boxes are live, one y column
per row, and the basis of its 2r slacks and z is feasible at once
(y = u = 0, z = 1), so a cold solve is one phase of primal pivots.  The
primal solution is the optimal tableau's simplex multipliers: x2_j and
x1_j are the reduced costs of the slacks of the j-th rows of
Punder^T y <= C^T u and C^T u <= Pbar^T y, and rho is z's reduced cost
minus RHO_FLOOR.  So the reduced cost of row i's y column is
rho - residual_i.  The primal inequalities are always feasible (take rho
large), so an unbounded dual means that C x = d has no solution.

Warm start (Chvatal ch. 10, sensitivity analysis).  The solver's
consecutive LPs differ only in their rows: a split removes the parent
box's row and appends its children's.  The dual's constraint rows do not
change, so the previous optimal tableau, kept in a `DualTableau` whose
y columns follow the rows, is updated instead of rebuilt:

1. Each child's y column is appended as B^-1 a, where B^-1 is the
   tableau's block of columns for the starting basis (the 2r slacks and
   z), and priced by the objective row the same way.  A child's
   enclosures lie inside its parent's, so at the parent's optimal x
   (x1, x2 >= 0) the child's residual is at most the parent's, which is
   at most rho: every child's reduced cost rho - residual_child is >= 0,
   and the tableau stays dual feasible.
2. Each parent whose y is basic is pivoted out by a dual ratio test on
   its row (`simplex.pivot_out`), which keeps every reduced cost >= 0
   and may leave that row's right-hand side negative.  The parents'
   columns are then dropped.
3. Dual simplex pivots restore a nonnegative right-hand side
   (`simplex.simplex_solve`); the tableau is then optimal.  No big-M
   column and no phase 1 are needed.

The warm solve falls back to a cold one when a parent has no column to
pivot in, when the tableau is neither primal nor dual feasible after
step 2 (a child's enclosure that is not nested in its parent's can do
that), when the simplex reports anything but OPTIMAL or reaches its
iteration limit, and when an entry is not finite; the fallback's
tableau, if finite, replaces the saved one.  A tableau with an inf or NaN
entry (rows whose endpoints lie near the double range can overflow a
pivot) is never saved, and a cold solve that overflows raises LPOverflow.

A warm solution can differ from the cold one by pivot round-off, so the
solver never rests a verdict on it: when a warm solve reports
rho <= -ACCEPT_TOL, or leaves no row that splitting could improve, the
solver solves the same LP cold and decides on that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EqualitiesInfeasible, LPOverflow, SimplexIterationLimit
from .simplex import EPS, SimplexStatus, pivot_out, simplex_solve

RHO_FLOOR = 1.0
FLOOR_TOL = 1e-9  # rho within this of -RHO_FLOOR counts as floored


@dataclass
class FeasibilityLP:
    """Endpoint matrices of the transformed system plus equality block.

    Column j of the LP carries the upper endpoint of interval column j
    (variables x1); column r+j carries the lower endpoint (variables x2).
    """

    p_hi: np.ndarray
    p_lo: np.ndarray
    b: np.ndarray
    eq_coeffs: np.ndarray
    eq_rhs: np.ndarray

    @property
    def n(self) -> int:
        return self.p_hi.shape[0]

    @property
    def r(self) -> int:
        return self.p_hi.shape[1]


class LPStatus(enum.Enum):
    """UNBOUNDED: the floor binds, so the LP without it is unbounded below
    or has its minimum at or below -RHO_FLOOR."""

    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


@dataclass
class LPSolution:
    x1: np.ndarray
    x2: np.ndarray
    rho: float
    status: LPStatus = LPStatus.OPTIMAL
    pivots: int = 0  # simplex pivots of this solve, a fallback's included
    warm: bool = False  # re-optimised from the previous LP's tableau

    @property
    def x(self) -> np.ndarray:
        return self.x1 - self.x2


class DualTableau:
    """The optimal dual tableau of the last LP solved with it, and its
    basis, kept for the next LP's warm start.

    Its y columns follow the rows of that LP.  `cols[i]` is the y column
    of the current row i, or -1 for a row appended since; `replace` keeps
    it up to date as rows leave and arrive.  Rows keep their relative
    order and new rows come last, as in the solver's live-box table.
    `T` is None until a solve saves a tableau, and `cols` means nothing
    then.
    """

    def __init__(self):
        self.T: np.ndarray | None = None
        self.basis: np.ndarray | None = None
        self.cols = np.zeros(0, dtype=np.intp)

    def replace(self, removed: list[int], added: int) -> None:
        """The rows at positions `removed` left and `added` rows were
        appended.  Without a tableau the next solve is cold and sets
        `cols` itself."""
        if self.T is None:
            return
        keep = np.ones(self.cols.size, dtype=bool)
        keep[removed] = False
        self.cols = np.concatenate([self.cols[keep],
                                    np.full(added, -1, dtype=np.intp)])

    def _save(self, T: np.ndarray, basis: np.ndarray, n: int) -> None:
        self.T, self.basis = T, basis
        self.cols = np.arange(n, dtype=np.intp)


def rohn_transform(p_lo: np.ndarray, p_hi: np.ndarray, q_lo: np.ndarray,
                   eq_coeffs: np.ndarray, eq_rhs: np.ndarray) -> FeasibilityLP:
    """Pack the endpoint arrays (n x r, n x r, n) and the equalities
    C x = d (k x r, k) into the LP data; the arrays are not copied."""
    return FeasibilityLP(p_hi, p_lo, q_lo, eq_coeffs, eq_rhs)


def _y_columns(p_lo: np.ndarray, p_hi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The y columns of rows (p_lo, p_hi, b) as the cold tableau holds
    them: the 2r + 1 constraint entries, then the reduced cost at the
    starting basis, where z (cost RHO_FLOOR) is basic in sum(y) + z = 1."""
    n, r = p_lo.shape
    cols = np.empty((2 * r + 2, n))
    cols[:r] = p_lo.T
    cols[r:2 * r] = -p_hi.T
    cols[2 * r] = 1.0
    cols[-1] = b - RHO_FLOOR
    return cols


def solve_feasibility(lp: FeasibilityLP,
                      warm: DualTableau | None = None) -> LPSolution:
    """Minimise the worst row violation rho subject to rho >= -RHO_FLOOR.

    One simplex solve of the dual (see the module docstring) on a tableau
    of 2r + 2 rows and n + 2k + 2r + 2 columns: y, u+, u- (u = u+ - u-),
    the slacks of the Punder rows, then those of the Pbar rows, z, and
    the right-hand side.  Without `warm` the solve is cold.  With it, the
    solve starts from its tableau when it holds one, falls back to a cold
    solve, and saves the optimal tableau there.  Raises
    EqualitiesInfeasible when C x = d admits no solution and LPOverflow
    when the cold tableau leaves the double range; both come from a cold
    solve.  With the floor the LP is never unbounded.
    """
    n, r, k = lp.n, lp.r, lp.eq_coeffs.shape[0]
    tally = [0]
    with np.errstate(over="ignore", invalid="ignore"):
        warmed = warm is not None and _warm_solve(lp, warm, tally)
        if warmed:
            T = warm.T
        else:
            T, basis = _cold_tableau(lp)
            status = simplex_solve(T, basis, tally)
            if not np.isfinite(T).all():
                raise LPOverflow("residual LP overflow: the dual tableau "
                                 "left the double range")
            if status is not SimplexStatus.OPTIMAL:
                raise EqualitiesInfeasible("equality system C x = d is infeasible")
            if warm is not None:
                warm._save(T, basis, n)
    s, z = n + 2 * k, n + 2 * k + 2 * r
    x = np.maximum(T[-1, s:z], 0.0)
    rho = float(T[-1, z] - RHO_FLOOR)
    status = LPStatus.UNBOUNDED if rho <= -RHO_FLOOR + FLOOR_TOL else LPStatus.OPTIMAL
    return LPSolution(x[r:], x[:r], rho, status, tally[0], warmed)


def _cold_tableau(lp: FeasibilityLP) -> tuple[np.ndarray, np.ndarray]:
    """The dual's tableau at the basis of the slacks and z."""
    n, r = lp.n, lp.r
    C, k = lp.eq_coeffs, lp.eq_coeffs.shape[0]
    s, z = n + 2 * k, n + 2 * k + 2 * r
    T = np.zeros((2 * r + 2, z + 2))
    T[:, :n] = _y_columns(lp.p_lo, lp.p_hi, lp.b)
    T[:r, n:n + k] = -C.T
    T[r:2 * r, n:n + k] = C.T
    T[:2 * r, n + k:s] = -T[:2 * r, n:n + k]
    T[:2 * r, s:z] = np.eye(2 * r)
    T[2 * r, z] = T[2 * r, -1] = 1.0
    T[-1, n:n + k] = -lp.eq_rhs
    T[-1, n + k:s] = lp.eq_rhs
    T[-1, -1] = -RHO_FLOOR
    return T, np.arange(s, z + 1)


def _warm_solve(lp: FeasibilityLP, warm: DualTableau, tally: list[int]) -> bool:
    """Update warm's tableau to lp's rows and re-optimise it (steps 1-3 of
    the module docstring), counting pivots in tally[0].  True when warm
    holds lp's optimal tableau; False when a cold solve must run, and warm
    then holds no tableau."""
    T, basis, cols = warm.T, warm.basis, warm.cols
    warm.T = warm.basis = None
    if T is None or cols.size != lp.n:
        return False
    r, k = lp.r, lp.eq_coeffs.shape[0]
    old = T.shape[1] - 2 * k - 2 * r - 2  # y columns of the saved tableau
    kept = cols[cols >= 0]
    new = slice(kept.size, lp.n)
    # 1. the children's columns B^-1 a, with B^-1 in the columns of the
    # starting basis, and the objective row pricing them the same way
    a = _y_columns(lp.p_lo[new], lp.p_hi[new], lp.b[new])
    added = T[:, old + 2 * k:old + 2 * k + 2 * r + 1] @ a[:-1]
    added[-1] += a[-1]
    T = np.concatenate([T[:, :old], added, T[:, old:]], axis=1)
    basis = np.where(basis >= old, basis + a.shape[1], basis)
    # 2. pivot the basic parents out, then drop every parent's column
    allowed = np.ones(T.shape[1] - 1, dtype=bool)
    allowed[:old] = False
    allowed[kept] = True
    for row in np.flatnonzero(~allowed[basis]):
        if not pivot_out(T, basis, row, allowed):
            return False
        tally[0] += 1
    keep = np.flatnonzero(np.append(allowed, True))
    index = np.empty(T.shape[1], dtype=basis.dtype)
    index[keep] = np.arange(keep.size)
    T, basis = T[:, keep], index[basis]
    if not np.isfinite(T).all() or (
            (T[:-1, -1] < -EPS).any() and (T[-1, :-1] < -EPS).any()):
        return False
    # 3. dual pivots to a feasible right-hand side, then primal ones
    try:
        status = simplex_solve(T, basis, tally)
    except SimplexIterationLimit:
        return False
    if status is not SimplexStatus.OPTIMAL or not np.isfinite(T).all():
        return False
    warm._save(T, basis, lp.n)
    return True


def residual_vector(lp: FeasibilityLP, sol: LPSolution) -> np.ndarray:
    """Per-row violations d = Pbar x1 - Punder x2 - b at the LP point."""
    return lp.p_hi @ sol.x1 - lp.p_lo @ sol.x2 - lp.b


def adversarial_lhs(p_lo: np.ndarray, p_hi: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Per row, sup over p in [p_lo, p_hi] of p . x (worst case per sign).

    Each row is summed left to right, as a scalar loop over its columns
    would sum it.
    """
    terms = np.where(x >= 0, p_hi * x, p_lo * x)
    total = np.zeros(terms.shape[0])
    for j in range(terms.shape[1]):
        total += terms[:, j]
    return total
