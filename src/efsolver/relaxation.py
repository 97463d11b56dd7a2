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
change, so one update (`_update`) takes an optimal tableau to the next
LP's:

1. Each child's y column is computed as B^-1 a, where B^-1 is the
   tableau's block of columns for the starting basis (the 2r slacks and
   z), and priced by the objective row the same way.  A child's
   enclosures lie inside its parent's, so at the parent's optimal x
   (x1, x2 >= 0) the child's residual is at most the parent's, which is
   at most rho: every child's reduced cost rho - residual_child is >= 0,
   and the tableau stays dual feasible.
2. The parents' columns are dropped, the children's are appended after
   the kept y columns, and each parent that was basic is pivoted out by
   a dual ratio test on its row (`simplex.pivot_out`), which keeps every
   reduced cost >= 0 and may leave that row's right-hand side negative.
3. Dual simplex pivots restore a nonnegative right-hand side
   (`simplex.simplex_solve`); the tableau is then optimal.  No big-M
   column and no phase 1 are needed.

Dropping the parents first gives the same bits as pivoting beside them
and dropping them after: a pivot updates each column from that column,
the entering column and the pivot row's entry alone, and the ratio test
breaks ties by the order of the columns, which the drop keeps.  A basic
parent's column is a unit vector, so no other basic column is a
candidate in its row either way.

A `DualTableau` keeps the last optimal tableau, its basis and the keys of
its y columns' rows (the solver's box ids), with two persistent flat
buffers.  The tableau is a C-contiguous view of the front of one buffer,
and the update lays the next one out in the other with slice copies: the
runs of kept columns between the parents (a gather when many parents
leave at once), the children's columns, and the fixed tail (u+, u-,
slacks, z, right-hand side); then the buffers swap, and the one that
held the previous tableau, dead once copied, is the pivots' scratch.  So
a split costs a few slice copies however many rows are live, no buffer
is allocated until the tableau outgrows one (a short buffer is replaced
by one of twice the size), and the pivots' in-place arithmetic runs on
contiguous memory, several times faster than on a strided view.  When no parent was basic and every
new reduced cost and right-hand side is >= -EPS, the saved optimum
stands: the one `simplex_solve` call returns at its first two checks,
and x and rho keep their bits.  The finiteness check then reads the
tableau once, and not again after step 3, which made no pivot.

A cold solve is the same update, in new buffers, from the starting
tableau, which has no y column: there B^-1 = I, each row's column is a
itself, no parent has to leave, and step 3 makes primal pivots only.
The next LP starts warm when the saved rows still among its rows are its
leading rows, in the same order: the saved rows that left are the
parents, its other rows the children.  Any error of the warm update
sends the LP to a cold solve: no column to pivot a parent out, a tableau
neither primal nor dual feasible after step 2 (a child's enclosure that
is not nested in its parent's can do that), an entry that is not finite
before or after step 3 (rows whose endpoints lie near the double range
can overflow a pivot), the iteration limit, or a simplex status other
than OPTIMAL.  The update has swapped and changed the buffers by then,
so they are dropped and the cold solve starts new ones.  The cold
solve's errors propagate and leave no tableau saved; only a finite
optimal tableau is kept.

A warm solution can differ from the cold one by pivot round-off, so the
solver never rests a verdict on it: when a warm solve reports
rho <= -ACCEPT_TOL, or leaves no row that splitting could improve, the
solver solves the same LP cold and decides on that.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import EFSolverError, EqualitiesInfeasible, LPOverflow
from .simplex import EPS, SimplexStatus, pivot_out, simplex_solve

RHO_FLOOR = 1.0
FLOOR_TOL = 1e-9  # rho within this of -RHO_FLOOR counts as floored


@dataclass
class FeasibilityLP:
    """Endpoint matrices of the transformed system plus equality block.

    Column j of the LP carries the upper endpoint of interval column j
    (variables x1); column r+j carries the lower endpoint (variables x2).
    `keys` names the rows (the solver's box ids), in increasing order.
    """

    p_hi: np.ndarray
    p_lo: np.ndarray
    b: np.ndarray
    eq_coeffs: np.ndarray
    eq_rhs: np.ndarray
    keys: np.ndarray

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


@dataclass
class DualTableau:
    """An optimal dual tableau, its basis and the keys of the rows of its
    y columns, in column order, kept for the next LP's warm start; T is
    None until a solve saves one.

    T is a C-contiguous view of the front of the flat array `buf`; the
    next LP's update lays its tableau out in the flat array `spare`, the
    two swap, and the pivots use the new `spare` as scratch.  An update
    replaces either array by one of twice the tableau's size when it is
    shorter than the tableau."""

    T: np.ndarray | None = None
    basis: np.ndarray | None = None
    keys: np.ndarray | None = None
    buf: np.ndarray | None = None
    spare: np.ndarray | None = None


def rohn_transform(p_lo: np.ndarray, p_hi: np.ndarray, q_lo: np.ndarray,
                   eq_coeffs: np.ndarray, eq_rhs: np.ndarray,
                   keys: np.ndarray) -> FeasibilityLP:
    """Pack the endpoint arrays (n x r, n x r, n), the equalities
    C x = d (k x r, k) and the rows' increasing keys (n) into the LP
    data; the arrays are not copied."""
    return FeasibilityLP(p_hi, p_lo, q_lo, eq_coeffs, eq_rhs, keys)


def solve_feasibility(lp: FeasibilityLP, warm: DualTableau | None = None,
                      tally: list[int] | None = None) -> LPSolution:
    """Minimise the worst row violation rho subject to rho >= -RHO_FLOOR.

    One simplex solve of the dual (see the module docstring) on a tableau
    of 2r + 2 rows and n + 2k + 2r + 2 columns: y, u+, u- (u = u+ - u-),
    the slacks of the Punder rows, then those of the Pbar rows, z, and
    the right-hand side.  With `warm`, the solve starts from its tableau
    when the keys allow, and saves the optimal tableau there.  Adds the
    pivots made to tally[0] when a tally is given, also when it raises.
    Errors come from a cold solve: EqualitiesInfeasible when C x = d
    admits no solution, LPOverflow when the tableau leaves the double
    range, and SimplexIterationLimit; `warm` then holds no tableau.  With
    the floor the LP is never unbounded.
    """
    n, r, k = lp.n, lp.r, lp.eq_coeffs.shape[0]
    tally = [0] if tally is None else tally
    start = tally[0]
    state = DualTableau() if warm is None else warm
    parents = _parents(lp.keys, state) if state.T is not None else None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if parents is not None:
                try:
                    _update(lp, state, parents, tally)
                except EFSolverError:
                    parents = None
            warmed = parents is not None
            if not warmed:
                _start(lp, state)
                _update(lp, state, np.zeros(0, dtype=np.intp), tally)
    except BaseException:
        # the update has written into the buffers: drop them
        state.T = state.basis = state.keys = None
        state.buf = state.spare = None
        raise
    state.keys = lp.keys
    s, z = n + 2 * k, n + 2 * k + 2 * r
    x = np.maximum(state.T[-1, s:z], 0.0)
    rho = float(state.T[-1, z] - RHO_FLOOR)
    status = LPStatus.UNBOUNDED if rho <= -RHO_FLOOR + FLOOR_TOL else LPStatus.OPTIMAL
    return LPSolution(x[r:], x[:r], rho, status, tally[0] - start, warmed)


def _parents(keys: np.ndarray, saved: DualTableau) -> np.ndarray | None:
    """The saved y columns whose rows are not among `keys` (the parents),
    in increasing order, or None when the saved rows that remain are not
    the leading rows of `keys` in the same order."""
    old = saved.keys
    if not keys.size:
        return np.arange(old.size)
    # the saved keys found in keys sit at increasing positions (both
    # arrays increase): its leading rows when the last is at kept - 1
    pos = keys.searchsorted(old)
    parents = (keys.take(pos, mode="clip") != old).nonzero()[0]
    last, kept = old.size - 1, old.size - parents.size
    for p in parents[::-1].tolist():
        if p != last:
            break
        last -= 1
    return parents if not kept or pos[last] == kept - 1 else None


def _start(lp: FeasibilityLP, state: DualTableau) -> None:
    """Put into `state`, in new buffers with room for lp's rows, the
    dual's tableau without y columns at the basis of the slacks and z:
    the u+, u-, slack, z and right-hand-side columns."""
    r, C, k = lp.r, lp.eq_coeffs, lp.eq_coeffs.shape[0]
    rows, width = 2 * r + 2, 2 * k + 2 * r + 2
    size = 2 * rows * (lp.n + width)
    state.buf, state.spare = np.zeros(size), np.empty(size)
    T = state.T = state.buf[:rows * width].reshape(rows, width)
    T[:r, :k] = -C.T
    T[r:2 * r, :k] = C.T
    T[:2 * r, k:2 * k] = -T[:2 * r, :k]
    T[:2 * r, 2 * k:-2] = np.eye(2 * r)
    T[2 * r, -2] = T[2 * r, -1] = 1.0
    T[-1, :k] = -lp.eq_rhs
    T[-1, k:2 * k] = lp.eq_rhs
    T[-1, -1] = -RHO_FLOOR
    state.basis = np.arange(2 * k, 2 * k + 2 * r + 1)


def _update(lp: FeasibilityLP, state: DualTableau, parents: np.ndarray,
            tally: list[int]) -> None:
    """Steps 1-3 of the module docstring, in the buffers of `state`: from
    its optimal tableau, whose y columns but `parents` hold lp's leading
    rows in order, lp's optimal tableau and basis.  Pivots are counted in
    tally[0].  Raises an EFSolverError when the update fails, which
    leaves `state` changed."""
    n, r, k = lp.n, lp.r, lp.eq_coeffs.shape[0]
    T, basis, tail = state.T, state.basis, 2 * k + 2 * r + 2
    old = T.shape[1] - tail  # y columns of T
    kept = old - parents.size
    width = n + tail
    new = slice(kept, n)
    # 1. the children's columns B^-1 a, with B^-1 in the columns of the
    # starting basis; the objective row prices them the same way, from
    # their reduced costs at that basis, b - RHO_FLOOR (z, of cost
    # RHO_FLOOR, is basic in sum(y) + z = 1)
    a = np.ones((2 * r + 1, n - kept))
    a[:r] = lp.p_lo[new].T
    np.negative(lp.p_hi[new].T, out=a[r:2 * r])
    added = T[:, old + 2 * k:old + 2 * k + 2 * r + 1] @ a
    added[-1] += lp.b[new] - RHO_FLOOR
    # 2. lay out the kept columns, the children's and the tail in the
    # spare buffer, leaving the parents' out: a pivot acts column by
    # column, so the columns that stay get the bits they would get
    # beside the parents'.  T stays C-contiguous, which numpy's in-place
    # arithmetic needs to run at full speed
    # the next tableau goes into spare, and after the swap the old buf is
    # the pivots' scratch: both need its room.  T keeps a replaced buf's
    # array alive until the copy below
    rows, size = T.shape[0], T.shape[0] * width
    if state.spare.size < size:
        state.spare = np.empty(2 * size)
    if state.buf.size < size:
        state.buf = np.empty(2 * size)
    new_T = state.spare[:size].reshape(rows, width)
    if parents.size == 1:
        p = int(parents[0])
        new_T[:, :p] = T[:, :p]
        new_T[:, p:kept] = T[:, p + 1:old]
    elif parents.size:
        new_T[:, :kept] = T[:, np.delete(np.arange(old), parents)]
    else:
        new_T[:, :kept] = T[:, :kept]
    new_T[:, kept:n] = added
    new_T[:, n:] = T[:, old:]
    state.buf, state.spare = state.spare, state.buf
    T = state.T = new_T
    work = state.spare[:T.size].reshape(T.shape)
    # the parents basic in some row leave by pivots; the other columns
    # move left past the parents before them, the tail by the children
    gone, leaving, moved = parents.tolist(), [], []
    for row, col in enumerate(basis.tolist()):
        if col >= old:
            moved.append(col - old + n)
            continue
        below = bisect_left(gone, col) if gone else 0
        if below < len(gone) and gone[below] == col:
            leaving.append(row)
        moved.append(col - below)
    basis[:] = moved
    for row in leaving:
        if not pivot_out(T, basis, row, work):
            raise EFSolverError("no column to pivot a parent out")
        tally[0] += 1
    _check_finite(T)
    # T is finite, so the least entry stands for every entry
    if T[:-1, -1].min() < -EPS and T[-1, :-1].min() < -EPS:
        raise EFSolverError("neither primal nor dual feasible")
    # 3. dual pivots to a feasible right-hand side, then primal ones
    before = tally[0]
    status = simplex_solve(T, basis, tally, work)
    if tally[0] != before:
        _check_finite(T)
    if status is not SimplexStatus.OPTIMAL:
        raise EqualitiesInfeasible("equality system C x = d is infeasible")


def _check_finite(T: np.ndarray) -> None:
    if not np.isfinite(T).all():
        raise LPOverflow("residual LP overflow: the dual tableau left the "
                         "double range")


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
