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

It has 2r + 1 constraint rows however many boxes are live, and the basis
of its 2r slacks and z is feasible at once (y = u = 0, z = 1), so one
phase of pivots solves it.  The primal solution is the optimal tableau's
simplex multipliers: x2_j and x1_j are the reduced costs of the slacks
of the j-th rows of Punder^T y <= C^T u and C^T u <= Pbar^T y, and rho is
z's reduced cost minus RHO_FLOOR.  The primal inequalities are always
feasible (take rho large), so an unbounded dual means that C x = d has
no solution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EqualitiesInfeasible
from .simplex import SimplexStatus, simplex_solve

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

    @property
    def x(self) -> np.ndarray:
        return self.x1 - self.x2


def rohn_transform(p_lo: np.ndarray, p_hi: np.ndarray, q_lo: np.ndarray,
                   eq_coeffs: np.ndarray, eq_rhs: np.ndarray) -> FeasibilityLP:
    """Pack the endpoint arrays (n x r, n x r, n) and the equalities
    C x = d (k x r, k) into the LP data; the arrays are not copied."""
    return FeasibilityLP(p_hi, p_lo, q_lo, eq_coeffs, eq_rhs)


def solve_feasibility(lp: FeasibilityLP) -> LPSolution:
    """Minimise the worst row violation rho subject to rho >= -RHO_FLOOR.

    One simplex solve of the dual (see the module docstring) on a tableau
    of 2r + 2 rows and n + 2k + 2r + 2 columns: y, u+, u- (u = u+ - u-),
    the slacks of the Punder rows, then those of the Pbar rows, z, and
    the right-hand side.  Raises EqualitiesInfeasible when C x = d admits
    no solution; with the floor the LP is never unbounded.
    """
    n, r = lp.n, lp.r
    C, k = lp.eq_coeffs, lp.eq_coeffs.shape[0]
    s, z = n + 2 * k, n + 2 * k + 2 * r
    T = np.zeros((2 * r + 2, z + 2))
    T[:r, :n] = lp.p_lo.T
    T[r:2 * r, :n] = -lp.p_hi.T
    T[:r, n:n + k] = -C.T
    T[r:2 * r, n:n + k] = C.T
    T[:2 * r, n + k:s] = -T[:2 * r, n:n + k]
    T[:2 * r, s:z] = np.eye(2 * r)
    T[2 * r, :n] = T[2 * r, z] = T[2 * r, -1] = 1.0
    # reduced costs at the starting basis: z, with cost RHO_FLOOR, is basic
    # in the row sum(y) + z = 1
    T[-1, :n] = lp.b - RHO_FLOOR
    T[-1, n:n + k] = -lp.eq_rhs
    T[-1, n + k:s] = lp.eq_rhs
    T[-1, -1] = -RHO_FLOOR
    basis = np.arange(s, z + 1)

    if simplex_solve(T, basis) is not SimplexStatus.OPTIMAL:
        raise EqualitiesInfeasible("equality system C x = d is infeasible")
    x = np.maximum(T[-1, s:z], 0.0)
    rho = float(T[-1, z] - RHO_FLOOR)
    status = LPStatus.UNBOUNDED if rho <= -RHO_FLOOR + FLOOR_TOL else LPStatus.OPTIMAL
    return LPSolution(x[r:], x[:r], rho, status)


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
