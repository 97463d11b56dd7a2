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

    One simplex solve over w = (x1, x2, rho').  rho' is free and
    rho = rho' + rho0 with rho0 = -min(min(b), RHO_FLOOR), so every
    inequality right-hand side, the floor's included, is nonnegative, as
    `simplex_solve` requires: the slack basis is immediately feasible and
    phase 1 only works on equality rows.  Raises EqualitiesInfeasible
    when C x = d admits no solution; with the floor the LP is never
    unbounded.
    """
    n, r = lp.n, lp.r
    rho0 = -float(lp.b.min(initial=RHO_FLOOR))
    G = np.zeros((n + 1, 2 * r + 1))
    G[:n, :r] = lp.p_hi
    G[:n, r:2 * r] = -lp.p_lo
    G[:, -1] = -1.0      # the last row is the floor rho >= -RHO_FLOOR
    h = np.append(lp.b + rho0, RHO_FLOOR + rho0)
    C = lp.eq_coeffs
    E = np.hstack([C, -C, np.zeros((C.shape[0], 1))])

    res = simplex_solve(G, h, E, lp.eq_rhs)
    if res.status is not SimplexStatus.OPTIMAL:
        # inequality rows are always satisfiable by a large rho and the
        # floor bounds rho below, so only the equality block can be at fault
        raise EqualitiesInfeasible("equality system C x = d is infeasible")
    rho = float(res.x[-1] + rho0)
    status = LPStatus.UNBOUNDED if rho <= -RHO_FLOOR + FLOOR_TOL else LPStatus.OPTIMAL
    return LPSolution(res.x[:r], res.x[r:2 * r], rho, status)


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
