"""Two-phase primal simplex on a dense tableau, with sparse-row pivots.

Solves   min c.w   s.t.  G w <= h,  E w = f,  w >= 0
with optional free variables (per-variable sign flags), handled internally
by a positive/negative column split.

Pivoting is deterministic: entering column by most negative reduced cost
with lowest-index tie break, leaving row by minimum ratio with
lowest-basis-index tie break.  A run of degenerate pivots switches the
entering rule to Bland's lowest-index rule, which guarantees termination;
ordinary pivots switch back.  Optimality and feasibility tolerances are
1e-9.  The returned point is a vertex (basic solution).

The tableau has one row per constraint plus the objective row, and the
columns [structural | slack | artificial | rhs].  A pivot updates only the
columns where the pivot row is nonzero, so with m rows and k such columns
it costs O(m k) instead of O(m (m + nvar)).  The restriction is exact: in
any other column the full update subtracts colvals[i] * 0.0, which leaves
every finite entry unchanged.  It is also what makes k small: the slack
column of a row that has never been a pivot row is a unit column, so the
pivot row is nonzero only in the structural columns, the slacks of earlier
pivot rows and the rhs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

EPS = 1e-9
_RATIO_TIE = 1e-12
_DEGENERATE_LIMIT = 64


class SimplexStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class SimplexResult:
    status: SimplexStatus
    x: np.ndarray | None = None
    objective: float | None = None


def _as_matrix(m, ncols: int) -> np.ndarray:
    if m is None:
        return np.zeros((0, ncols))
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    return m


def _as_vector(v) -> np.ndarray:
    if v is None:
        return np.zeros(0)
    return np.atleast_1d(np.asarray(v, dtype=float))


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    nz = np.flatnonzero(T[row])
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T[:, nz] -= np.outer(colvals, T[row, nz])
    basis[row] = col


def _choose_entering(zrow: np.ndarray, allowed: int, bland: bool) -> int | None:
    costs = zrow[:allowed]
    if bland:
        idx = np.flatnonzero(costs < -EPS)
        return int(idx[0]) if idx.size else None
    j = int(np.argmin(costs))
    return j if costs[j] < -EPS else None


def _choose_leaving(T: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    m = T.shape[0] - 1
    colvals = T[:m, col]
    eligible = colvals > EPS
    if not eligible.any():
        return None
    rhs = np.maximum(T[:m, -1], 0.0)
    ratios = np.where(eligible, rhs / np.where(eligible, colvals, 1.0), np.inf)
    tied = np.flatnonzero(ratios <= ratios.min() + _RATIO_TIE)
    return int(tied[np.argmin(basis[tied])])


def _run(T: np.ndarray, basis: np.ndarray, allowed: int,
         max_iter: int) -> SimplexStatus:
    """Pivot until optimal or unbounded.  Columns >= `allowed` never enter."""
    bland = False
    degenerate_run = 0
    for _ in range(max_iter):
        col = _choose_entering(T[-1], allowed, bland)
        if col is None:
            return SimplexStatus.OPTIMAL
        row = _choose_leaving(T, basis, col)
        if row is None:
            return SimplexStatus.UNBOUNDED
        before = T[-1, -1]
        _pivot(T, basis, row, col)
        if abs(T[-1, -1] - before) <= EPS * max(1.0, abs(before)):
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    raise RuntimeError("simplex iteration limit exceeded")


def simplex_solve(c, G=None, h=None, E=None, f=None, nonneg=None,
                  max_iter: int = 200_000) -> SimplexResult:
    """Solve min c.w s.t. G w <= h, E w = f, with w_i >= 0 where nonneg[i].

    nonneg defaults to all-True; variables flagged False are free.
    """
    c = _as_vector(c)
    nvar = c.size
    G = _as_matrix(G, nvar)
    h = _as_vector(h)
    E = _as_matrix(E, nvar)
    f = _as_vector(f)
    if nonneg is None:
        nonneg = [True] * nvar
    if G.shape[0] != h.size or E.shape[0] != f.size:
        raise ValueError("constraint matrix/vector shapes disagree")

    # Free variables become differences of two nonnegative columns.
    free_idx = np.array([i for i in range(nvar) if not nonneg[i]], dtype=int)
    n_struct = nvar + free_idx.size
    n_ub, m = G.shape[0], G.shape[0] + E.shape[0]
    n_cols = n_struct + n_ub
    b = np.concatenate([h, f])
    neg = b < 0.0

    # Rows whose slack keeps coefficient +1 start with that slack in the
    # basis; the rest (negated inequality rows, then equality rows) start
    # with an artificial.
    art_rows = np.flatnonzero(np.append(neg[:n_ub], np.ones(m - n_ub, bool)))
    n_art = art_rows.size
    T = np.zeros((m + 1, n_cols + n_art + 1))
    T[:n_ub, :nvar] = G
    T[:n_ub, nvar:n_struct] = -G[:, free_idx]
    T[n_ub:m, :nvar] = E
    T[n_ub:m, nvar:n_struct] = -E[:, free_idx]
    T[np.arange(n_ub), n_struct + np.arange(n_ub)] = 1.0
    T[:m, :n_cols][neg] *= -1.0
    T[:m, -1] = np.abs(b)
    T[art_rows, n_cols + np.arange(n_art)] = 1.0
    basis = n_struct + np.arange(m)
    basis[art_rows] = n_cols + np.arange(n_art)

    if n_art:
        # phase-1 objective: sum of artificials, priced out over the basis
        T[-1, n_cols:n_cols + n_art] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        status = _run(T, basis, n_cols + n_art, max_iter)
        if status is not SimplexStatus.OPTIMAL or -T[-1, -1] > 1e-7:
            return SimplexResult(SimplexStatus.INFEASIBLE)
        # pivot remaining basic artificials out, or drop redundant rows
        keep = np.ones(m + 1, dtype=bool)
        for i in np.flatnonzero(basis >= n_cols):
            cols = np.flatnonzero(np.abs(T[i, :n_cols]) > EPS)
            if cols.size:
                _pivot(T, basis, i, int(cols[0]))
            else:
                keep[i] = False
        # drop the artificial columns by moving the rhs into the first one
        T[:, n_cols] = T[:, -1]
        T = T[:, :n_cols + 1] if keep.all() else T[keep, :n_cols + 1]
        basis = basis[keep[:m]]
        m = basis.size

    # phase 2; basic columns are unit columns, so only the rows whose basic
    # column has a nonzero cost change the priced-out objective row
    T[-1] = 0.0
    T[-1, :n_struct] = np.concatenate([c, -c[free_idx]])
    for i in np.flatnonzero(T[-1, basis]):
        T[-1] -= T[-1, basis[i]] * T[i]
    status = _run(T, basis, n_cols, max_iter)
    if status is SimplexStatus.UNBOUNDED:
        return SimplexResult(SimplexStatus.UNBOUNDED)

    values = np.zeros(n_cols)
    values[basis] = np.maximum(T[:m, -1], 0.0)
    x = values[:nvar].copy()
    x[free_idx] -= values[nvar:n_struct]
    return SimplexResult(SimplexStatus.OPTIMAL, x, float(c @ x))
