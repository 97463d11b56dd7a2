"""Reference for the exactness tests: the dense two-phase primal simplex
as it was before pivots were restricted to the pivot row's nonzero columns.

Every pivot updates the whole tableau (`T -= np.outer(...)`), the
artificial columns are dropped by an `np.ix_` gather, and the basis is a
list.  `tests/test_simplex.py` requires the sparse-row `efsolver.simplex`
to take the same pivots and return the same status and x.

Solves   min c.w   s.t.  G w <= h,  E w = f,  w >= 0
with optional free variables (per-variable sign flags), handled internally
by a positive/negative column split.  Pivot rules and tolerances are those
of `efsolver.simplex`.
"""

from __future__ import annotations

import numpy as np

from efsolver.simplex import SimplexResult, SimplexStatus

EPS = 1e-9
_RATIO_TIE = 1e-12
_DEGENERATE_LIMIT = 64


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


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    basis[row] = col


def _choose_entering(zrow: np.ndarray, allowed: int, bland: bool) -> int | None:
    costs = zrow[:allowed]
    if bland:
        idx = np.flatnonzero(costs < -EPS)
        return int(idx[0]) if idx.size else None
    j = int(np.argmin(costs))
    return j if costs[j] < -EPS else None


def _choose_leaving(T: np.ndarray, basis: list[int], col: int) -> int | None:
    m = T.shape[0] - 1
    colvals = T[:m, col]
    eligible = colvals > EPS
    if not eligible.any():
        return None
    rhs = np.maximum(T[:m, -1], 0.0)
    ratios = np.where(eligible, rhs / np.where(eligible, colvals, 1.0), np.inf)
    tied = np.flatnonzero(ratios <= ratios.min() + _RATIO_TIE)
    basis_arr = np.asarray(basis)
    return int(tied[np.argmin(basis_arr[tied])])


def _run(T: np.ndarray, basis: list[int], allowed: int, max_iter: int) -> SimplexStatus:
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
    free_idx = [i for i in range(nvar) if not nonneg[i]]
    n_mirror = len(free_idx)
    c_full = np.concatenate([c, -c[free_idx]]) if n_mirror else c.copy()
    G_full = np.hstack([G, -G[:, free_idx]]) if n_mirror else G
    E_full = np.hstack([E, -E[:, free_idx]]) if n_mirror else E

    n_struct = nvar + n_mirror
    n_ub, n_eq = G.shape[0], E.shape[0]
    m = n_ub + n_eq
    n_slack = n_ub

    A = np.zeros((m, n_struct + n_slack))
    b = np.concatenate([h, f])
    A[:n_ub, :n_struct] = G_full
    A[n_ub:, :n_struct] = E_full
    A[:n_ub, n_struct:n_struct + n_ub] = np.eye(n_ub)

    neg = b < 0.0
    A[neg] *= -1.0
    b = np.abs(b)

    # Rows whose slack still has coefficient +1 can start with that slack in
    # the basis; the rest need artificials.
    basis: list[int] = [-1] * m
    art_rows = []
    for i in range(n_ub):
        if not neg[i]:
            basis[i] = n_struct + i
        else:
            art_rows.append(i)
    art_rows.extend(range(n_ub, m))

    n_cols = A.shape[1]
    if art_rows:
        n_art = len(art_rows)
        T = np.zeros((m + 1, n_cols + n_art + 1))
        T[:m, :n_cols] = A
        T[:m, -1] = b
        for k, i in enumerate(art_rows):
            T[i, n_cols + k] = 1.0
            basis[i] = n_cols + k
        # phase-1 objective: sum of artificials, priced out over the basis
        T[-1, n_cols:n_cols + n_art] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        status = _run(T, basis, n_cols + n_art, max_iter)
        if status is not SimplexStatus.OPTIMAL or -T[-1, -1] > 1e-7:
            return SimplexResult(SimplexStatus.INFEASIBLE)
        # pivot remaining basic artificials out, or drop redundant rows
        keep = []
        for i in range(m):
            if basis[i] >= n_cols:
                pivot_col = None
                for j in range(n_cols):
                    if abs(T[i, j]) > EPS:
                        pivot_col = j
                        break
                if pivot_col is None:
                    continue  # redundant row
                _pivot(T, basis, i, pivot_col)
            keep.append(i)
        rows = keep + [m]
        T = T[np.ix_(rows, list(range(n_cols)) + [n_cols + len(art_rows)])]
        basis = [basis[i] for i in keep]
        m = len(keep)
    else:
        T = np.zeros((m + 1, n_cols + 1))
        T[:m, :n_cols] = A
        T[:m, -1] = b

    # phase 2
    T[-1, :] = 0.0
    T[-1, :n_struct] = c_full
    for i in range(m):
        if abs(T[-1, basis[i]]) > 0.0:
            T[-1] -= T[-1, basis[i]] * T[i]
    status = _run(T, basis, n_cols, max_iter)
    if status is SimplexStatus.UNBOUNDED:
        return SimplexResult(SimplexStatus.UNBOUNDED)

    values = np.zeros(n_cols)
    for i in range(m):
        values[basis[i]] = max(T[i, -1], 0.0)
    x = values[:nvar].copy()
    for k, i in enumerate(free_idx):
        x[i] -= values[nvar + k]
    return SimplexResult(SimplexStatus.OPTIMAL, x)
