"""Two-phase primal simplex on a compact tableau.

Solves   min c.w   s.t.  G w <= h,  E w = f,  w >= 0
with optional free variables (per-variable sign flags), handled internally
by a positive/negative column split.

Pivoting is deterministic: entering column by most negative reduced cost
with lowest-index tie break, leaving row by minimum ratio with
lowest-basis-index tie break.  A run of degenerate pivots switches the
entering rule to Bland's lowest-index rule, which guarantees termination;
ordinary pivots switch back.  Optimality and feasibility tolerances are
1e-9.  The returned point is a vertex (basic solution).

The full tableau has one row per constraint plus the objective row, and
the columns [structural | slack | artificial | rhs], one slack per
inequality row.  The compact tableau keeps only the columns a pivot can
touch:

* the structural columns, the negative half of each free variable included;
* the slack columns of negated (b < 0) rows and the artificials;
* the rhs;
* the slack of an ordinary inequality row, opened (materialised as the
  unit column e_i) just before row i first becomes a pivot row.

An unopened slack can be left out because it is exactly e_i with objective
entry 0 while row i has never been a pivot row: a pivot in another row sees
a zero in it, so the update leaves it unchanged; its reduced cost 0 is never
below -EPS, so it never enters; and row i's basic variable is that slack,
whose cost is 0 in both phases.  With m rows the width is the number of
structural, negated-slack and artificial columns, plus one, plus the rows
pivoted so far, instead of growing with m; no allocation scales with m * m.

A pivot updates the whole compact tableau with one broadcast product.  That
is the full update restricted to the kept columns, and it is exact: in a
column where the pivot row is zero it subtracts colvals[i] * 0.0, which
leaves every finite entry unchanged (a zero may at most change sign).  The
tableau is stored column-major, so the ratio test reads contiguous columns
and opening a slack moves contiguous blocks.

Tie-breaks are those of the full tableau.  The kept columns stay sorted by
their original column id (an opened slack is inserted at its sorted place),
so argmin's first occurrence and Bland's lowest index still mean the lowest
original id, and the basis records original ids, so the leaving rule's
lowest-basis-index tie break is unchanged.  The pivots are thus those of the
full tableau, with the same float arithmetic on every entry they read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import SimplexIterationLimit

EPS = 1e-9
_RATIO_TIE = 1e-12
_DEGENERATE_LIMIT = 64
_SPARE = 16  # room for opened slacks before the tableau is reallocated
MAX_ITER = 200_000  # pivots per phase before SimplexIterationLimit


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


class _Tableau:
    """The kept columns buf[:, :width], sorted by original id with the rhs
    last, column-major so that a column is contiguous; ids[:width] are
    their original ids.  basis[i] is the original id of row i's basic
    column, closed[i] the original id of row i's unopened slack, or -1."""

    def __init__(self, buf: np.ndarray, width: int, ids: np.ndarray,
                 basis: np.ndarray, closed: np.ndarray):
        self.buf = buf
        self.work = np.empty_like(buf)
        self.width = width
        self.ids = ids
        self.basis = basis
        self.closed = closed

    @property
    def T(self) -> np.ndarray:
        return self.buf[:, :self.width]

    def pivot(self, row: int, col: int) -> None:
        """Pivot on (row, col), opening row's slack first if need be."""
        if self.closed[row] >= 0:
            col = self._open(row, col)
        w = self.width
        _pivot(self.buf[:, :w], self.basis, row, col, self.ids,
               self.work[:, :w])

    def _open(self, row: int, col: int) -> int:
        """Insert row's unopened slack as e_row at its sorted place; return
        the new index of column `col`."""
        w = self.width
        if w == self.buf.shape[1]:
            buf = np.zeros((2 * w, self.buf.shape[0])).T
            buf[:, :w] = self.buf
            self.buf, self.work = buf, np.empty_like(buf)
            self.ids = np.resize(self.ids, 2 * w)
        buf, ids, sid = self.buf, self.ids, self.closed[row]
        pos = int(ids[:w - 1].searchsorted(sid))
        buf[:, pos + 1:w + 1] = buf[:, pos:w]
        buf[:, pos] = 0.0
        buf[row, pos] = 1.0
        ids[pos + 1:w + 1] = ids[pos:w]
        ids[pos] = sid
        self.width = w + 1
        self.closed[row] = -1
        return col + 1 if col >= pos else col

    def drop_rows(self, keep: np.ndarray) -> None:
        """Keep the constraint rows where keep[:-1] and the objective row."""
        self.buf = np.asfortranarray(self.buf[keep])
        self.work = np.empty_like(self.buf)
        self.basis = self.basis[keep[:-1]]
        self.closed = self.closed[keep[:-1]]


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int,
           ids: np.ndarray, work: np.ndarray) -> None:
    """Pivot T on (row, col); `work` is scratch of T's shape and layout."""
    prow = T[row] / T[row, col]
    np.multiply(T[:, col, None], prow, out=work)
    T -= work
    T[row] = prow
    basis[row] = ids[col]


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


def _run(tab: _Tableau) -> SimplexStatus:
    """Pivot until optimal or unbounded; every kept column may enter."""
    bland = False
    degenerate_run = 0
    for _ in range(MAX_ITER):
        T = tab.T
        col = _choose_entering(T[-1, :-1], bland)
        if col is None:
            return SimplexStatus.OPTIMAL
        row = _choose_leaving(T, tab.basis, col)
        if row is None:
            return SimplexStatus.UNBOUNDED
        before = T[-1, -1]
        tab.pivot(row, col)
        if abs(tab.T[-1, -1] - before) <= EPS * max(1.0, abs(before)):
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_LIMIT:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    raise SimplexIterationLimit(
        f"simplex iteration limit reached ({MAX_ITER} pivots in one phase)")


def simplex_solve(c, G=None, h=None, E=None, f=None,
                  nonneg=None) -> SimplexResult:
    """Solve min c.w s.t. G w <= h, E w = f, with w_i >= 0 where nonneg[i].

    nonneg defaults to all-True; variables flagged False are free.  A
    phase that does not finish within MAX_ITER pivots raises
    SimplexIterationLimit.
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
    free_idx = np.array([i for i, keep in enumerate(nonneg) if not keep],
                        dtype=int)
    n_struct = nvar + free_idx.size
    n_ub, m = G.shape[0], G.shape[0] + E.shape[0]
    n_cols = n_struct + n_ub  # original ids: structural, slacks, artificials
    b = np.concatenate([h, f])
    neg = b < 0.0
    neg_ub = np.flatnonzero(neg[:n_ub])

    # Rows whose slack keeps coefficient +1 start with that slack in the
    # basis, unopened; the rest (negated inequality rows, then equality
    # rows) start with an artificial, and a negated row keeps its slack.
    n_art = neg_ub.size + m - n_ub
    art0 = n_struct + neg_ub.size
    width = art0 + n_art + 1
    buf = np.zeros((width + _SPARE, m + 1)).T
    buf[:n_ub, :nvar] = G
    buf[n_ub:m, :nvar] = E
    buf[:m, nvar:n_struct] = -buf[:m, free_idx]
    buf[:m, width - 1] = np.abs(b)
    ids = np.arange(width + _SPARE)
    ids[art0:] += n_cols - art0
    basis = np.arange(n_struct, n_struct + m)
    closed = basis.copy()
    art_rows = np.arange(n_ub, m)
    if neg.any():
        buf[neg_ub, n_struct + np.arange(neg_ub.size)] = 1.0
        buf[:m, :art0][neg] *= -1.0
        ids[n_struct:art0] = n_struct + neg_ub
        art_rows = np.concatenate([neg_ub, art_rows])
    buf[art_rows, art0 + np.arange(n_art)] = 1.0
    basis[art_rows] = n_cols + np.arange(n_art)
    closed[art_rows] = -1
    tab = _Tableau(buf, width, ids, basis, closed)

    if n_art:
        # phase-1 objective: sum of artificials, priced out over the basis
        T = tab.T
        T[-1, art0:-1] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        status = _run(tab)
        T = tab.T
        if status is not SimplexStatus.OPTIMAL or -T[-1, -1] > 1e-7:
            return SimplexResult(SimplexStatus.INFEASIBLE)
        # Pivot remaining basic artificials out, or drop redundant rows.  A
        # row with a basic artificial has been a pivot row or starts with
        # its artificial, so it has no unopened slack to open.
        art0 = tab.width - 1 - n_art
        keep = np.ones(m + 1, dtype=bool)
        for i in np.flatnonzero(tab.basis >= n_cols):
            cols = np.flatnonzero(np.abs(T[i, :art0]) > EPS)
            if cols.size:
                tab.pivot(i, int(cols[0]))
            else:
                keep[i] = False
        if not keep.all():
            tab.drop_rows(keep)
        # drop the artificial columns, which sort last, by moving the rhs
        # into the first one
        tab.buf[:, art0] = tab.buf[:, tab.width - 1]
        tab.ids[art0] = n_cols
        tab.width = art0 + 1

    # phase 2; basic columns are unit columns and only structural ones have
    # a cost, so only their rows change the priced-out objective row (a
    # structural column's compact index is its original id)
    T = tab.T
    T[-1] = 0.0
    T[-1, :n_struct] = np.concatenate([c, -c[free_idx]])
    cost = np.zeros(n_cols)
    cost[:n_struct] = T[-1, :n_struct]
    basis = tab.basis
    for i in np.flatnonzero(cost[basis]):
        T[-1] -= T[-1, basis[i]] * T[i]
    status = _run(tab)
    if status is SimplexStatus.UNBOUNDED:
        return SimplexResult(SimplexStatus.UNBOUNDED)

    values = np.zeros(n_cols)
    values[tab.basis] = np.maximum(tab.T[:-1, -1], 0.0)
    x = values[:nvar].copy()
    x[free_idx] -= values[nvar:n_struct]
    return SimplexResult(SimplexStatus.OPTIMAL, x, float(c @ x))
