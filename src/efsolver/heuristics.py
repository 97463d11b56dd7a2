"""Residual-driven splitting heuristics.

Three decisions are made when the LP relaxation reports rho > 0:

* which branch box to split (`select_targets`, array operations over the
  live rows): the row with the largest residual, the oldest box among
  near-ties (split-worst), every row with positive residual, in box id
  order (split-all), or, for the classical round-robin
  baseline, simply the oldest live box in rotation (no residual
  information used at all);

* which interval coefficient to improve, only for the rows actually split
  (`split_coefficient`, which scores every column with `coeff_score`): the
  score width(p_j) * (max(x1_j, x2_j) + epsilon) estimates how much
  shrinking column j moves the residual.  The epsilon term keeps columns
  whose LP value happens to be zero from being starved: with epsilon = 0
  the score degenerates to 0 there and the argmax can stall on a useless
  column forever;

* which box variable to split for that coefficient expression
  (`splitheur`, with ages from `AgeTable`): trial evaluation of both
  midpoint children, scoring each variable by the best achievable
  movement of the targeted bound (upper bound for sign '+', lower for
  '-'), plus an aging credit kappa * width * age that guarantees every
  dimension is picked eventually (fairness, hence convergence).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllDimensionsDegenerate
from .expr import Tape, eval_on_box
from .intervals import midpoint
from .relaxation import LPSolution

RHS_COEFFICIENT = -1  # coefficient marker: improve the right-hand side
TIE_TOL = 1e-9  # relative residual gap below which split-worst rows tie


class Strategy(enum.Enum):
    ROUND_ROBIN = "round-robin"
    SPLIT_WORST = "split-worst"
    SPLIT_ALL = "split-all"

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        for s in cls:
            if s.value == name:
                return s
        raise ValueError(f"unknown strategy {name!r}")


@dataclass
class HeuristicConfig:
    """Tuning knobs for target selection.

    epsilon > 0 is required for the convergence guarantee; epsilon = 0 is
    accepted to allow studying the degenerate behaviour.  aging_kappa = 0
    gives the pure greedy variable choice.
    """

    epsilon: float = 1e-3
    aging_kappa: float = 0.1
    strategy: Strategy = Strategy.SPLIT_ALL

    def __post_init__(self):
        # written so that NaN fails too
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")
        if not (self.aging_kappa >= 0 and math.isfinite(self.aging_kappa)):
            raise ValueError("aging_kappa must be finite and >= 0")


def coeff_score(width, x1, x2, epsilon: float):
    """width * (max(x1, x2) + epsilon), elementwise over scalars or arrays:
    the expected residual improvement from shrinking a coefficient
    enclosure of that width whose column has LP values x1, x2."""
    return width * (np.maximum(x1, x2) + epsilon)


def select_targets(p_width: np.ndarray, q_width: np.ndarray,
                   residual: np.ndarray, cfg: HeuristicConfig) -> np.ndarray:
    """Indices of the rows to split, in preference order.

    p_width (n x r) and q_width (n) are the widths of the coefficient and
    right-hand-side enclosures of the live rows, in box id order.
    Split-all returns every positive-residual row (every improvable row
    when none is positive) in box id order, since it splits them all.
    The single-box strategies return every improvable row in preference
    order (worst residual first; oldest box first for the round-robin
    baseline): the caller splits the first row whose box can still be
    split and ignores the rest.  Rows whose intervals all have zero width
    cannot be improved by splitting and are skipped.

    The rows that bind at the LP optimum have equal residuals in exact
    arithmetic, so under split-worst every row within
    TIE_TOL * max(1, |worst|) of the worst residual ties with it, and the
    older box goes first; LP round-off never decides a split.
    """
    improvable = (p_width > 0).any(axis=1) | (q_width > 0)
    if cfg.strategy is Strategy.ROUND_ROBIN:
        # classical baseline: rotate through the branches (oldest live box
        # first), ignoring the residual information entirely
        return np.flatnonzero(improvable)
    if cfg.strategy is Strategy.SPLIT_ALL:
        violated = np.flatnonzero(improvable & (residual > 0))
        return violated if violated.size else np.flatnonzero(improvable)
    rows = np.flatnonzero(improvable)
    if not rows.size:
        return rows
    key = residual[rows]
    worst = key.max()
    key = np.where(key >= worst - TIE_TOL * max(1.0, abs(worst)), worst, key)
    return rows[np.argsort(-key, kind="stable")]


def split_coefficient(p_width: np.ndarray, sol: LPSolution,
                      cfg: HeuristicConfig) -> tuple[int | None, str | None]:
    """The coefficient to improve in one row returned by select_targets,
    and the bound of its enclosure to target.

    p_width holds the widths of the row's coefficient enclosures.  Returns
    an x index with sign '+' (upper bound) or '-' (lower bound),
    RHS_COEFFICIENT with '-' when only the right-hand side has width
    (raising its lower bound weakens the worst case), or (None, None) for
    round-robin, which chooses the variable without coefficient
    information.
    """
    if cfg.strategy is Strategy.ROUND_ROBIN:
        return None, None
    if not (p_width > 0).any():
        return RHS_COEFFICIENT, "-"
    scores = coeff_score(p_width, sol.x1, sol.x2, cfg.epsilon)
    # zero-width coefficients cannot be tightened; never pick them
    j = int(np.argmax(np.where(p_width > 0, scores, -np.inf)))
    return j, "+" if sol.x1[j] - sol.x2[j] >= 0 else "-"


def splitheur(tape: Tape, slot: int, lo: Sequence[float], hi: Sequence[float],
              base: tuple[float, float], sign: str, ages: Sequence[int],
              kappa: float) -> int:
    """Choose the box dimension whose midpoint split most improves the
    targeted bound of the enclosure of slot `slot` of `tape`.

    lo, hi are the box endpoints and base the (lower, upper) enclosure of
    the slot on the whole box.  Improvement of dimension i is the larger bound
    movement over the two children, each enclosed by one run of the tape
    on the box with one endpoint of dimension i moved to its midpoint.
    An aging credit kappa * width(base) * ages[i] is added so starved
    dimensions win eventually.  Where the largest credit overflows, credits
    and improvements are all scaled by one power of two, which is exact, so
    the scores keep the order of their exact values instead of tying at
    inf.  Dimensions that cannot be split (those without lo < mid < hi)
    are skipped; ties go to the lowest dimension index.
    """
    blo, bhi = base
    upper = sign == "+"
    bound = bhi if upper else blo
    base_width = bhi - blo
    credit, scale = kappa * base_width, 1.0
    oldest = int(max(ages, default=0))
    if math.isinf(credit * max(oldest, 1)) and math.isfinite(base_width):
        # kappa * base_width * oldest < 2**top; scaled, it stays below
        # 2**1000, and so does every scaled improvement
        top = sum(math.frexp(v)[1] for v in (kappa, base_width, oldest))
        scale = math.ldexp(1.0, 1000 - top)
        credit = kappa * scale * base_width
    child_lo, child_hi = list(lo), list(hi)
    best_i = None
    best_score = -1.0
    for i, (l, h) in enumerate(zip(lo, hi)):
        mid = midpoint(l, h)
        if not l < mid < h:
            continue
        improvement = 0.0
        # the lower half [l, mid], then the upper half [mid, h]
        for endpoints, old in ((child_hi, h), (child_lo, l)):
            endpoints[i] = mid
            L, H = eval_on_box(tape, child_lo, child_hi)
            endpoints[i] = old
            movement = abs(bound - (H[slot] if upper else L[slot]))
            improvement = max(improvement, movement)
        score = credit * ages[i] + improvement * scale
        if score > best_score:
            best_score = score
            best_i = i
    if best_i is None:
        raise AllDimensionsDegenerate("no splittable dimension in box")
    return best_i


def round_robin_var(lo: Sequence[float], hi: Sequence[float], counter: int) -> int:
    """Cycle through dimensions, skipping those without lo < mid < hi."""
    s = len(lo)
    for k in range(s):
        i = (counter + k) % s
        if lo[i] < midpoint(lo[i], hi[i]) < hi[i]:
            return i
    raise AllDimensionsDegenerate("no splittable dimension in box")


class AgeTable:
    """Per branch box and tape slot (the expression being improved),
    vectors counting for each box dimension how many variable choices
    have passed since that dimension was chosen.

    Children of a split inherit copies of the parent's vectors.
    """

    def __init__(self):
        self._ages: dict[int, dict[int, np.ndarray]] = {}

    def ages(self, branch_id: int, slot: int, ndims: int) -> np.ndarray:
        per_slot = self._ages.setdefault(branch_id, {})
        vec = per_slot.get(slot)
        if vec is None:
            vec = per_slot[slot] = np.zeros(ndims, dtype=int)
        return vec

    def record_choice(self, branch_id: int, slot: int, ndims: int,
                      chosen: int) -> None:
        ages = self.ages(branch_id, slot, ndims)
        ages += 1
        ages[chosen] = 0

    def inherit(self, parent_id: int, child_ids: Sequence[int]) -> None:
        per_slot = self._ages.pop(parent_id, None)
        if per_slot:
            for cid in child_ids:
                self._ages[cid] = {s: vec.copy() for s, vec in per_slot.items()}
