"""Residual-driven splitting heuristics.

Three decisions are made when the LP relaxation reports rho > 0:

* which branch box to split (`select_targets`, array operations over the
  live rows' residuals and the mask of the rows that splitting can
  improve, which the solver's live-box table keeps): the row with the
  largest residual, the oldest box among near-ties (split-worst), every
  row with positive residual, in box id order (split-all), or, for the
  classical round-robin baseline, simply the oldest live box in rotation
  (no residual information used at all);

* which interval coefficient to improve, only for the rows actually split
  (`split_coefficient`, which scores each column of the row with
  `coeff_score`'s formula, in floats): the score
  width(p_j) * (max(x1_j, x2_j) + epsilon) estimates how much shrinking
  column j moves the residual.  The epsilon term keeps columns whose LP
  value happens to be zero from being starved: with epsilon = 0 the score
  degenerates to 0 there and the argmax can stall on a useless column
  forever;

* which box variable to split for that coefficient expression
  (`splitheur`, with the ages of the box's `AgeTable`): trial evaluation
  of both midpoint children, scoring each variable by the best achievable
  movement of the targeted bound (upper bound for sign '+', lower for
  '-'), plus an aging credit kappa * width * age that guarantees every
  dimension is picked eventually (fairness, hence convergence).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    accepted to allow studying the degenerate behaviour, and an infinite
    epsilon is not, since it would make every score of a positive width
    inf.  aging_kappa = 0 gives the pure greedy variable choice.
    """

    epsilon: float = 1e-3
    aging_kappa: float = 0.1
    strategy: Strategy = Strategy.SPLIT_ALL

    def __post_init__(self):
        # written so that NaN fails too
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and >= 0")
        if not (self.aging_kappa >= 0 and math.isfinite(self.aging_kappa)):
            raise ValueError("aging_kappa must be finite and >= 0")
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy, not {self.strategy!r}")


def coeff_score(width, x1, x2, epsilon: float):
    """width * (max(x1, x2) + epsilon), elementwise over scalars or arrays:
    the expected residual improvement from shrinking a coefficient
    enclosure of that width whose column has LP values x1, x2.  Where a
    score of a finite width overflows, every score is scaled by one power
    of two, which is exact, so the scores keep the order of their exact
    values instead of tying at inf, as in `splitheur`."""
    width, value = np.asarray(width), np.maximum(x1, x2)
    finite = np.isfinite(width)
    with np.errstate(over="ignore", invalid="ignore"):
        score = width * (value + epsilon)
        if np.isfinite(score[finite]).all():
            return score
        # width < 2**a and value + epsilon < 2**(b + 1) with top = a + b + 1;
        # scaled, every finite-width score stays below 2**1000
        top = (np.frexp(width[finite].max())[1]
               + np.frexp(max(value.max(), epsilon))[1] + 1)
        scale = math.ldexp(1.0, 1000 - int(top))
        return width * (value * scale + epsilon * scale)


def select_targets(improvable: np.ndarray, residual: np.ndarray,
                   cfg: HeuristicConfig) -> np.ndarray:
    """Indices of the rows to split, in preference order.

    improvable (n) marks the live rows, in box id order, with an
    enclosure of positive width among their coefficients or right-hand
    side: rows whose intervals all have zero width cannot be improved by
    splitting and are skipped.  Split-all returns every improvable
    positive-residual row (every improvable row when none is positive) in
    box id order, since it splits them all.  The single-box strategies
    return every improvable row in preference order (worst residual
    first; oldest box first for the round-robin baseline): the caller
    splits the first row whose box can still be split and ignores the
    rest.

    The rows that bind at the LP optimum have equal residuals in exact
    arithmetic, so under split-worst every row within
    TIE_TOL * max(1, |worst|) of the worst residual ties with it, and the
    older box goes first; LP round-off never decides a split.
    """
    if cfg.strategy is Strategy.ROUND_ROBIN:
        # classical baseline: rotate through the branches (oldest live box
        # first), ignoring the residual information entirely
        return improvable.nonzero()[0]
    if cfg.strategy is Strategy.SPLIT_ALL:
        violated = (improvable & (residual > 0)).nonzero()[0]
        return violated if violated.size else improvable.nonzero()[0]
    rows = improvable.nonzero()[0]
    if not rows.size:
        return rows
    key = residual[rows]
    worst = float(key.max())
    key[key >= worst - TIE_TOL * max(1.0, abs(worst))] = worst
    return rows[(-key).argsort(kind="stable")]


def split_coefficient(p_width: Iterable[float], sol: LPSolution,
                      cfg: HeuristicConfig) -> tuple[int | None, str | None]:
    """The coefficient to improve in one row returned by select_targets,
    and the bound of its enclosure to target.

    p_width holds the widths of the row's coefficient enclosures, read
    only when the strategy scores them.  Returns an x index with sign '+'
    (upper bound) or '-' (lower bound), RHS_COEFFICIENT with '-' when
    only the right-hand side has width (raising its lower bound weakens
    the worst case), or (None, None) for round-robin, which chooses the
    variable without coefficient information.  The scores are
    `coeff_score`'s, computed in floats for the one row; the first
    largest wins, a NaN (an infinite width at a zero score factor)
    counting as the largest, as in numpy's argmax.
    """
    if cfg.strategy is Strategy.ROUND_ROBIN:
        return None, None
    widths = list(map(float, p_width))
    x1, x2 = sol.x1.tolist(), sol.x2.tolist()
    scores = [w * (max(v1, v2) + cfg.epsilon) for w, v1, v2 in zip(widths, x1, x2)]
    if not all(map(math.isfinite, scores)) and any(
            math.isfinite(w) and not math.isfinite(s) for w, s in zip(widths, scores)):
        scores = coeff_score(np.array(widths), sol.x1, sol.x2, cfg.epsilon).tolist()
    # zero-width coefficients cannot be tightened; never pick them
    j, best = None, -math.inf
    for i, (w, s) in enumerate(zip(widths, scores)):
        if w > 0 and (s != s or j is None or s > best):
            j, best = i, s
            if s != s:
                break
    if j is None:
        return RHS_COEFFICIENT, "-"
    return j, "+" if x1[j] - x2[j] >= 0 else "-"


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
    """The ages of one branch box: per tape slot (the expression being
    improved), a vector counting for each box dimension how many variable
    choices have passed since that dimension was chosen.

    The children of a split inherit the parent's vectors.
    """

    def __init__(self, ages: dict[int, np.ndarray] | None = None):
        self._ages = {} if ages is None else ages

    def ages(self, slot: int, ndims: int) -> np.ndarray:
        if slot not in self._ages:
            self._ages[slot] = np.zeros(ndims, dtype=int)
        return self._ages[slot]

    def record_choice(self, slot: int, ndims: int, chosen: int) -> None:
        ages = self.ages(slot, ndims)
        ages += 1
        ages[chosen] = 0

    def inherit(self) -> "AgeTable":
        """An independent copy, for a child of this box."""
        return AgeTable({s: vec.copy() for s, vec in self._ages.items()})
