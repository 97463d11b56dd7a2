"""Main solve loop and an independent solution verifier.

The loop keeps the live branch boxes in one table (`_LiveBoxes`), in box
id order, each box as two tuples of float endpoints.  Every branch is
compiled once, when the table is built, into one interval tape
(`simplify.compile_branch`) that all of its boxes share.  Each box is
classified on entry (proved true, proved false, a linear interval row, or
undecided) by running that tape; proved-true boxes leave the table and
linear rows keep their coefficient and right-hand-side endpoints in the
table's arrays.  The loop stops on a proved-false box (no x can exist).
Otherwise each iteration takes its split targets from one of two
sources: the widest straddling guard while any box is undecided, else
the residual LP built from the arrays.  One LP both decides solvability
(rho <= 0) and, when infeasible so far, supplies the residuals that
select the target rows.  Each LP starts from the previous one's optimal
dual tableau, whose columns are keyed by box id; a warm solve that
would decide the run (rho <= -ACCEPT_TOL, or no row left to improve) is
repeated cold, so every verdict and every reported x come from a cold
solve.  Both sources feed one split loop: each target
box is split at the midpoint of the chosen dimension, the children
replace their parent in the table (once per round under split-all), and
the loop repeats until a solution is certified, infeasibility is proved,
or the split/time budget runs out.

The verifier is deliberately independent of the LP pipeline: it
substitutes the numeric solution into each branch formula, compiles the
result once, and proves the universal claim by interval evaluation (the
same three-valued `reduce_formula` the loop uses), bisecting the boxes it
cannot decide depth first from one work list per branch, and sampling
box midpoints for counterexamples through the same walk with a point
decider (`reduce_at_point`).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (AllDimensionsDegenerate, EqualitiesInfeasible,
                     InvalidProblem, LPOverflow, SimplexIterationLimit,
                     SplitDegenerate)
from .expr import Add, Const, Expr, Mul, Sub
from .heuristics import (RHS_COEFFICIENT, AgeTable, HeuristicConfig,
                         Strategy, round_robin_var, select_targets,
                         split_coefficient, split_coefficients, splitheur)
from .intervals import Box, halves, midpoint
from .model import (And, Branch, Formula, Guard, Linear, Or, Problem,
                    validate_problem)
from .relaxation import (DualTableau, LPSolution, adversarial_lhs,
                         residual_vector, rohn_transform, solve_feasibility)
from .simplify import (BranchStatus, CompiledBranch, LinearRow, Runs,
                       Undecided, compile_branch, guard_enclosures,
                       reduce_at_point, reduce_formula, simplify_branch)
# Unused here, but the benchmark's tracer (perfbench/tracing.py) wraps
# solver.classify_guard and solver.eval_on_box; a benchmark change that
# drops those hooks can delete these imports and simplify.classify_guard.
from .expr import eval_on_box  # noqa: F401
from .simplify import classify_guard  # noqa: F401

ACCEPT_TOL = 1e-9
EQUALITY_TOL = 1e-7


@dataclass
class SolveConfig:
    heuristic: HeuristicConfig = field(default_factory=HeuristicConfig)
    max_splits: int = 10_000
    time_budget: float = 120.0

    def __post_init__(self):
        if not self.max_splits >= 0:
            raise ValueError("max_splits must be >= 0")
        if not self.time_budget >= 0:
            raise ValueError("time_budget must be >= 0")


class Outcome(enum.Enum):
    SOLUTION = "solution"
    INFEASIBLE = "infeasible"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class SolveStats:
    splits: int = 0
    rounds: int = 0  # iterations that performed at least one split
    lp_solves: int = 0
    pivots: int = 0  # simplex pivots over every LP solve, cold and warm
    # guard leaves the walk reached that the mean-value form decided where
    # the natural enclosure straddled zero, summed over every box classified
    guard_tightenings: int = 0
    wall_time: float = 0.0
    # (branch_id, coefficient index or RHS_COEFFICIENT or None, dimension)
    split_history: list[tuple[int, int | None, int]] = field(default_factory=list)


@dataclass
class SolveOutcome:
    outcome: Outcome
    stats: SolveStats
    x: np.ndarray | None = None
    certificate: list[dict] | None = None
    witness: Branch | None = None
    witness_id: int | None = None
    reason: str = ""

    @property
    def is_solution(self) -> bool:
        return self.outcome is Outcome.SOLUTION


# (id, compiled branch, box lower endpoints, box upper endpoints,
#  classification on the box, round-robin counter, ages, the box's runs)
_Row = tuple[int, CompiledBranch, tuple[float, ...], tuple[float, ...],
             BranchStatus, int, AgeTable, Runs]


class _LiveBoxes:
    """The live branch boxes, in id order.

    Each row is a `_Row`.  Every branch is compiled once, and the boxes
    split from it share its tape; a box's children inherit its ages.  A
    row keeps the slot lists of the runs that classified its box
    (`simplify.Runs`): of the guard tape where that run was whole, and of
    the linear tape where it ran.  A child of the row is classified from
    them, re-running only the operations that depend on the split
    dimension, and the row's trial splits read them.  A linear row also
    keeps its endpoints in `ends`, an n x (2r + 2) block whose rows are
    laid out as `LinearRow.ends` (the coefficients' and the right-hand
    side's lower endpoints, then their upper endpoints; zeros on the
    other rows); p_lo/p_hi (n x r) and q_lo/q_hi (n) are views of its
    columns.  `improvable` (n) marks the linear rows with an enclosure of
    positive width, the rows splitting can improve.  Proved-true boxes
    never enter.
    `split` stages the halves of one row; `commit` drops the split rows
    and appends the staged halves, which keeps the id order because new
    ids are always the largest.  It works out `improvable` for the new
    rows only, with one comparison on their block, and keeps the other
    rows by joining the runs between the split ones, or with one mask
    when many rows leave.
    `false_row` is the first row proved false among those the last commit
    appended, or None; no other row can be false, because the loop stops
    on one.  `undecided` counts the Undecided rows, and
    `guard_tightenings` sums the classifications' tightened counts.
    `keys` holds the rows' box ids, which key the residual LP's rows.
    """

    def __init__(self, problem: Problem):
        self.x_vars = problem.x_vars
        self.next_id = 0
        self.rows: list[_Row] = []
        self.ends = np.zeros((0, 2 * problem.r + 2))
        self.improvable = np.zeros(0, dtype=bool)
        self.keys = np.zeros(0, dtype=np.intp)
        self._split: list[int] = []
        self._staged: list[_Row] = []
        self.false_row: int | None = None
        self.undecided = 0
        self.guard_tightenings = 0
        for br in problem.branches:
            cb = compile_branch(br.formula, br.box.names, self.x_vars)
            self._stage(cb, *br.box.endpoints(), 0, AgeTable())
        self.commit()

    @property
    def p_lo(self) -> np.ndarray:
        return self.ends[:, :len(self.x_vars)]

    @property
    def p_hi(self) -> np.ndarray:
        return self.ends[:, len(self.x_vars) + 1:-1]

    @property
    def q_lo(self) -> np.ndarray:
        return self.ends[:, len(self.x_vars)]

    @property
    def q_hi(self) -> np.ndarray:
        return self.ends[:, -1]

    def split(self, i: int, dim: int) -> None:
        """Stage the two halves of row i along dim (a dimension with
        lo < mid < hi).  The first half takes the row's ages, which is
        safe because the row leaves at `commit`, the second a copy."""
        _, cb, lo, hi, _, rr, ages, runs = self.rows[i]
        self._split.append(i)
        for child, table in zip(halves(lo, hi, dim), (ages, ages.inherit())):
            self._stage(cb, *child, rr + 1, table, runs, dim)

    def _stage(self, cb: CompiledBranch, lo: tuple[float, ...],
               hi: tuple[float, ...], rr: int, ages: AgeTable,
               parent: Runs | None = None, dim: int | None = None) -> None:
        status, tightened, runs = simplify_branch(cb, lo, hi, parent, dim)
        self.guard_tightenings += tightened
        if status is not True:
            self._staged.append((self.next_id, cb, lo, hi, status, rr, ages, runs))
        self.next_id += 1

    def commit(self) -> None:
        new, split, rows = self._staged, sorted(self._split), self.rows
        for i in split:
            self.undecided -= isinstance(rows[i][4], Undecided)
        if len(split) > _MASK_SPLITS:
            mask = np.ones(len(rows), dtype=bool)
            mask[split] = False
            self.rows = rows = [row for row, keep in zip(rows, mask.tolist()) if keep]
            kept = [mask]
        else:
            # the runs of rows between split rows, which keep their order
            kept = [slice(lo, hi) for lo, hi in
                    zip([0, *[i + 1 for i in split]], [*split, len(rows)])]
            for i in reversed(split):
                del rows[i]
        start = len(rows)
        rows += new
        self.false_row = None
        width = self.ends.shape[1]
        zero = (0.0,) * width
        ends = []
        for k, row in enumerate(new):
            status = row[4]
            if isinstance(status, LinearRow):
                ends.append(status.ends)
                continue
            ends.append(zero)
            self.undecided += isinstance(status, Undecided)
            if status is False and self.false_row is None:
                self.false_row = start + k
        block = np.fromiter(chain.from_iterable(ends), float,
                            len(new) * width).reshape(len(new), width)
        half = width // 2
        # lo < hi for doubles exactly when hi - lo > 0, an infinite
        # difference included
        improvable = (block[:, :half] < block[:, half:]).any(axis=1)
        self.ends = np.concatenate([self.ends[k] for k in kept] + [block])
        self.improvable = np.concatenate([self.improvable[k] for k in kept]
                                         + [improvable])
        self.keys = np.concatenate([self.keys[k] for k in kept]
                                   + [np.array([row[0] for row in new], dtype=np.intp)])
        self._split, self._staged = [], []

    def witness(self, i: int) -> Branch:
        _, cb, lo, hi, *_ = self.rows[i]
        return Branch(Box.from_endpoints(cb.tape.names, lo, hi), cb.formula)


# A commit that drops more rows than this keeps the others with one mask,
# which is faster than joining the runs between them from about here on
_MASK_SPLITS = 8


def solve(problem: Problem, config: SolveConfig | None = None) -> SolveOutcome:
    cfg = config or SolveConfig()
    violations = validate_problem(problem)
    if violations:
        raise InvalidProblem(violations)

    t0 = time.perf_counter()
    stats = SolveStats()
    hc = cfg.heuristic
    C, d = problem.eq_matrix(), problem.eq_vector()
    live = _LiveBoxes(problem)
    dual, pivots = DualTableau(), [0]

    def done(outcome: SolveOutcome) -> SolveOutcome:
        stats.wall_time = time.perf_counter() - t0
        stats.guard_tightenings = live.guard_tightenings
        stats.pivots = pivots[0]
        return outcome

    def stop(reason: str) -> SolveOutcome:
        return done(SolveOutcome(Outcome.BUDGET_EXHAUSTED, stats, reason=reason))

    def spent_budget() -> str | None:
        """Which budget has run out, or None."""
        if stats.splits >= cfg.max_splits:
            return "split budget exhausted"
        if time.perf_counter() - t0 > cfg.time_budget:
            return "time budget exhausted"
        return None

    def split(i: int, slot: int | None, sign: str | None,
              base: tuple[float, float] | None, coefficient: int | None) -> bool:
        """Split row i's box along a dimension with lo < mid < hi: the
        trial-split choice for improving the enclosure `base` of that slot
        of the row's tape; round-robin without a target slot, under
        round-robin, or where `base` has no finite width, which
        `splitheur` cannot score.  False when no dimension can be split."""
        bid, cb, lo, hi, status, rr, ages, runs = live.rows[i]
        try:
            if (slot is None or hc.strategy is Strategy.ROUND_ROBIN
                    or not math.isfinite(base[1] - base[0])):
                dim = round_robin_var(lo, hi, rr)
            else:
                # an LP target's slot is in the linear run, a guard's in
                # the guard run
                run = runs[1] if isinstance(status, LinearRow) else runs[0]
                dim = splitheur(cb.cones[slot], slot, lo, hi, base, sign,
                                ages.ages(slot, len(lo)), hc.aging_kappa, run)
                ages.record_choice(slot, len(lo), dim)
        except AllDimensionsDegenerate:
            return False
        live.split(i, dim)
        stats.splits += 1
        stats.split_history.append((bid, coefficient, dim))
        return True

    def witness(i: int, reason: str) -> SolveOutcome:
        return SolveOutcome(Outcome.INFEASIBLE, stats, witness=live.witness(i),
                            witness_id=live.rows[i][0], reason=reason)

    while True:
        if live.false_row is not None:
            return done(witness(live.false_row,
                                "a branch is false over its whole box"))

        # targets (row, slot, sign, base, coefficient): the widest undecided
        # guard while any box is undecided, else the LP's rows, scored
        # lazily, or all at once under split-all, which splits them all
        if live.undecided:
            targets = [(*_pick_undecided(live), None)]
            suffix = " before guard split"
            exhausted = "cannot split an undecided branch further"
        else:
            # every live box is a linear interval row
            lp = rohn_transform(live.p_lo, live.p_hi, live.q_lo, C, d, live.keys)
            warm = dual
            while True:
                stats.lp_solves += 1
                try:
                    sol = solve_feasibility(lp, warm, pivots)
                except EqualitiesInfeasible as exc:
                    return done(SolveOutcome(Outcome.INFEASIBLE, stats,
                                             reason=str(exc)))
                except (SimplexIterationLimit, LPOverflow) as exc:
                    return stop(str(exc))
                resid = residual_vector(lp, sol)
                rows = (select_targets(live.improvable, resid, hc)
                        if sol.rho > -ACCEPT_TOL else ())
                # a verdict rests on a cold solve: solve a warm one's LP
                # again from scratch, keeping the saved tableau
                if not sol.warm or len(rows):
                    break
                warm = None

            if sol.rho <= -ACCEPT_TOL:
                return done(_solution(sol.x, live, stats))
            if not len(rows):
                # nothing can be tightened: every row is an exact point
                # system, so the LP verdict is final
                if sol.rho > ACCEPT_TOL:
                    return done(witness(int(np.argmax(resid)),
                                        "exact interval system is LP-infeasible"))
                return stop("numerically marginal rho on an unsplittable system")
            targets = (_lp_targets(live, rows, sol, hc)
                       if hc.strategy is Strategy.SPLIT_ALL
                       else (_lp_target(live, i, sol, hc) for i in rows))
            suffix = ""
            exhausted = "no target branch can be split further"

        splits = stats.splits
        for target in targets:
            spent = spent_budget()
            if spent:
                return stop(spent + suffix)
            # a box that cannot be split is exhausted; try the next target
            if split(*target) and hc.strategy is not Strategy.SPLIT_ALL:
                break  # single-box strategies split once per iteration
        if stats.splits == splits:
            return stop(exhausted)
        stats.rounds += 1
        live.commit()


def _pick_undecided(live: _LiveBoxes):
    """The undecided row whose widest guard enclosure (`Undecided.slot`,
    found when the row was classified) is widest overall, the first such
    row on ties: its index, the guard's tape slot, the bound to improve
    ('+' when the upper bound is nearer to deciding the guard) and the
    guard's enclosure.  Called only while some row is Undecided."""
    rows = live.rows
    best = max((i for i, row in enumerate(rows) if isinstance(row[4], Undecided)),
               key=lambda i: rows[i][4].hi - rows[i][4].lo)
    status = rows[best][4]
    sign = "+" if abs(status.hi) < abs(status.lo) else "-"
    return best, status.slot, sign, (status.lo, status.hi)


def _lp_target(live: _LiveBoxes, i: int, sol: LPSolution,
               hc: HeuristicConfig):
    """Row i as a split target (row, slot, sign, base, coefficient): the
    coefficient `split_coefficient` picks from the widths of the row's
    coefficient enclosures, its tape slot and its enclosure on the box;
    no slot or base without a coefficient."""
    row = live.rows[i][4]
    return _target(live, i, *split_coefficient(
        (hi - lo for lo, hi in zip(row.coeff_lo, row.coeff_hi)), sol, hc))


def _lp_targets(live: _LiveBoxes, rows: np.ndarray, sol: LPSolution,
                hc: HeuristicConfig) -> list:
    """Every row of `rows` as a split target, as `_lp_target` gives it,
    the coefficients chosen by `split_coefficients` in one array pass."""
    with np.errstate(over="ignore"):  # an infinite width is a width
        widths = live.p_hi[rows] - live.p_lo[rows]
    return [_target(live, i, coefficient, sign) for i, (coefficient, sign)
            in zip(rows.tolist(), split_coefficients(widths, sol, hc))]


def _target(live: _LiveBoxes, i: int, coefficient: int | None, sign: str | None):
    """Row i as a split target for `coefficient`, with the slot's enclosure
    from the row's linear run."""
    if coefficient is None:
        return i, None, sign, None, None
    row = live.rows[i]
    cb, (L, H) = row[1], row[7][1]
    slot = cb.rhs_slot if coefficient == RHS_COEFFICIENT else cb.coeff_slots[coefficient]
    return i, slot, sign, (L[slot], H[slot]), coefficient


def _solution(x, live: _LiveBoxes, stats: SolveStats) -> SolveOutcome:
    """A solution and its certificate: the worst case of every live row at x."""
    x = np.asarray(x, dtype=float)
    lhs = adversarial_lhs(live.p_lo, live.p_hi, x)
    certificate = [
        {"branch_id": bid, "worst_lhs": float(v), "rhs_lo": float(q),
         "margin": float(q - v)}
        for (bid, *_), v, q in zip(live.rows, lhs, live.q_lo)]
    return SolveOutcome(Outcome.SOLUTION, stats, x=x, certificate=certificate)


# -- independent verification -------------------------------------------------

class VerifyStatus(enum.Enum):
    VERIFIED = "verified"
    COUNTEREXAMPLE = "counterexample"
    UNKNOWN = "unknown"


@dataclass
class VerifyResult:
    status: VerifyStatus
    branch_id: int | None = None
    point: dict[str, float] | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.status is VerifyStatus.VERIFIED


def verify_solution(problem: Problem, x, depth: int = 25,
                    max_boxes: int = 200_000) -> VerifyResult:
    """Check a candidate x against the problem, independently of the LP.

    x holds one value per existential variable (ValueError otherwise).
    Equalities are checked numerically to EQUALITY_TOL, and a NaN or
    infinite value is a counterexample.  Each universal branch is proved
    by interval evaluation, bisecting up to `depth` levels, depth first
    from a work list that holds (lo, hi, depth left) and pops the lower
    half first; midpoints are sampled to find counterexamples.  A guard
    without an enclosure on a box (a division by an interval that
    contains zero, say) is undecided there, and a midpoint where a leaf
    is undefined or NaN is no counterexample.  max_boxes caps the boxes
    examined per branch (exceeding it reports Unknown rather than
    exploring an exponential tree).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.r,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.r},)")
    C, d = problem.eq_matrix(), problem.eq_vector()
    if C.shape[0]:
        err = np.abs(C @ x - d).max()
        if not err <= EQUALITY_TOL:  # written so that NaN fails too
            return VerifyResult(VerifyStatus.COUNTEREXAMPLE,
                                reason=f"equality residual {err:.3g}")
    for name, v in zip(problem.x_vars, x):
        if not math.isfinite(v):
            return VerifyResult(VerifyStatus.COUNTEREXAMPLE,
                                reason=f"{name} = {v} is not finite")

    env = dict(zip(problem.x_vars, (float(v) for v in x)))
    sawunknown = False
    for i, br in enumerate(problem.branches):
        cb = compile_branch(_substitute_x(br.formula, env), br.box.names)
        work, boxes = [(*br.box.endpoints(), depth)], max_boxes
        while work and boxes > 0:
            boxes -= 1
            lo, hi, left = work.pop()
            verdict = reduce_formula(cb, *guard_enclosures(cb, lo, hi)[:2])
            if verdict is True:
                continue
            mid = {n: midpoint(l, h) for n, l, h in zip(cb.tape.names, lo, hi)}
            if verdict is False or reduce_at_point(cb, mid) is False:
                return VerifyResult(VerifyStatus.COUNTEREXAMPLE, branch_id=i,
                                    point=mid, reason="formula false at point")
            widths = [h - l for l, h in zip(lo, hi)]
            try:
                children = (halves(lo, hi, widths.index(max(widths)))
                            if left > 0 else ())
            except SplitDegenerate:
                children = ()
            sawunknown = sawunknown or not children
            work += [(*child, left - 1) for child in reversed(children)]
        sawunknown = sawunknown or bool(work)
    if sawunknown:
        return VerifyResult(VerifyStatus.UNKNOWN, reason="bisection depth limit")
    return VerifyResult(VerifyStatus.VERIFIED)


def _substitute_x(f: Formula, env: dict[str, float]) -> Formula:
    if isinstance(f, And):
        return And(tuple(_substitute_x(i, env) for i in f.items))
    if isinstance(f, Or):
        return Or(tuple(_substitute_x(i, env) for i in f.items))
    if isinstance(f, Linear):
        total: Expr = Const(0.0)
        for name, coeff in f.coeffs:
            total = Add(total, Mul(Const(env[name]), coeff))
        return Guard(Sub(total, f.rhs))
    return f
