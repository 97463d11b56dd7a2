"""Main solve loop and an independent solution verifier.

The loop keeps the live branch boxes in one table (`_LiveBoxes`), in box
id order, each box as two tuples of float endpoints.  Every branch is
compiled once, when the table is built, into one interval tape
(`simplify.compile_branch`) that all of its boxes share.  Each box is
classified on entry (proved true, proved false, a linear interval row, or
undecided) by running that tape; proved-true boxes leave the table and
linear rows keep their coefficient and right-hand-side endpoints in the
table's arrays.  The loop stops on a proved-false box (no x can exist),
splits undecided boxes on their widest straddling guard, and otherwise
packs the arrays into the residual LP.  One LP both decides solvability
(rho <= 0) and, when infeasible so far, supplies the residuals that drive
target selection.  Chosen boxes are split at the midpoint of the chosen
dimension; the children replace their parent in the table (once per
round under split-all) and the loop repeats until a solution is
certified, infeasibility is proved, or the split/time budget runs out.

The verifier is deliberately independent of the LP pipeline: it
substitutes the numeric solution into each branch formula, compiles the
result once, and proves the universal claim by interval evaluation (the
same three-valued `reduce_formula` the loop uses) with recursive
bisection, sampling box midpoints for counterexamples through the same
walk with a point decider (`reduce_at_point`).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (AllDimensionsDegenerate, DomainError,
                     EqualitiesInfeasible, InvalidProblem,
                     SimplexIterationLimit, SplitDegenerate)
from .expr import Add, Const, Expr, Mul, Sub, eval_on_box
from .heuristics import (RHS_COEFFICIENT, AgeTable, HeuristicConfig,
                         Strategy, round_robin_var, select_targets,
                         split_coefficient, splitheur)
from .intervals import Box, halves, midpoint
from .model import (And, Branch, Formula, Guard, GuardAtom, Linear, Or,
                    Problem, validate_problem)
from .relaxation import (adversarial_lhs, residual_vector, rohn_transform,
                         solve_feasibility)
from .simplify import (BranchStatus, CompiledBranch, LinearRow, Undecided,
                       compile_branch, reduce_at_point, reduce_formula,
                       simplify_branch)
# Unused here, but the benchmark's tracer (perfbench/tracing.py) wraps
# solver.classify_guard; a benchmark change that drops that hook can delete
# this import and simplify.classify_guard.
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
    # guard leaves the mean-value form decided where the natural enclosure
    # straddled zero, summed over every box classified
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
#  classification on the box, round-robin counter)
_Row = tuple[int, CompiledBranch, tuple[float, ...], tuple[float, ...],
             BranchStatus, int]


class _LiveBoxes:
    """The live branch boxes, in id order.

    Each row is a `_Row`.  Every branch is compiled once, and the boxes
    split from it share its tape.  A linear row also keeps the endpoints
    of its coefficient enclosures in p_lo/p_hi (n x r) and of its
    right-hand side in q_lo/q_hi (n); the arrays hold zeros on the other
    rows.  Proved-true boxes never enter.  `split` stages the halves of
    one row; `commit` drops the split rows and appends the staged halves,
    which keeps the id order because new ids are always the largest.
    `false_row` is the first row proved false among those the last commit
    appended, or None; no other row can be false, because the loop stops
    on one.  `undecided` counts the Undecided rows, and
    `guard_tightenings` sums the classifications' tightened counts.
    """

    def __init__(self, problem: Problem):
        self.x_vars = problem.x_vars
        self.next_id = 0
        self.rows: list[_Row] = []
        r = problem.r
        self.p_lo, self.p_hi = np.zeros((0, r)), np.zeros((0, r))
        self.q_lo, self.q_hi = np.zeros(0), np.zeros(0)
        self._split: list[int] = []
        self._staged: list[_Row] = []
        self.false_row: int | None = None
        self.undecided = 0
        self.guard_tightenings = 0
        for br in problem.branches:
            cb = compile_branch(br.formula, br.box.names, self.x_vars)
            self._stage(cb, *br.box.endpoints(), 0)
        self.commit()

    def split(self, i: int, dim: int) -> list[int]:
        """Stage the two halves of row i along dim (a dimension with
        lo < mid < hi); their ids."""
        _, cb, lo, hi, _, rr = self.rows[i]
        children = halves(lo, hi, dim)
        self._split.append(i)
        return [self._stage(cb, *child, rr + 1) for child in children]

    def _stage(self, cb: CompiledBranch, lo: tuple[float, ...],
               hi: tuple[float, ...], rr: int) -> int:
        bid = self.next_id
        self.next_id += 1
        status, tightened = simplify_branch(cb, lo, hi)
        self.guard_tightenings += tightened
        if status is not True:
            self._staged.append((bid, cb, lo, hi, status, rr))
        return bid

    def commit(self) -> None:
        new, split = self._staged, sorted(self._split)
        self.undecided += (sum(isinstance(row[4], Undecided) for row in new)
                           - sum(isinstance(self.rows[i][4], Undecided)
                                 for i in split))
        # the runs of rows between split rows, which keep their order
        kept = [slice(lo, hi) for lo, hi in
                zip([0] + [i + 1 for i in split], split + [len(self.rows)])]
        for i in reversed(split):
            del self.rows[i]
        start = len(self.rows)
        self.rows += new
        self.false_row = next((start + k for k, row in enumerate(new)
                               if row[4] is False), None)
        p_lo = np.zeros((len(new), len(self.x_vars)))
        p_hi, q_lo, q_hi = p_lo.copy(), np.zeros(len(new)), np.zeros(len(new))
        for k, row in enumerate(new):
            status = row[4]
            if isinstance(status, LinearRow):
                p_lo[k], p_hi[k] = status.coeff_lo, status.coeff_hi
                q_lo[k], q_hi[k] = status.rhs_lo, status.rhs_hi
        self.p_lo = np.concatenate([self.p_lo[k] for k in kept] + [p_lo])
        self.p_hi = np.concatenate([self.p_hi[k] for k in kept] + [p_hi])
        self.q_lo = np.concatenate([self.q_lo[k] for k in kept] + [q_lo])
        self.q_hi = np.concatenate([self.q_hi[k] for k in kept] + [q_hi])
        self._split, self._staged = [], []

    def witness(self, i: int) -> Branch:
        _, cb, lo, hi, _, _ = self.rows[i]
        return Branch(Box.from_endpoints(cb.tape.names, lo, hi), cb.formula)


def solve(problem: Problem, config: SolveConfig | None = None) -> SolveOutcome:
    cfg = config or SolveConfig()
    violations = validate_problem(problem)
    if violations:
        raise InvalidProblem(violations)

    t0 = time.perf_counter()
    stats = SolveStats()
    hc = cfg.heuristic
    ages = AgeTable()
    C, d = problem.eq_matrix(), problem.eq_vector()
    live = _LiveBoxes(problem)

    def done(outcome: SolveOutcome) -> SolveOutcome:
        stats.wall_time = time.perf_counter() - t0
        stats.guard_tightenings = live.guard_tightenings
        return outcome

    def spent_budget() -> str | None:
        """Which budget has run out, or None."""
        if stats.splits >= cfg.max_splits:
            return "split budget exhausted"
        if time.perf_counter() - t0 > cfg.time_budget:
            return "time budget exhausted"
        return None

    def choose_dim(i: int, slot: int | None, base: tuple[float, float] | None,
                   sign: str | None) -> int:
        """The dimension of row i's box to split: round-robin without a
        target slot, else the trial-split choice for improving the
        enclosure `base` of that slot of the row's tape.  Both choosers
        return only dimensions with lo < mid < hi."""
        bid, cb, lo, hi, _, rr = live.rows[i]
        if slot is None:
            return round_robin_var(lo, hi, rr)
        vec = ages.ages(bid, slot, len(lo))
        dim = splitheur(cb.cones[slot], slot, lo, hi, base, sign, vec,
                        hc.aging_kappa)
        ages.record_choice(bid, slot, len(lo), dim)
        return dim

    def do_split(i: int, dim: int, coefficient: int | None) -> None:
        bid = live.rows[i][0]
        ages.inherit(bid, live.split(i, dim))
        stats.splits += 1
        stats.split_history.append((bid, coefficient, dim))

    def witness(i: int, reason: str) -> SolveOutcome:
        return SolveOutcome(Outcome.INFEASIBLE, stats, witness=live.witness(i),
                            witness_id=live.rows[i][0], reason=reason)

    while True:
        if live.false_row is not None:
            return done(witness(live.false_row,
                                "a branch is false over its whole box"))

        if live.undecided:
            target = _pick_undecided(live)
            if target is None:
                return done(SolveOutcome(
                    Outcome.BUDGET_EXHAUSTED, stats,
                    reason="undecided branch with degenerate guard enclosures"))
            i, slot, sign, base = target
            spent = spent_budget()
            if spent:
                return done(SolveOutcome(Outcome.BUDGET_EXHAUSTED, stats,
                                         reason=f"{spent} before guard split"))
            if hc.strategy is Strategy.ROUND_ROBIN:
                slot = None
            try:
                do_split(i, choose_dim(i, slot, base, sign), None)
                stats.rounds += 1
            except AllDimensionsDegenerate:
                return done(SolveOutcome(
                    Outcome.BUDGET_EXHAUSTED, stats,
                    reason="cannot split an undecided branch further"))
            live.commit()
            continue

        # every live box is a linear interval row
        lp = rohn_transform(live.p_lo, live.p_hi, live.q_lo, C, d)
        stats.lp_solves += 1
        try:
            sol = solve_feasibility(lp)
        except EqualitiesInfeasible as exc:
            return done(SolveOutcome(Outcome.INFEASIBLE, stats, reason=str(exc)))
        except SimplexIterationLimit as exc:
            return done(SolveOutcome(Outcome.BUDGET_EXHAUSTED, stats,
                                     reason=str(exc)))
        resid = residual_vector(lp, sol)

        if sol.rho <= -ACCEPT_TOL:
            return done(_solution(sol.x, live, stats))

        p_width = live.p_hi - live.p_lo
        targets = select_targets(p_width, live.q_hi - live.q_lo, resid, hc)
        if not len(targets):
            # nothing can be tightened: every row is an exact point system,
            # so the LP verdict is final
            if sol.rho > ACCEPT_TOL:
                return done(witness(int(np.argmax(resid)),
                                    "exact interval system is LP-infeasible"))
            return done(SolveOutcome(
                Outcome.BUDGET_EXHAUSTED, stats,
                reason="numerically marginal rho on an unsplittable system"))

        round_splits = 0
        for i in targets:
            spent = spent_budget()
            if spent:
                return done(SolveOutcome(Outcome.BUDGET_EXHAUSTED, stats,
                                         reason=spent))
            coefficient, sign = split_coefficient(p_width[i], sol, hc)
            cb, row = live.rows[i][1], live.rows[i][4]
            if coefficient is None:
                slot = base = None
            elif coefficient == RHS_COEFFICIENT:
                slot, base = cb.rhs_slot, (row.rhs_lo, row.rhs_hi)
            else:
                slot = cb.coeff_slots[coefficient]
                base = row.coeff_lo[coefficient], row.coeff_hi[coefficient]
            try:
                do_split(i, choose_dim(i, slot, base, sign), coefficient)
                if round_splits == 0:
                    stats.rounds += 1
                round_splits += 1
                if hc.strategy is not Strategy.SPLIT_ALL:
                    break  # single-box strategies split once per iteration
            except AllDimensionsDegenerate:
                continue  # this box is exhausted; try the next target
        if round_splits == 0:
            return done(SolveOutcome(
                Outcome.BUDGET_EXHAUSTED, stats,
                reason="no target branch can be split further"))
        live.commit()


def _pick_undecided(live: _LiveBoxes):
    """The undecided row whose widest guard enclosure (`Undecided.slot`,
    found when the row was classified) is widest overall, the first such
    row on ties: its index, the guard's tape slot, the bound to improve
    ('+' when the upper bound is nearer to deciding the guard) and the
    guard's enclosure.  None when no such enclosure has positive width."""
    best, best_width = None, 0.0
    for i, row in enumerate(live.rows):
        status = row[4]
        if isinstance(status, Undecided) and status.hi - status.lo > best_width:
            best, best_width = i, status.hi - status.lo
    if best is None:
        return None
    status = live.rows[best][4]
    sign = "+" if abs(status.hi) < abs(status.lo) else "-"
    return best, status.slot, sign, (status.lo, status.hi)


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

    Equalities are checked numerically to EQUALITY_TOL.  Each universal
    branch is proved by interval evaluation with recursive bisection up to
    `depth` levels; midpoints are sampled to find counterexamples.  A
    guard without an enclosure on a box (a division by an interval that
    contains zero, say) is undecided there, and a midpoint where a leaf is
    undefined or NaN is no counterexample.  max_boxes caps the total bisection
    work per branch (exceeding it reports Unknown rather than exploring an
    exponential tree).
    """
    x = np.asarray(x, dtype=float)
    C, d = problem.eq_matrix(), problem.eq_vector()
    if C.shape[0]:
        err = np.abs(C @ x - d).max()
        if err > EQUALITY_TOL:
            return VerifyResult(VerifyStatus.COUNTEREXAMPLE,
                                reason=f"equality residual {err:.3g}")

    env = dict(zip(problem.x_vars, (float(v) for v in x)))
    sawunknown = False
    for i, br in enumerate(problem.branches):
        cb = compile_branch(_substitute_x(br.formula, env), br.box.names)
        res = _check_forall(cb, *br.box.endpoints(), depth, [max_boxes])
        if res == "unknown":
            sawunknown = True
        elif res is not None:
            return VerifyResult(VerifyStatus.COUNTEREXAMPLE, branch_id=i,
                                point=res, reason="formula false at point")
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
        for name, coeff in f.atom.coeffs:
            total = Add(total, Mul(Const(env[name]), coeff))
        return Guard(GuardAtom(Sub(total, f.atom.rhs), strict=False))
    return f


def _guard_enclosures(cb: CompiledBranch, lo: tuple[float, ...],
                      hi: tuple[float, ...]) -> tuple[list[float], list[float]]:
    """The guard enclosures of one guard-tape run, or, where that run has
    no enclosure, of one run per guard slot; a slot without an enclosure
    gets [-inf, +inf], which leaves its guard undecided."""
    try:
        return eval_on_box(cb.guards, lo, hi)
    except DomainError:
        pass
    n = len(lo) + len(cb.guards.init)
    L, H = [-math.inf] * n, [math.inf] * n
    for s in set(cb.guard_slot.values()):
        try:
            Ls, Hs = eval_on_box(cb.cones[s], lo, hi)
        except DomainError:
            continue
        L[s], H[s] = Ls[s], Hs[s]
    return L, H


def _check_forall(cb: CompiledBranch, lo: tuple[float, ...],
                  hi: tuple[float, ...], depth: int, budget: list[int]):
    """None when the compiled formula holds on the box [lo, hi], a
    counterexample point, or 'unknown'."""
    budget[0] -= 1
    if budget[0] < 0:
        return "unknown"
    verdict = reduce_formula(cb, *_guard_enclosures(cb, lo, hi))
    if verdict is True:
        return None
    mid = {n: midpoint(l, h) for n, l, h in zip(cb.tape.names, lo, hi)}
    if verdict is False or reduce_at_point(cb, mid) is False:
        return mid
    if depth <= 0:
        return "unknown"
    widths = [h - l for l, h in zip(lo, hi)]
    try:
        children = halves(lo, hi, widths.index(max(widths)))
    except SplitDegenerate:
        return "unknown"
    sawunknown = False
    for child_lo, child_hi in children:
        res = _check_forall(cb, child_lo, child_hi, depth - 1, budget)
        if res == "unknown":
            sawunknown = True
        elif res is not None:
            return res
    return "unknown" if sawunknown else None
