"""Branch simplification: decide guards by interval evaluation, reduce the
Boolean structure in three values, and classify each branch box.

The three values are Python's True, False and None (undecided), and one
walk (`_reduce`) evaluates every formula in them, strong Kleene style,
with a leaf decider: `simplify_branch` decides the guard leaves from
slot enclosures on a box, narrowed where they straddle (below), for the
solver's classification; `reduce_formula` from slot enclosures alone,
for the verifier's boxes; and `reduce_at_point` from float values at a
point, for the verifier's midpoints.

A guard "body <= 0" over a box B is decided from I = enclosure of body on
B: true when hi(I) <= 0, false when lo(I) > 0, undecided otherwise.  For a
strict guard "body < 0" the rules are hi(I) < 0 (true) and lo(I) >= 0
(false).  Boundary ties stay undecided rather than being decided unsoundly.

I is the natural enclosure (one run of the tape) where that decides the
guard.  Where it straddles, I is the natural enclosure intersected with
the mean-value form f(c) + sum_j f'_j(B) (B_j - c_j) around the midpoint
c of B (`expr.mean_value`); both enclose the body on B, so the
intersection does too, and it is never wider than the natural one.
`simplify_branch` decides leaf by leaf inside the one walk, so only the
leaves it reaches are narrowed.  The form decides the guards only: an
Undecided status keeps the natural enclosure of its widest guard leaf,
because the guard pick and the trial splits of `splitheur` that read it
score the children with natural enclosures, and comparing a tightened
parent with natural children misleads the variable choice (224 splits
become 441 on the benchmark's guarded workload, seed 101).

A branch formula is compiled once (`compile_branch`) into one tape over
its box dimensions that holds every guard body and the linear atom's
coefficients and right-hand side.  Classifying a box runs the guard part
of that tape; the verdict is that the branch is proved true or false on
the box, a single linear inequality over x with interval coefficients (a
LinearRow, whose enclosures come from one run of the linear part of the
tape), or still undecided (some guard straddles zero and needs the box
split).  The classification also returns the slot lists of those runs,
which the solver keeps with the box: a half of the box is classified from
them by child runs, which re-run only the operations that depend on the
split dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

from .errors import DomainError
from .expr import (Const, MeanValueForm, Run, Tape, compile_tape, enclose,
                   eval_on_box, mean_value, mean_value_form)
from .intervals import Box, midpoint
from .model import And, Formula, Guard, Linear, Or, formula_leaves


def decide_guard(strict: bool, lo: float, hi: float) -> bool | None:
    """The guard rule on the body enclosure [lo, hi]: True, False, or None
    (undecided).  A NaN endpoint leaves the guard undecided."""
    if strict:
        if hi < 0.0:
            return True
        if lo >= 0.0:
            return False
    else:
        if hi <= 0.0:
            return True
        if lo > 0.0:
            return False
    return None


def classify_guard(g: Guard, box: Box) -> bool | None:
    iv = enclose(g.body, box)
    return decide_guard(g.strict, iv.lo, iv.hi)


@dataclass(frozen=True)
class CompiledBranch:
    """A branch formula compiled over its box dimensions.

    `tape` computes every guard body and, for a linear atom, the
    coefficient of each x variable (the constant 0 where the atom has
    none) and the right-hand side.  `guards` and `linear` are the parts
    of the tape that the guard bodies and the linear atom need, and
    `cones[s]` the part that slot s alone needs.  `guard_slot` maps each
    guard leaf of the formula, by identity, to its slot.  `row_ends(L)`
    reads the coefficient slots and then the right-hand-side slot from the
    slot list L of a run.  `mean_value[s]` is the mean-value form of guard
    slot s, derived when `simplify_branch` first needs it to decide a leaf
    (the verifier never does).
    """

    formula: Formula
    tape: Tape
    guards: Tape
    linear: Tape | None
    guard_slot: dict[int, int]
    coeff_slots: tuple[int, ...]
    rhs_slot: int | None
    row_ends: Callable[[Sequence[float]], tuple[float, ...]] | None
    cones: dict[int, Tape]
    mean_value: dict[int, MeanValueForm]


def compile_branch(formula: Formula, names: Sequence[str],
                   x_vars: Sequence[str] = ()) -> CompiledBranch:
    """Compile `formula` over the box dimensions `names`; the linear atom's
    coefficients follow the order of `x_vars`."""
    leaves = list(formula_leaves(formula))
    guards = [leaf for leaf in leaves if isinstance(leaf, Guard)]
    linear = next((leaf for leaf in leaves if isinstance(leaf, Linear)), None)
    exprs = [g.body for g in guards]
    if linear is not None:
        coeffs = linear.coeff_map()
        exprs += [coeffs.get(x, Const(0.0)) for x in x_vars] + [linear.rhs]
    tape = compile_tape(exprs, names)
    guard_slots, linear_slots = tape.roots[:len(guards)], tape.roots[len(guards):]
    return CompiledBranch(
        formula, tape,
        guards=tape.restrict(guard_slots),
        linear=tape.restrict(linear_slots) if linear_slots else None,
        guard_slot={id(g): s for g, s in zip(guards, guard_slots)},
        coeff_slots=linear_slots[:-1],
        rhs_slot=linear_slots[-1] if linear_slots else None,
        row_ends=_getter(linear_slots) if linear_slots else None,
        cones={s: tape.restrict((s,)) for s in tape.roots},
        mean_value={})


def _getter(slots: Sequence[int]) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """The items of a sequence at `slots`, always as a tuple."""
    get = itemgetter(*slots)
    return get if len(slots) > 1 else lambda L: (get(L),)


# A verdict: True, False, the Linear leaf when only it is left, or the
# slots of the undecided guard leaves that still matter, in leaf order.
Verdict = bool | Linear | list[int]


def reduce_formula(cb: CompiledBranch, L: Sequence[float],
                   H: Sequence[float]) -> Verdict:
    """The verdict of cb.formula on a box, each guard leaf decided from the
    slot endpoints L, H of a run of cb.guards."""
    return _reduce(cb.formula, cb.guard_slot,
                   lambda g, s: decide_guard(g.strict, L[s], H[s]))


def reduce_at_point(cb: CompiledBranch, point: dict[str, float]) -> Verdict:
    """The verdict of cb.formula at `point`, each guard body evaluated there
    in floating point; a body that raises or gives NaN is undecided."""
    return _reduce(cb.formula, cb.guard_slot, lambda g, s: _decide_at(g, point))


def _decide_at(g: Guard, point: dict[str, float]) -> bool | None:
    try:
        v = g.body.evaluate(point)
    except (ArithmeticError, ValueError):
        return None
    return decide_guard(g.strict, v, v)


def _reduce(f: Formula, guard_slot: dict[int, int], decide) -> Verdict:
    """The three-valued (strong Kleene) walk of the package: the verdict of
    f where decide(leaf, slot) gives each guard leaf True, False or None.
    An and/or stops at its first item that settles it."""
    if isinstance(f, Guard):
        s = guard_slot[id(f)]
        d = decide(f, s)
        return [s] if d is None else d
    if isinstance(f, (And, Or)):
        absorbing = isinstance(f, Or)
        out = neutral = not absorbing
        for item in f.items:
            v = _reduce(item, guard_slot, decide)
            if v is absorbing:
                return v
            if isinstance(v, list):
                out = out + v if isinstance(out, list) else v
            elif v is not neutral and out is neutral:
                out = v  # the Linear leaf, which a later neutral item keeps
        return out
    return f  # the Linear leaf


# -- branch status ------------------------------------------------------------

@dataclass(slots=True)
class LinearRow:
    """Interval coefficients of the branch inequality on its box.

    `ends` holds the lower endpoints of the coefficient enclosures, in the
    problem's x order (an absent coefficient is the point 0), and of the
    right-hand side, then the upper endpoints in the same order: a row of
    the solver's endpoint block as `CompiledBranch.row_ends` reads it from
    the linear run.  (Not frozen: a frozen dataclass takes twice as long
    to build, and the solver builds one per linear box.)
    """

    ends: tuple[float, ...]

    @property
    def coeff_lo(self) -> tuple[float, ...]:
        return self.ends[:len(self.ends) // 2 - 1]

    @property
    def coeff_hi(self) -> tuple[float, ...]:
        return self.ends[len(self.ends) // 2:-1]

    @property
    def rhs_lo(self) -> float:
        return self.ends[len(self.ends) // 2 - 1]

    @property
    def rhs_hi(self) -> float:
        return self.ends[-1]


@dataclass(frozen=True)
class Undecided:
    """Guard leaves straddle zero.  slot is the tape slot of the first
    widest of them, in leaf order, and lo, hi are that leaf's natural body
    enclosure (infinite where it has none): the guard the solver splits
    for when it picks this box.  hi - lo is positive, perhaps infinite, as
    `decide_guard` leaves a guard undecided only where lo <= 0 < hi, or
    lo < 0 <= hi if strict, and enclosures are never NaN."""

    slot: int
    lo: float
    hi: float


# True and False for a branch proved true or false on its box
BranchStatus = bool | LinearRow | Undecided

# The runs a box keeps: of its guard tape, where that run was whole, and of
# its linear tape, where it ran; None otherwise
Runs = tuple[Run | None, Run | None]


def simplify_branch(cb: CompiledBranch, lo: Sequence[float],
                    hi: Sequence[float], parent: Runs | None = None,
                    dim: int | None = None) -> tuple[BranchStatus, int, Runs]:
    """Classify the compiled branch on the box with endpoints lo, hi.

    The status is the verdict of the walk, with a LinearRow (from one run
    of the linear tape) for the Linear leaf and an Undecided for the slots
    of the surviving guard leaves.  The walk decides each guard leaf it
    reaches on its slot's natural enclosure from `guard_enclosures` and,
    only where that straddles zero after a whole run, on the slot's
    mean-value enclosure, narrowed at most once per box.  The count
    returned is that of the leaves the form decided among those reached,
    and the runs those of the box, which its row keeps for its children
    and its trial splits.

    `parent` holds the runs of the box this one was split from along
    dimension `dim`.  Each tape with a parent run then runs as a child run
    (`eval_on_box`), which re-runs only the operations that depend on
    `dim` and gives the lists of a whole run bit for bit; a tape without
    one runs whole.
    """
    guard_run, linear_run = parent or (None, None)
    # a fallback run (whole False) leaves the slots the form reads at +-inf
    L, H, whole = (guard_enclosures(cb, lo, hi, guard_run, dim) if cb.guard_slot
                   else ((), (), False))
    narrowed: dict[int, tuple[float, float]] = {}
    mid = None
    tightened = 0

    def decide(g: Guard, s: int) -> bool | None:
        nonlocal mid, tightened
        d = decide_guard(g.strict, L[s], H[s])
        if d is not None or not whole:
            return d
        if s not in narrowed:
            if mid is None:
                mid = [midpoint(l, h) for l, h in zip(lo, hi)]
            form = cb.mean_value.get(s)
            if form is None:
                form = cb.mean_value[s] = mean_value_form(cb.tape, s)
            narrowed[s] = mean_value(form, mid, L, H)
        d = decide_guard(g.strict, *narrowed[s])
        tightened += d is not None
        return d

    status = _reduce(cb.formula, cb.guard_slot, decide)
    guard_run = (L, H) if whole else None
    if isinstance(status, Linear):
        linear_run = LL, LH = eval_on_box(cb.linear, lo, hi, linear_run, dim)
        return (LinearRow(cb.row_ends(LL) + cb.row_ends(LH)), tightened,
                (guard_run, linear_run))
    if isinstance(status, list):
        # max keeps the first of equally wide leaves
        slot = max(status, key=lambda s: H[s] - L[s])
        status = Undecided(slot, L[slot], H[slot])
    return status, tightened, (guard_run, None)


def guard_enclosures(cb: CompiledBranch, lo: Sequence[float],
                     hi: Sequence[float], parent: Run | None = None,
                     dim: int | None = None) -> tuple[list[float], list[float], bool]:
    """The slot endpoints of one run of cb.guards on the box, and True; or,
    where that run has no enclosure, those of one run per guard slot, and
    False.  A slot without an enclosure gets [-inf, +inf], which leaves its
    guard undecided.

    With `parent`, the guard run of the box split along `dim` into this
    one, the run is a child run.  It raises exactly where a whole run
    would: the operations it skips gave the parent's values, and the
    parent's run did not raise.  Outward-rounded interval operations are
    inclusion-isotone, so a child box's enclosures lie within its
    parent's and a child's run should not raise where its parent's whole
    run did not.  (Not quite always: where the parent's result was exact
    and left unrounded, the child's may be rounded outward by one ulp past
    it.)  The per-slot fallback stays for the run that does raise.
    """
    try:
        return (*eval_on_box(cb.guards, lo, hi, parent, dim), True)
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
    return L, H, False
