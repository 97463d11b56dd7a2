"""Branch simplification: decide guards by interval evaluation, reduce the
Boolean structure in three values, and classify each branch box.

The three values are Python's True, False and None (undecided), and one
walk (`_reduce`) evaluates every formula in them, strong Kleene style,
with a leaf decider: `reduce_formula` decides the guard leaves from slot
enclosures on a box, for the solver's classification and the verifier's
boxes, and `reduce_at_point` from float values at a point, for the
verifier's midpoints.

A guard "body <= 0" over a box B is decided from I = enclosure of body on
B: true when hi(I) <= 0, false when lo(I) > 0, undecided otherwise.  For a
strict guard "body < 0" the rules are hi(I) < 0 (true) and lo(I) >= 0
(false).  Boundary ties stay undecided rather than being decided unsoundly.

I is the natural enclosure (one run of the tape) where that decides the
guard.  Where it straddles, I is the natural enclosure intersected with
the mean-value form f(c) + sum_j f'_j(B) (B_j - c_j) around the midpoint
c of B (`expr.mean_value`); both enclose the body on B, so the
intersection does too, and it is never wider than the natural one.  A
decided guard costs no more than before.  The form decides the guards
only: an Undecided status keeps the natural enclosure of its widest guard
leaf, because the guard pick and the trial splits of `splitheur` that
read it score the children with natural enclosures, and comparing a
tightened parent with natural children misleads the variable choice
(224 splits become 441 on the benchmark's guarded workload, seed 101).

A branch formula is compiled once (`compile_branch`) into one tape over
its box dimensions that holds every guard body and the linear atom's
coefficients and right-hand side.  Classifying a box runs the guard part
of that tape; the verdict is that the branch is proved true or false on
the box, a single linear inequality over x with interval coefficients (a
LinearRow, whose enclosures come from one run of the linear part of the
tape), or still undecided (some guard straddles zero and needs the box
split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError
from .expr import (Const, MeanValueForm, Tape, compile_tape, enclose,
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
    guard leaf of the formula, by identity, to its slot, and `guard_leaves`
    holds (slot, strict) of each guard leaf in leaf order.
    `mean_value[s]` is the mean-value form of guard slot s, derived when
    `simplify_branch` first needs it (the verifier never does).
    """

    formula: Formula
    tape: Tape
    guards: Tape
    linear: Tape | None
    guard_slot: dict[int, int]
    guard_leaves: tuple[tuple[int, bool], ...]
    coeff_slots: tuple[int, ...]
    rhs_slot: int | None
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
        guard_leaves=tuple((s, g.strict) for g, s in zip(guards, guard_slots)),
        coeff_slots=linear_slots[:-1],
        rhs_slot=linear_slots[-1] if linear_slots else None,
        cones={s: tape.restrict((s,)) for s in tape.roots},
        mean_value={})


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

@dataclass(frozen=True)
class LinearRow:
    """Interval coefficients of the branch inequality on its box.

    coeff_lo/coeff_hi are the endpoints of the coefficient enclosures in
    the problem's x order (an absent coefficient is the point 0); rhs_lo
    and rhs_hi those of the right-hand side.
    """

    coeff_lo: tuple[float, ...]
    coeff_hi: tuple[float, ...]
    rhs_lo: float
    rhs_hi: float


@dataclass(frozen=True)
class Undecided:
    """Guard leaves straddle zero.  slot is the tape slot of the first
    widest of them, in leaf order, and lo, hi are that leaf's natural body
    enclosure (infinite where it has none): the guard the solver splits
    for when it picks this box."""

    slot: int
    lo: float
    hi: float


# True and False for a branch proved true or false on its box
BranchStatus = bool | LinearRow | Undecided


def simplify_branch(cb: CompiledBranch, lo: Sequence[float],
                    hi: Sequence[float]) -> tuple[BranchStatus, int]:
    """Classify the compiled branch on the box with endpoints lo, hi.

    Decides the guards from `guard_enclosures`, tightened by the mean-value
    form where its one run of the guard tape leaves a guard leaf undecided,
    and returns the status with the number of guard leaves the form decided.
    The status is the verdict of `reduce_formula`, with a LinearRow (from
    one run of the linear tape) for the Linear leaf and an Undecided for
    the slots of the surviving guard leaves.
    """
    L = H = DL = DH = ()
    tightened = 0
    if cb.guard_slot:
        L, H, whole = guard_enclosures(cb, lo, hi)
        # the fallback's runs leave the slots that the form reads at +-inf
        DL, DH, tightened = _tighten(cb, lo, hi, L, H) if whole else (L, H, 0)
    status = reduce_formula(cb, DL, DH)
    if isinstance(status, Linear):
        L, H = eval_on_box(cb.linear, lo, hi)
        r = cb.rhs_slot
        status = LinearRow(tuple(L[s] for s in cb.coeff_slots),
                           tuple(H[s] for s in cb.coeff_slots), L[r], H[r])
    elif isinstance(status, list):
        # max keeps the first of equally wide leaves
        slot = max(status, key=lambda s: H[s] - L[s])
        status = Undecided(slot, L[slot], H[slot])
    return status, tightened


def guard_enclosures(cb: CompiledBranch, lo: Sequence[float],
                     hi: Sequence[float]) -> tuple[list[float], list[float], bool]:
    """The slot endpoints of one run of cb.guards on the box, and True; or,
    where that run has no enclosure, those of one run per guard slot, and
    False.  A slot without an enclosure gets [-inf, +inf], which leaves its
    guard undecided."""
    try:
        return (*eval_on_box(cb.guards, lo, hi), True)
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


def _tighten(cb: CompiledBranch, lo: Sequence[float], hi: Sequence[float],
             L: list[float], H: list[float]):
    """The slot endpoints that decide the guards of cb on the box, and the
    number of guard leaves they decide where the natural ones, L and H of
    a run of cb.guards, do not: L and H with the slot of every undecided
    leaf narrowed by its mean-value form."""
    tight: dict[int, tuple[float, float]] = {}
    mid = None
    decided = 0
    for s, strict in cb.guard_leaves:
        if decide_guard(strict, L[s], H[s]) is not None:
            continue
        if s not in tight:
            if mid is None:
                mid = [midpoint(l, h) for l, h in zip(lo, hi)]
            form = cb.mean_value.get(s)
            if form is None:
                form = cb.mean_value[s] = mean_value_form(cb.tape, s)
            tight[s] = mean_value(form, mid, L, H)
        if decide_guard(strict, *tight[s]) is not None:
            decided += 1
    if not tight:
        return L, H, 0
    DL, DH = L.copy(), H.copy()
    for s, (l, h) in tight.items():
        DL[s], DH[s] = l, h
    return DL, DH, decided
