"""Branch simplification: decide guards by interval evaluation, reduce the
Boolean structure (`reduce_formula`, which the verifier also uses), and
classify each branch box.

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
of that tape; after replacing decided guards by Boolean constants and
simplifying, the branch is either proved (true/false constant), a single
linear inequality over x with interval coefficients (a LinearRow, whose
enclosures come from one run of the linear part of the tape), or still
undecided (some guard straddles zero and needs the box split).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from .expr import (Const, MeanValueForm, Tape, compile_tape, enclose,
                   eval_on_box, mean_value, mean_value_form)
from .intervals import Box, midpoint
from .model import (And, FalseF, Formula, Guard, GuardAtom, Linear, Or, TrueF,
                    formula_leaves, guard_atoms)


class Decision(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNDECIDED = "undecided"


def decide_guard(strict: bool, lo: float, hi: float) -> Decision:
    """The guard rule on the body enclosure [lo, hi]."""
    if strict:
        if hi < 0.0:
            return Decision.TRUE
        if lo >= 0.0:
            return Decision.FALSE
    else:
        if hi <= 0.0:
            return Decision.TRUE
        if lo > 0.0:
            return Decision.FALSE
    return Decision.UNDECIDED


def classify_guard(g: GuardAtom, box: Box) -> Decision:
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
    guard atom of the formula, by identity, to its slot, and `guard_leaves`
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
    atoms = guard_atoms(formula)
    linear = next((leaf.atom for leaf in formula_leaves(formula)
                   if isinstance(leaf, Linear)), None)
    exprs = [g.body for g in atoms]
    if linear is not None:
        coeffs = linear.coeff_map()
        exprs += [coeffs.get(x, Const(0.0)) for x in x_vars] + [linear.rhs]
    tape = compile_tape(exprs, names)
    guard_slots, linear_slots = tape.roots[:len(atoms)], tape.roots[len(atoms):]
    return CompiledBranch(
        formula, tape,
        guards=tape.restrict(guard_slots),
        linear=tape.restrict(linear_slots) if linear_slots else None,
        guard_slot={id(g): s for g, s in zip(atoms, guard_slots)},
        guard_leaves=tuple((s, g.strict) for g, s in zip(atoms, guard_slots)),
        coeff_slots=linear_slots[:-1],
        rhs_slot=linear_slots[-1] if linear_slots else None,
        cones={s: tape.restrict((s,)) for s in tape.roots},
        mean_value={})


def reduce_formula(cb: CompiledBranch, L: Sequence[float],
                   H: Sequence[float]) -> Formula:
    """Decide every guard leaf of cb.formula from the slot endpoints L, H of
    a run of cb.guards and propagate the constants.

    The three-valued evaluator of the package: the result is TrueF or
    FalseF when the decided guards settle the formula, otherwise the
    residue, in the normal form of constant propagation (T or phi -> T,
    F or phi -> phi, T and phi -> phi, F and phi -> F, nested and/or
    flattened, singleton and/or unwrapped).  Every guard leaf is decided,
    also where an earlier sibling already settles its and/or.
    """
    return _reduce(cb.formula, cb.guard_slot, L, H)


def _reduce(f: Formula, guard_slot: dict[int, int], L, H) -> Formula:
    if isinstance(f, Guard):
        s = guard_slot[id(f.atom)]
        d = decide_guard(f.atom.strict, L[s], H[s])
        if d is Decision.TRUE:
            return TrueF()
        if d is Decision.FALSE:
            return FalseF()
        return f
    if not isinstance(f, (And, Or)):
        return f
    node = type(f)
    absorbing, neutral = (FalseF, TrueF) if node is And else (TrueF, FalseF)
    reduced = [_reduce(item, guard_slot, L, H) for item in f.items]
    items: list[Formula] = []
    for item in reduced:
        if isinstance(item, absorbing):
            return item
        if isinstance(item, neutral):
            continue
        if isinstance(item, node):
            items.extend(item.items)
        else:
            items.append(item)
    if not items:
        return neutral()
    return items[0] if len(items) == 1 else node(tuple(items))


# -- branch status ------------------------------------------------------------

@dataclass(frozen=True)
class _Status:
    # guard leaves that the mean-value form decided where the natural
    # enclosure straddled zero
    tightened: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class ProvedTrue(_Status):
    pass


@dataclass(frozen=True)
class ProvedFalse(_Status):
    pass


@dataclass(frozen=True)
class LinearRow(_Status):
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
class Undecided(_Status):
    """Simplification got stuck on straddling guards; formula is the
    residue.  slot is the tape slot of its first widest guard leaf, in leaf
    order, and lo, hi are that leaf's natural body enclosure: the guard
    the solver splits for when it picks this box."""

    formula: Formula
    slot: int
    lo: float
    hi: float


BranchStatus = ProvedTrue | ProvedFalse | LinearRow | Undecided


def simplify_branch(cb: CompiledBranch, lo: Sequence[float],
                    hi: Sequence[float]) -> BranchStatus:
    """Classify the compiled branch on the box with endpoints lo, hi.

    Decides the guards from one run of the guard tape, tightened by the
    mean-value form where that run leaves a guard leaf undecided,
    simplifies the Boolean structure, and returns ProvedTrue/ProvedFalse
    for constants, a LinearRow (from one run of the linear tape) when
    exactly the linear inequality remains, or Undecided when guard leaves
    survive.
    """
    L = H = DL = DH = ()
    tightened = 0
    if cb.guard_slot:
        L, H = eval_on_box(cb.guards, lo, hi)
        DL, DH, tightened = _tighten(cb, lo, hi, L, H)
    residue = reduce_formula(cb, DL, DH)
    if isinstance(residue, TrueF):
        return ProvedTrue(tightened=tightened)
    if isinstance(residue, FalseF):
        return ProvedFalse(tightened=tightened)
    if isinstance(residue, Linear):
        L, H = eval_on_box(cb.linear, lo, hi)
        r = cb.rhs_slot
        return LinearRow(tuple(L[s] for s in cb.coeff_slots),
                         tuple(H[s] for s in cb.coeff_slots), L[r], H[r],
                         tightened=tightened)
    # max keeps the first of equally wide leaves
    slot = max((cb.guard_slot[id(g)] for g in guard_atoms(residue)),
               key=lambda s: H[s] - L[s])
    return Undecided(residue, slot, L[slot], H[slot], tightened=tightened)


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
        if decide_guard(strict, L[s], H[s]) is not Decision.UNDECIDED:
            continue
        if s not in tight:
            if mid is None:
                mid = [midpoint(l, h) for l, h in zip(lo, hi)]
            form = cb.mean_value.get(s)
            if form is None:
                form = cb.mean_value[s] = mean_value_form(cb.tape, s)
            tight[s] = mean_value(form, mid, L, H)
        if decide_guard(strict, *tight[s]) is not Decision.UNDECIDED:
            decided += 1
    if not tight:
        return L, H, 0
    DL, DH = L.copy(), H.copy()
    for s, (l, h) in tight.items():
        DL[s], DH[s] = l, h
    return DL, DH, decided
