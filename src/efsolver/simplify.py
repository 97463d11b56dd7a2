"""Branch simplification: decide guards by interval evaluation, reduce the
Boolean structure (`reduce_formula`, which the verifier also uses), and
classify each branch.

A guard "body <= 0" over a box B is decided from I = enclosure of body on
B: true when hi(I) <= 0, false when lo(I) > 0, undecided otherwise.  For a
strict guard "body < 0" the rules are hi(I) < 0 (true) and lo(I) >= 0
(false).  Boundary ties stay undecided rather than being decided unsoundly.

After replacing decided guards by Boolean constants and simplifying, a
branch is either proved (true/false constant), a single linear inequality
over x with interval coefficients (a LinearRow, ready for the LP
relaxation), or still undecided (some guard straddles zero and needs the
box split).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .expr import eval_on_box
from .intervals import Box, Interval
from .model import (And, Branch, FalseF, Formula, Guard, GuardAtom, Linear,
                    LinearAtom, Or, TrueF)


class Decision(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNDECIDED = "undecided"


def classify_guard(g: GuardAtom, box: Box) -> Decision:
    iv = eval_on_box(g.body, box)
    if g.strict:
        if iv.hi < 0.0:
            return Decision.TRUE
        if iv.lo >= 0.0:
            return Decision.FALSE
    else:
        if iv.hi <= 0.0:
            return Decision.TRUE
        if iv.lo > 0.0:
            return Decision.FALSE
    return Decision.UNDECIDED


def reduce_formula(f: Formula, box: Box) -> Formula:
    """Decide every guard leaf of f on box and propagate the constants.

    The three-valued evaluator of the package: the result is TrueF or
    FalseF when the decided guards settle f, otherwise the residue, in the
    normal form of constant propagation (T or phi -> T, F or phi -> phi,
    T and phi -> phi, F and phi -> F, nested and/or flattened, singleton
    and/or unwrapped).  Every guard leaf is classified, also where an
    earlier sibling already settles its and/or.
    """
    if isinstance(f, Guard):
        d = classify_guard(f.atom, box)
        if d is Decision.TRUE:
            return TrueF()
        if d is Decision.FALSE:
            return FalseF()
        return f
    if not isinstance(f, (And, Or)):
        return f
    node = type(f)
    absorbing, neutral = (FalseF, TrueF) if node is And else (TrueF, FalseF)
    reduced = [reduce_formula(item, box) for item in f.items]
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
class ProvedTrue:
    pass


@dataclass(frozen=True)
class ProvedFalse:
    pass


@dataclass(frozen=True)
class LinearRow:
    """Interval coefficients of the branch inequality on its box.

    coeff_intervals follows the problem's x order (absent coefficients are
    the point interval 0); rhs_interval encloses the right-hand side.  The
    source atom is kept so splitting heuristics can re-evaluate the
    coefficient expressions on sub-boxes.
    """

    coeff_intervals: tuple[Interval, ...]
    rhs_interval: Interval
    atom: LinearAtom


@dataclass(frozen=True)
class Undecided:
    """Simplification got stuck on straddling guards; formula is the residue."""

    formula: Formula


BranchStatus = ProvedTrue | ProvedFalse | LinearRow | Undecided


def simplify_branch(br: Branch, x_vars: Sequence[str]) -> BranchStatus:
    """Classify a branch on its own box.

    Decides guards, simplifies the Boolean structure, and returns
    ProvedTrue/ProvedFalse for constants, a LinearRow when exactly the
    linear inequality remains, or Undecided when guard leaves survive.
    """
    residue = reduce_formula(br.formula, br.box)
    if isinstance(residue, TrueF):
        return ProvedTrue()
    if isinstance(residue, FalseF):
        return ProvedFalse()
    if isinstance(residue, Linear):
        atom = residue.atom
        coeff_map = atom.coeff_map()
        ivs = tuple(
            eval_on_box(coeff_map[x], br.box) if x in coeff_map else Interval.point(0.0)
            for x in x_vars
        )
        return LinearRow(ivs, eval_on_box(atom.rhs, br.box), atom)
    return Undecided(residue)
