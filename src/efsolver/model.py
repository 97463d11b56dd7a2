"""Problem representation: guarded branches of an exists-forall constraint.

A problem asks for values of the existential variables x_1..x_r such that
every branch holds: for all y in the branch box, the branch formula is
true.  Formulas are positive Boolean combinations of inequalities.  Per
branch at most one inequality (the "linear atom") may mention x, and only
linearly; all other inequalities ("guards") constrain y alone.  Linear
equalities over x may be attached to the whole problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .expr import Expr
from .intervals import Box


class Formula:
    """Base of the formula tree: Guard | Linear | And | Or.  An empty And
    is true and an empty Or false."""


@dataclass(frozen=True)
class Guard(Formula):
    """Inequality over universal variables only: body <= 0, or body < 0 if strict."""

    body: Expr
    strict: bool = False


@dataclass(frozen=True)
class Linear(Formula):
    """The inequality carrying the existential variables:

        sum_j coeff_j(y) * x_j  <=  rhs(y)

    `coeffs` maps each participating x variable to its coefficient
    expression over y; x variables absent from `coeffs` have coefficient 0.
    """

    coeffs: tuple[tuple[str, Expr], ...]
    rhs: Expr

    def coeff_map(self) -> dict[str, Expr]:
        return dict(self.coeffs)


@dataclass(frozen=True)
class And(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    items: tuple[Formula, ...]


def formula_leaves(f: Formula) -> Iterator[Formula]:
    if isinstance(f, (And, Or)):
        for item in f.items:
            yield from formula_leaves(item)
    else:
        yield f


@dataclass(frozen=True)
class Branch:
    """One conjunct: for all y in `box`, `formula` holds."""

    box: Box
    formula: Formula


@dataclass(frozen=True)
class Problem:
    """The full constraint: branches plus optional linear equalities C x = d.

    Equality data is stored as nested tuples so problems compare
    structurally; use `eq_matrix`/`eq_vector` for numpy views.
    """

    x_vars: tuple[str, ...]
    y_vars: tuple[str, ...]
    branches: tuple[Branch, ...]
    equalities: tuple[tuple[float, ...], ...] = field(default=())
    eq_rhs: tuple[float, ...] = field(default=())

    @property
    def r(self) -> int:
        return len(self.x_vars)

    def eq_matrix(self) -> np.ndarray:
        if not self.equalities:
            return np.zeros((0, self.r))
        return np.array(self.equalities, dtype=float)

    def eq_vector(self) -> np.ndarray:
        return np.array(self.eq_rhs, dtype=float)


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate_problem."""

    kind: str
    branch: int | None = None
    detail: str = ""

    def __str__(self):
        where = f" (branch {self.branch})" if self.branch is not None else ""
        what = f": {self.detail}" if self.detail else ""
        return f"{self.kind}{where}{what}"


def validate_problem(p: Problem) -> list[Violation]:
    """Check structural invariants; returns violations (empty list = valid)."""
    out: list[Violation] = []
    x_set, y_set = set(p.x_vars), set(p.y_vars)

    def check_names(i: int, e: Expr, kind: str, label: str):
        names = e.variables()
        if names & x_set:
            out.append(Violation(kind, i, f"{label} mentions {sorted(names & x_set)}"))
        if names - x_set - y_set:
            out.append(Violation(
                "UndeclaredVariable", i, f"{sorted(names - x_set - y_set)}"))

    if p.r < 1:
        out.append(Violation("NoExistentialVariables"))
    if not p.branches:
        out.append(Violation("EmptyBranchList"))

    for i, br in enumerate(p.branches):
        if set(br.box.names) != y_set:
            out.append(Violation(
                "BoxVariableMismatch", i,
                f"box covers {br.box.names}, expected {p.y_vars}"))
        n_linear = 0
        for leaf in formula_leaves(br.formula):
            if isinstance(leaf, Guard):
                check_names(i, leaf.body, "ExistentialInGuard", "guard")
            elif isinstance(leaf, Linear):
                n_linear += 1
                for name, coeff in leaf.coeffs:
                    if name not in x_set:
                        out.append(Violation(
                            "UnknownCoefficientVariable", i, name))
                    check_names(i, coeff, "ExistentialInCoefficient",
                                f"coefficient of {name}")
                check_names(i, leaf.rhs, "ExistentialInRhs", "rhs")
        if n_linear > 1:
            out.append(Violation(
                "MultipleLinearAtoms", i, f"{n_linear} inequalities mention x"))

    for k, row in enumerate(p.equalities):
        if len(row) != p.r:
            out.append(Violation(
                "EqualityShape", None,
                f"equality {k} has {len(row)} coefficients, expected {p.r}"))
    if len(p.eq_rhs) != len(p.equalities):
        out.append(Violation("EqualityShape", None, "rhs length mismatch"))
    for k, (row, d) in enumerate(zip(p.equalities, p.eq_rhs)):
        if not all(math.isfinite(v) for v in (*row, d)):
            out.append(Violation("NonFiniteEquality", None, f"equality {k}"))

    return out
