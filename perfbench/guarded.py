"""Seeded generator of guarded exists-forall instances.

Every branch has the shape

    (disjunctive guard  or  linear row in x)  and  conjunctive guard

over y-only guards written as expanded polynomials whose naive interval
enclosure straddles zero on the initial box, although their true sign is
fixed there.  The solver has to split boxes (choosing through
`_pick_undecided` and guard classification) before any LP row exists.

Three kinds, mixed in fixed proportions:

* solvable: the disjunctive guard is false and the conjunctive guard true
  everywhere, so each branch reduces to its linear row, which a known x*
  satisfies with a robust margin.  Some instances carry equalities.
* infeasible: the conjunctive guard is false on part of the box, so no x
  exists; the solver must find a sub-box where it is proved false.
* crossing: the disjunctive guard changes sign inside the box.  A solution
  exists (x* again), but boxes along the guard's zero set stay undecided
  under every split, so the solver never leaves guard splitting.  These
  cells run under a small split cap and are expected to end
  budget-exhausted; a verified solution is also accepted.

The seed picks the box scale and orientation, the variable roles, the
linear rows, x* and the equalities.  Guards are homogeneous polynomials
and their thresholds scale with the box, so the amount of guard splitting
depends on the template and its relative gap, which are fixed per slot;
that keeps the work per pass nearly equal across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# A polynomial is a tuple of (coefficient, exponent tuple) terms.  The
# templates below are >= 0 on the unit box, with maximum 1 there.
SQ_DIFF = ((1.0, (2, 0)), (-2.0, (1, 1)), (1.0, (0, 2)))            # (a-b)^2
SQ_DIFF_SQ = ((1.0, (4, 0)), (-2.0, (2, 2)), (1.0, (0, 4)))         # (a^2-b^2)^2
PAIR_SPREAD = ((1.0, (2, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 2)),
               (-1.0, (1, 1, 0)), (-1.0, (1, 0, 1)), (-1.0, (0, 1, 1)))

# Slots of one pass: (kind, disjunctive template, conjunctive template,
# relative gap, number of branches, equalities).
SLOTS = (
    ("solvable", SQ_DIFF, SQ_DIFF, 0.2, 1, True),
    ("solvable", SQ_DIFF, SQ_DIFF_SQ, 0.2, 1, False),
    ("solvable", SQ_DIFF_SQ, SQ_DIFF, 0.25, 2, True),
    ("solvable", PAIR_SPREAD, PAIR_SPREAD, 0.6, 1, True),
    ("infeasible", SQ_DIFF, SQ_DIFF, 0.2, 1, False),
    ("infeasible", SQ_DIFF_SQ, SQ_DIFF_SQ, 0.25, 1, True),
    ("crossing", SQ_DIFF, SQ_DIFF, 0.2, 1, True),
)
CROSSING_MAX_SPLITS = 60
MAX_SPLITS = 3000
MARGIN = 0.2


@dataclass(frozen=True)
class Refutation:
    """A y-only guard `poly(y) <= threshold` that an infeasibility witness
    box must violate at its midpoint."""

    poly: tuple
    names: tuple[str, ...]
    threshold: float

    def violated_at(self, point: dict[str, float]) -> bool:
        return evaluate(self.poly, [point[n] for n in self.names]) > self.threshold


@dataclass(frozen=True)
class Instance:
    text: str
    kind: str
    refutation: Refutation | None = None


def evaluate(poly, values) -> float:
    total = 0.0
    for coeff, exps in poly:
        term = coeff
        for v, e in zip(values, exps):
            term *= v ** e
        total += term
    return total


def _num(v: float) -> str:
    text = f"{v:.9f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def _monomial(names, exps) -> str:
    parts = []
    for n, e in zip(names, exps):
        if e == 1:
            parts.append(n)
        elif e > 1:
            parts.append(f"{n}^{e}")
    return "*".join(parts)


def _poly_text(poly, names) -> str:
    out = ""
    for coeff, exps in poly:
        mono = _monomial(names, exps)
        mag = abs(coeff)
        body = mono if mag == 1.0 and mono else (
            f"{_num(mag)}*{mono}" if mono else _num(mag))
        if not out:
            out = f"-{body}" if coeff < 0 else body
        else:
            out += f" - {body}" if coeff < 0 else f" + {body}"
    return out


def _oriented(poly, signs, scale):
    """poly with y_i replaced by signs[i]*y_i, and scale^degree: on the unit
    box scaled by `scale` and reflected by `signs` the polynomial takes the
    values of the template times that factor, so thresholds carry it."""
    degree = sum(poly[0][1])
    out = []
    for coeff, exps in poly:
        flip = 1.0
        for s, e in zip(signs, exps):
            if s < 0 and e % 2:
                flip = -flip
        out.append((coeff * flip, exps))
    return tuple(out), scale ** degree


def _linear_row(rng, names, x_star, scale):
    """Text of sum_j x_j*(a_j + b_j*m_j(y)) <= rhs, satisfied at x_star with
    slack MARGIN for every y in a box inside [-scale, scale]^s."""
    terms = []
    worst = 0.0
    for j, xj in enumerate(x_star):
        a = round(rng.uniform(-1.0, 1.0), 3)
        b = round(rng.uniform(-0.3, 0.3), 3)
        exps = [0] * len(names)
        for _ in range(rng.choice((1, 2))):
            exps[rng.randrange(len(names))] += 1
        coef = b / scale ** sum(exps)
        terms.append(f"x{j + 1}*({_num(a)} {'+' if coef >= 0 else '-'} "
                     f"{_num(abs(coef))}*{_monomial(names, exps)})")
        worst += a * xj + abs(b * xj)
    return " + ".join(terms) + f" <= {_num(worst + MARGIN)}"


def generate(rng: random.Random, slot) -> Instance:
    kind, disj, conj, gap, nbranch, with_eq = slot
    s = len(disj[0][1])
    r = rng.choice((2, 3))
    y = [f"y{i + 1}" for i in range(s)]
    rng.shuffle(y)  # variable roles
    scale = rng.uniform(0.5, 2.0)
    signs = [rng.choice((1, -1)) for _ in range(s)]
    x_star = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(r)]

    d_poly, d_scale = _oriented(disj, signs, scale)
    c_poly, c_scale = _oriented(conj, signs, scale)
    if kind == "crossing":
        disj_text = f"{_poly_text(d_poly, y)} <= {_num(0.5 * d_scale)}"
    else:
        strict = rng.random() < 0.5
        disj_text = (f"{_poly_text(d_poly, y)} + {_num(gap * d_scale)} "
                     f"{'<' if strict else '<='} 0")
    refutation = None
    if kind == "infeasible":
        threshold = (1.0 - gap) * c_scale
        conj_text = f"{_poly_text(c_poly, y)} <= {_num(threshold)}"
        refutation = Refutation(c_poly, tuple(y), threshold)
    else:
        conj_text = f"{_poly_text(c_poly, y)} + {_num(gap * c_scale)} > 0"
    row = _linear_row(rng, y, x_star, scale)
    formula = f"({disj_text} or {row}) and {conj_text}"

    def bounds(i, lo, hi):
        lo, hi = lo * scale, hi * scale
        return (-hi, -lo) if signs[i] < 0 else (lo, hi)

    order = sorted(range(s), key=lambda i: y[i])
    lines = [f"exists {' '.join(f'x{j + 1}' for j in range(r))} ;",
             f"forall-vars {' '.join(y[i] for i in order)} ;"]
    for k in range(nbranch):
        dims = []
        for i in order:
            lo, hi = (k / nbranch, (k + 1) / nbranch) if i == 0 else (0.0, 1.0)
            blo, bhi = bounds(i, lo, hi)
            dims.append(f"{y[i]} in [{_num(blo)},{_num(bhi)}]")
        lines.append(f"branch {', '.join(dims)} :\n  {formula} ;")
    if with_eq:
        lines.append(f"eq 1*x1 = {_num(x_star[0])} ;")
        if r == 3 and rng.random() < 0.5:
            c = [round(rng.uniform(-1.0, 1.0), 2) for _ in range(r)]
            rhs = sum(ci * xi for ci, xi in zip(c, x_star))
            lhs = " + ".join(f"{_num(ci)}*x{j + 1}" for j, ci in enumerate(c))
            lines.append(f"eq {lhs} = {_num(rhs)} ;")
    return Instance("\n".join(lines) + "\n", kind, refutation)


def generate_pass(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [generate(rng, slot) for slot in SLOTS]
