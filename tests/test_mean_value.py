"""The mean-value enclosure of a tape slot (`expr.mean_value`) against
exact rational evaluation.

The enclosure intersects the natural one with the mean-value form, so it
lies inside the natural enclosure; it must still contain the exact value
of a polynomial at every point of the box, and for trees with division,
sine or cosine, whose exact values are not rational, it must meet the
natural enclosure of every sampled point."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efsolver as ef
from efsolver.errors import DomainError
from efsolver.expr import (Add, Const, Cos, Div, Mul, Neg, Pow, Sin, Sub, Var,
                           compile_tape, eval_on_box, mean_value,
                           mean_value_form)
from efsolver.intervals import midpoint
from efsolver.model import Guard, formula_leaves
from efsolver.simplify import (LinearRow, compile_branch, decide_guard,
                               simplify_branch)

NAMES = ("y1", "y2", "y3")

constants = (st.floats(-1e3, 1e3, allow_nan=False)
             | st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 1e200, -1e300]))
leaves = st.builds(Const, constants) | st.builds(Var, st.sampled_from(NAMES))


def _polynomial(children):
    return (st.builds(Neg, children)
            | st.builds(Pow, children, st.integers(1, 5))
            | st.builds(Add, children, children) | st.builds(Sub, children, children)
            | st.builds(Mul, children, children))


def _any(children):
    return (_polynomial(children) | st.builds(Sin, children)
            | st.builds(Cos, children) | st.builds(Div, children, children))


polynomials = st.recursive(leaves, _polynomial, max_leaves=12)
exprs = st.recursive(leaves, _any, max_leaves=12)
endpoints = (st.floats(-10.0, 10.0, allow_nan=False)
             | st.floats(-1e160, 1e160, allow_nan=False))
# narrow boxes too, where the mean-value form is tighter than the natural one
widths = st.sampled_from([0.0, 1e-6, 1e-3, 0.1]) | st.floats(0.0, 20.0)


@st.composite
def boxes(draw):
    lo, hi = [], []
    for _ in NAMES:
        a = draw(endpoints)
        if draw(st.booleans()):
            b = draw(endpoints)
        else:
            b = a + draw(widths)
            if not math.isfinite(b):
                b = a
        a, b = sorted((a, b))
        lo.append(a)
        hi.append(b)
    return tuple(lo), tuple(hi)


def exact(t, point):
    """The value of a polynomial tree at point, as a Fraction."""
    kind = type(t)
    if kind is Const:
        return Fraction(t.value)
    if kind is Var:
        return Fraction(point[NAMES.index(t.name)])
    if kind is Neg:
        return -exact(t.arg, point)
    if kind is Pow:
        return exact(t.base, point) ** t.exponent
    a, b = exact(t.left, point), exact(t.right, point)
    return {Add: a + b, Sub: a - b, Mul: a * b}[kind]


def enclosures(t, lo, hi):
    """(natural, tightened) enclosure of t on the box, or None where the
    natural run has none."""
    tape = compile_tape((t,), NAMES)
    s = tape.roots[0]
    try:
        L, H = eval_on_box(tape, lo, hi)
    except DomainError:
        return None
    mid = [midpoint(l, h) for l, h in zip(lo, hi)]
    return (L[s], H[s]), mean_value(mean_value_form(tape, s), mid, L, H)


def sample_points(lo, hi, rng):
    corners = [tuple(hi[k] if bits >> k & 1 else lo[k] for k in range(3))
               for bits in range(8)]
    mid = tuple(midpoint(l, h) for l, h in zip(lo, hi))
    inside = [tuple(l + rng.random() * (h - l) for l, h in zip(lo, hi))
              for _ in range(8)]
    return corners + [mid] + [tuple(min(max(v, l), h) for v, l, h
                                    in zip(p, lo, hi)) for p in inside]


SETTINGS = settings(derandomize=True, database=None, max_examples=400,
                    deadline=None)


@SETTINGS
@given(t=polynomials, box=boxes())
def test_polynomial_enclosure_is_inside_natural_and_contains_exact_values(t, box):
    lo, hi = box
    got = enclosures(t, lo, hi)
    if got is None:
        return
    (nlo, nhi), (tlo, thi) = got
    assert nlo <= tlo <= thi <= nhi
    for p in sample_points(lo, hi, random.Random(0)):
        assert Fraction(tlo) <= exact(t, p) <= Fraction(thi), p


@SETTINGS
@given(t=exprs, box=boxes())
def test_enclosure_meets_the_natural_enclosure_of_every_sampled_point(t, box):
    lo, hi = box
    got = enclosures(t, lo, hi)
    if got is None:
        return
    (nlo, nhi), (tlo, thi) = got
    assert nlo <= tlo <= thi <= nhi
    tape = compile_tape((t,), NAMES)
    s = tape.roots[0]
    for p in sample_points(lo, hi, random.Random(1)):
        try:
            L, H = eval_on_box(tape, p, p)
        except DomainError:
            continue
        assert max(tlo, L[s]) <= min(thi, H[s]), p


def test_domain_error_inside_the_form_keeps_the_natural_enclosure():
    # y^3 on [-5e102, 5e102] is finite, but its derivative term
    # 3 y^2 (Y - c) leaves the double range
    t = Pow(Var("y1"), 3)
    lo, hi = (-5e102, 0.0, 0.0), (5e102, 0.0, 0.0)
    tape = compile_tape((t,), NAMES)
    s = tape.roots[0]
    form = mean_value_form(tape, s)
    L, H = eval_on_box(tape, lo, hi)
    with pytest.raises(DomainError):
        eval_on_box(form.program, [*L, *L], [*H, *H])
    assert enclosures(t, lo, hi) == ((L[s], H[s]), (L[s], H[s]))


def test_dependency_of_a_cancelling_term_is_removed():
    # (y1 - y1) + 0.25: the natural enclosure straddles zero, the form is
    # the point 0.25
    t = Add(Sub(Var("y1"), Var("y1")), Const(0.25))
    natural, tight = enclosures(t, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert natural[0] < 0.0 < natural[1]
    assert tight == (0.25, 0.25)


def test_only_undecided_guards_are_tightened():
    # the first guard is decided false by its natural enclosure; the
    # second straddles naturally and is decided false by the form
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 y2 ;
        branch y1 in [0.5,0.75], y2 in [0.5,0.75] :
          y1 + 1 <= 0 or (y1^2 - 2*y1*y2 + y2^2 + 0.2 <= 0 or x1*y1 <= 1) ;
    """)
    br = p.branches[0]
    cb = compile_branch(br.formula, br.box.names, p.x_vars)
    lo, hi = br.box.endpoints()
    L, H = eval_on_box(cb.guards, lo, hi)
    slots = [(cb.guard_slot[id(g)], g.strict)
             for g in formula_leaves(br.formula) if isinstance(g, Guard)]
    natural = [decide_guard(strict, L[s], H[s]) for s, strict in slots]
    assert natural == [False, None]
    status, tightened, _ = simplify_branch(cb, lo, hi)
    assert isinstance(status, LinearRow) and tightened == 1


def test_walk_narrows_only_the_leaves_it_reaches():
    # both guards straddle naturally; the form decides the first true,
    # which settles the or before the walk reaches the second
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 y2 ;
        branch y1 in [0.5,0.75], y2 in [0.5,0.75] :
          y1^2 - 2*y1*y2 + y2^2 - 0.2 <= 0 or y1^2 - 2*y1*y2 + y2^2 - 0.3 <= 0
          or x1*y1 <= 1 ;
    """)
    br = p.branches[0]
    cb = compile_branch(br.formula, br.box.names, p.x_vars)
    assert simplify_branch(cb, *br.box.endpoints())[:2] == (True, 1)
    assert len(cb.mean_value) == 1
