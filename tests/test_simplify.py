import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import efsolver as ef
from efsolver.expr import enclose, eval_on_box
from efsolver.intervals import Box
from efsolver.model import And, Guard, Linear, Or, formula_leaves
from efsolver.simplify import (LinearRow, Undecided, _reduce, classify_guard,
                               compile_branch, reduce_at_point,
                               reduce_formula, simplify_branch)

from conftest import box_halves, parse_expr, sample_points


def guard(text, strict=False):
    return Guard(parse_expr(text), strict)


def guard_leaves(f):
    return [leaf for leaf in formula_leaves(f) if isinstance(leaf, Guard)]


def reduce_on(f, box):
    """The verdict of f on box, with guard slots mapped back to their leaves."""
    cb = compile_branch(f, box.names, ("x1",))
    verdict = reduce_formula(cb, *eval_on_box(cb.guards, *box.endpoints()))
    if isinstance(verdict, list):
        leaf_at = {cb.guard_slot[id(g)]: g for g in guard_leaves(f)}
        return [leaf_at[s] for s in verdict]
    return verdict


def classify(br, x_vars):
    """The status of the branch on its box."""
    cb = compile_branch(br.formula, br.box.names, x_vars)
    return simplify_branch(cb, *br.box.endpoints())[0]


def test_classify_guard_true_on_negative_enclosure():
    g = guard("y2 - y1")
    box = Box.of(("y1", (0.8, 1.2)), ("y2", (0.3, 0.49)))
    enclosure = enclose(g.body, box)
    assert enclosure.lo == pytest.approx(-0.9, abs=1e-12)
    assert enclosure.hi == pytest.approx(-0.31, abs=1e-12)
    assert classify_guard(g, box) is True
    # sampled soundness: the guard holds at random points
    rng = np.random.default_rng(0)
    for pt in sample_points(box, rng, 1000):
        assert g.body.evaluate(pt) <= 0


def test_classify_guard_false_on_positive_enclosure():
    g = guard("y1")
    box = Box.of(("y1", (0.1, 2.0)))
    assert classify_guard(g, box) is False
    rng = np.random.default_rng(1)
    for pt in sample_points(box, rng, 1000):
        assert g.body.evaluate(pt) > 0


def test_classify_guard_undecided_when_straddling():
    g = guard("y1")
    assert classify_guard(g, Box.of(("y1", (-1.0, 1.0)))) is None


def test_classify_strict_boundary_rules():
    # strict guard: false already when the lower bound touches zero
    g = guard("y1", strict=True)
    assert classify_guard(g, Box.of(("y1", (0.0, 1.0)))) is False
    assert classify_guard(g, Box.of(("y1", (-2.0, -1.0)))) is True
    # non-strict: true when the upper bound touches zero
    g = guard("y1")
    assert classify_guard(g, Box.of(("y1", (-1.0, 0.0)))) is True
    assert classify_guard(g, Box.of(("y1", (0.0, 1.0)))) is None


def test_classify_monotone_under_bisection():
    g = guard("y1*y2 - 0.5")
    box = Box.of(("y1", (0.55, 0.9)), ("y2", (0.95, 1.4)))
    decision = classify_guard(g, box)
    assert decision is not None
    stack = [box]
    for _ in range(20):
        b = stack.pop(0)
        for child in box_halves(b, 0) + box_halves(b, 1):
            assert classify_guard(g, child) is decision
        stack.extend(box_halves(b, 0))


LIN = Linear((("x1", ef.Var("y1")),), ef.Const(0.0))
G = Guard(ef.Var("y1"))
H = Guard(parse_expr("y1 - 0.5"))
TRUE, FALSE = And(()), Or(())
STRADDLE = Box.of(("y1", (-1.0, 1.0)))  # G and H stay undecided here


def test_reduce_formula_constants():
    assert reduce_on(TRUE, STRADDLE) is True
    assert reduce_on(FALSE, STRADDLE) is False
    assert reduce_on(Or((TRUE, LIN)), STRADDLE) is True
    assert reduce_on(Or((FALSE, LIN)), STRADDLE) is LIN
    assert reduce_on(And((Or((FALSE, G)), TRUE)), STRADDLE) == [G]
    assert reduce_on(And((FALSE, LIN)), STRADDLE) is False


def test_reduce_formula_decides_guards():
    # y1 <= 0 is false on [1, 2] and true on [-2, -1]
    assert reduce_on(Or((G, LIN)), Box.of(("y1", (1.0, 2.0)))) is LIN
    negative = Box.of(("y1", (-2.0, -1.0)))
    assert reduce_on(And((G, Or((G, LIN)))), negative) is True


def test_reduce_formula_keeps_relevant_guards_in_leaf_order():
    assert reduce_on(And((H, Or((FALSE, G)), LIN)), STRADDLE) == [H, G]
    # the guards of a settled and/or are dropped
    assert reduce_on(Or((And((G, FALSE)), H)), STRADDLE) == [H]
    assert reduce_on(Or((LIN, G)), STRADDLE) == [G]


# -- the walk against brute force ---------------------------------------------
#
# A tree is a leaf index (0-3 a guard leaf, 4 the linear leaf) or a pair
# (And or Or, list of trees); `decisions[k]` decides guard leaf k.

GUARDS = [Guard(parse_expr(f"y1 - {k}")) for k in range(4)]
SLOT = {id(g): k for k, g in enumerate(GUARDS)}
TREES = st.recursive(
    st.integers(0, 4),
    lambda kids: st.tuples(st.sampled_from((And, Or)), st.lists(kids, max_size=4)),
    max_leaves=12)


def to_formula(tree, linear_seen):
    """The formula of tree; linear leaves after the first become guard 3."""
    if isinstance(tree, int):
        if tree < 4:
            return GUARDS[tree]
        if linear_seen:
            return GUARDS[3]
        linear_seen.append(True)
        return LIN
    node, kids = tree
    return node(tuple(to_formula(k, linear_seen) for k in kids))


def truth(f, guards, lin):
    if isinstance(f, Guard):
        return guards[SLOT[id(f)]]
    if isinstance(f, Linear):
        return lin
    values = [truth(item, guards, lin) for item in f.items]
    return all(values) if isinstance(f, And) else any(values)


def undecided_leaves(f, decisions):
    return [SLOT[id(g)] for g in guard_leaves(f) if decisions[SLOT[id(g)]] is None]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(tree=TREES, decisions=st.lists(st.sampled_from((True, False, None)),
                                      min_size=4, max_size=4))
# (g0 or lin) and g1 with g0 false and g1 true: the neutral g1 after the
# linear leaf must not overwrite it
@example(tree=(And, [(Or, [0, 4]), 1]), decisions=[False, True, None, None])
def test_reduce_matches_brute_force(tree, decisions):
    f = to_formula(tree, [])
    verdict = _reduce(f, SLOT, lambda g, s: decisions[s])
    open_slots = [k for k in range(4) if decisions[k] is None]
    completions = []
    for values in itertools.product((False, True), repeat=len(open_slots)):
        guards = list(decisions)
        for k, v in zip(open_slots, values):
            guards[k] = v
        for lin in (False, True):
            completions.append((truth(f, guards, lin), lin))
    # strong Kleene logic is exact on monotone formulas
    if all(t for t, _ in completions):
        assert verdict is True
    elif not any(t for t, _ in completions):
        assert verdict is False
    elif all(t == lin for t, lin in completions):
        assert verdict is LIN
    else:
        assert isinstance(verdict, list) and verdict
        leaves = iter(undecided_leaves(f, decisions))
        assert all(s in leaves for s in verdict)  # in leaf order


def test_simplify_branch_linear_row(benchmarks):
    problem = benchmarks["A"]
    status = classify(problem.branches[0], problem.x_vars)
    assert isinstance(status, LinearRow)
    assert len(status.coeff_lo) == len(status.coeff_hi) == 5
    assert status.rhs_lo == status.rhs_hi == -0.0001
    assert all(h > l for l, h in zip(status.coeff_lo, status.coeff_hi))


def test_simplify_branch_proved_true(two_branch_problem):
    br = two_branch_problem.branches[0]
    # on this sub-box y1 >= y2 holds outright, so the disjunction is true
    sub = Box.of(("y1", (0.9, 1.0)), ("y2", (-1.0, 0.0)))
    status = classify(ef.Branch(sub, br.formula), two_branch_problem.x_vars)
    assert status is True


def test_simplify_branch_proved_false():
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [1,2] : y1 <= 0 and x1*y1 <= 1 ;
    """)
    status = classify(p.branches[0], p.x_vars)
    assert status is False


def test_simplify_branch_undecided(two_branch_problem):
    br = two_branch_problem.branches[0]
    cb = compile_branch(br.formula, br.box.names, two_branch_problem.x_vars)
    status, *_ = simplify_branch(cb, *br.box.endpoints())
    assert isinstance(status, Undecided)
    # the one guard, y2 - y1 <= 0, and its natural enclosure, for the guard
    # pick
    (g,) = guard_leaves(br.formula)
    assert status.slot == cb.guard_slot[id(g)]
    assert (status.lo, status.hi) == (-2.0, 1.0)


def test_guard_without_enclosure_is_undecided():
    # y1/y1 has no enclosure on [0, 1]; the mean-value form must not read
    # the slots that the fallback leaves infinite
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : y1/y1 <= 2 or x1*y1 <= 1 ;
    """)
    br = p.branches[0]
    cb = compile_branch(br.formula, br.box.names, p.x_vars)
    (g,) = guard_leaves(br.formula)
    status = Undecided(cb.guard_slot[id(g)], -np.inf, np.inf)
    assert simplify_branch(cb, *br.box.endpoints()) == (status, 0, (None, None))


def test_missing_coefficient_becomes_zero_interval():
    p = ef.parse_problem("""
        exists x1 x2 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x2*y1 <= 1 ;
    """)
    status = classify(p.branches[0], p.x_vars)
    assert status.coeff_lo[0] == status.coeff_hi[0] == 0.0
    assert status.coeff_hi[1] == pytest.approx(1.0)


def test_proved_false_admits_no_x():
    # exhaustive sampling: a proved-false branch is false at every sampled
    # (x, y) pair, because the falsifying structure is y-only
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [1,2] : y1 <= 0 and x1*y1 <= 1 ;
    """)
    br = p.branches[0]
    assert classify(br, p.x_vars) is False
    from efsolver.solver import _substitute_x
    rng = np.random.default_rng(5)
    for xv in np.linspace(-10, 10, 41):
        cb = compile_branch(_substitute_x(br.formula, {"x1": float(xv)}),
                            br.box.names)
        for pt in sample_points(br.box, rng, 25):
            assert reduce_at_point(cb, pt) is False
