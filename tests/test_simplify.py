import numpy as np
import pytest

import efsolver as ef
from efsolver.expr import enclose, eval_on_box
from efsolver.intervals import Box
from efsolver.model import And, FalseF, Guard, GuardAtom, Linear, Or, TrueF
from efsolver.parsing import parse_expression
from efsolver.simplify import (Decision, LinearRow, ProvedFalse, ProvedTrue,
                               Undecided, classify_guard, compile_branch,
                               reduce_formula, simplify_branch)


def guard(text, strict=False):
    return GuardAtom(parse_expression(text), strict)


def reduce_on(f, box):
    cb = compile_branch(f, box.names, ("x1",))
    return reduce_formula(cb, *eval_on_box(cb.guards, *box.endpoints()))


def classify(br, x_vars):
    cb = compile_branch(br.formula, br.box.names, x_vars)
    return simplify_branch(cb, *br.box.endpoints())


def test_classify_guard_true_on_negative_enclosure():
    g = guard("y2 - y1")
    box = Box.of(("y1", (0.8, 1.2)), ("y2", (0.3, 0.49)))
    enclosure = enclose(g.body, box)
    assert enclosure.lo == pytest.approx(-0.9, abs=1e-12)
    assert enclosure.hi == pytest.approx(-0.31, abs=1e-12)
    assert classify_guard(g, box) is Decision.TRUE
    # sampled soundness: the guard holds at random points
    rng = np.random.default_rng(0)
    for pt in box.sample(rng, 1000):
        assert g.body.evaluate(pt) <= 0


def test_classify_guard_false_on_positive_enclosure():
    g = guard("y1")
    box = Box.of(("y1", (0.1, 2.0)))
    assert classify_guard(g, box) is Decision.FALSE
    rng = np.random.default_rng(1)
    for pt in box.sample(rng, 1000):
        assert g.body.evaluate(pt) > 0


def test_classify_guard_undecided_when_straddling():
    g = guard("y1")
    assert classify_guard(g, Box.of(("y1", (-1.0, 1.0)))) is Decision.UNDECIDED


def test_classify_strict_boundary_rules():
    # strict guard: false already when the lower bound touches zero
    g = guard("y1", strict=True)
    assert classify_guard(g, Box.of(("y1", (0.0, 1.0)))) is Decision.FALSE
    assert classify_guard(g, Box.of(("y1", (-2.0, -1.0)))) is Decision.TRUE
    # non-strict: true when the upper bound touches zero
    g = guard("y1")
    assert classify_guard(g, Box.of(("y1", (-1.0, 0.0)))) is Decision.TRUE
    assert classify_guard(g, Box.of(("y1", (0.0, 1.0)))) is Decision.UNDECIDED


def test_classify_monotone_under_bisection():
    g = guard("y1*y2 - 0.5")
    box = Box.of(("y1", (0.55, 0.9)), ("y2", (0.95, 1.4)))
    decision = classify_guard(g, box)
    assert decision is not Decision.UNDECIDED
    stack = [box]
    for _ in range(20):
        b = stack.pop(0)
        for child in b.split(0) + b.split(1):
            assert classify_guard(g, child) is decision
        stack.extend(b.split(0))


LIN = Linear(ef.LinearAtom((("x1", ef.Var("y1")),), ef.Const(0.0)))
G = Guard(GuardAtom(ef.Var("y1")))
STRADDLE = Box.of(("y1", (-1.0, 1.0)))  # G stays undecided here


def test_reduce_formula_constants():
    assert reduce_on(Or((TrueF(), LIN)), STRADDLE) == TrueF()
    assert reduce_on(Or((FalseF(), LIN)), STRADDLE) == LIN
    assert reduce_on(And((Or((FalseF(), G)), TrueF())), STRADDLE) == G
    assert reduce_on(And((FalseF(), LIN)), STRADDLE) == FalseF()
    assert reduce_on(And(()), STRADDLE) == TrueF()
    assert reduce_on(Or(()), STRADDLE) == FalseF()


def test_reduce_formula_flattens():
    nested = And((And((G, G)), Or((FalseF(), And((G,))))))
    out = reduce_on(nested, STRADDLE)
    assert out == And((G, G, G))


def test_reduce_formula_decides_guards():
    # y1 <= 0 is false on [1, 2] and true on [-2, -1]
    assert reduce_on(Or((G, LIN)), Box.of(("y1", (1.0, 2.0)))) == LIN
    negative = Box.of(("y1", (-2.0, -1.0)))
    assert reduce_on(And((G, Or((G, LIN)))), negative) == TrueF()


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
    assert isinstance(status, ProvedTrue)


def test_simplify_branch_proved_false():
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [1,2] : y1 <= 0 and x1*y1 <= 1 ;
    """)
    status = classify(p.branches[0], p.x_vars)
    assert isinstance(status, ProvedFalse)


def test_simplify_branch_undecided(two_branch_problem):
    br = two_branch_problem.branches[0]
    status = classify(br, two_branch_problem.x_vars)
    assert isinstance(status, Undecided)
    leaves = list(ef.model.formula_leaves(status.formula))
    assert any(isinstance(l, Guard) for l in leaves)


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
    assert isinstance(classify(br, p.x_vars), ProvedFalse)
    from efsolver.solver import _holds_at, _substitute_x
    rng = np.random.default_rng(5)
    for xv in np.linspace(-10, 10, 41):
        f = _substitute_x(br.formula, {"x1": float(xv)})
        for pt in br.box.sample(rng, 25):
            assert not _holds_at(f, pt)
