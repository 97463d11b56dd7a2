"""Soundness fuzz test over small generated guarded problems.

Each problem has one or two universal variables, low-degree polynomial
guards in an and/or structure around one linear row, and runs under a
small split cap.  Whatever the outcome, it must be sound: only an
EFSolverError may escape `solve`, no "solution" may have a counterexample
under `verify_solution`, and every infeasibility witness box must make
its formula false at its midpoint."""

from hypothesis import given, settings
from hypothesis import strategies as st

import efsolver as ef
from efsolver.errors import EFSolverError
from efsolver.model import And, Guard, Linear, Or
from efsolver.simplify import compile_branch, reduce_at_point
from efsolver.solver import VerifyStatus, _substitute_x

X_VARS = ("x1", "x2")

coefficients = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


@st.composite
def polynomials(draw, y_vars):
    """A sum of one to four monomials of degree at most 2, plus a constant."""
    body = ef.Const(draw(st.floats(-1.0, 1.0, allow_nan=False)))
    for _ in range(draw(st.integers(1, 4))):
        term = ef.Const(draw(coefficients))
        for _ in range(draw(st.integers(1, 2))):
            term = ef.Mul(term, ef.Var(draw(st.sampled_from(y_vars))))
        body = ef.Add(body, term)
    return body


@st.composite
def problems(draw):
    y_vars = ("y1", "y2")[:draw(st.integers(1, 2))]
    dims = []
    for name in y_vars:
        lo = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.25]))
        dims.append((name, (lo, lo + draw(st.sampled_from([0.5, 1.0, 2.0])))))
    box = ef.Box.of(*dims)

    def guard():
        return Guard(draw(polynomials(y_vars)), draw(st.booleans()))

    # every coefficient depends on y, so no row is an exact point system
    coeffs = tuple((x, ef.Add(ef.Const(draw(coefficients)),
                              ef.Mul(ef.Const(draw(coefficients)),
                                     ef.Var(draw(st.sampled_from(y_vars))))))
                   for x in X_VARS)
    row = Linear(coeffs, ef.Const(draw(st.floats(-1.0, 2.0))))
    shape = draw(st.integers(0, 3))
    formula = (Or((guard(), row)),
               And((Or((guard(), row)), guard())),
               Or((And((guard(), guard())), row)),
               And((guard(), row)))[shape]
    branches = (ef.Branch(box, formula),)
    if draw(st.booleans()):
        x1_coeff = ef.Add(ef.Const(1.0), ef.Mul(ef.Const(0.25), ef.Var("y1")))
        branches += (ef.Branch(box, Linear(
            (("x1", x1_coeff),), ef.Const(draw(st.floats(-1.0, 1.0))))),)
    return ef.Problem(X_VARS, y_vars, branches, (), ())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(problem=problems(), strategy=st.sampled_from(list(ef.Strategy)),
       max_splits=st.integers(0, 60))
def test_verdicts_on_generated_guarded_problems_are_sound(problem, strategy,
                                                          max_splits):
    try:
        out = ef.solve(problem, ef.SolveConfig(
            heuristic=ef.HeuristicConfig(strategy=strategy),
            max_splits=max_splits, time_budget=10.0))
    except EFSolverError:
        return
    if out.outcome is ef.Outcome.SOLUTION:
        verdict = ef.verify_solution(problem, out.x, depth=12, max_boxes=5000)
        assert verdict.status is not VerifyStatus.COUNTEREXAMPLE, verdict
    if out.witness is not None:
        # the witness is false over its whole box whatever x is
        w = out.witness
        cb = compile_branch(_substitute_x(w.formula, dict.fromkeys(X_VARS, 0.0)),
                            w.box.names)
        assert reduce_at_point(cb, w.box.midpoint()) is False
