"""Interval tapes against the tree-walk oracle `Expr.interval`.

Both evaluators call the same float-level helpers of `intervals`, so a
tape must give the oracle's enclosure bit for bit, and must raise
DomainError exactly where the oracle does."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efsolver as ef
from efsolver import simplify
from efsolver.errors import DomainError
from efsolver.expr import (Add, Const, Cos, Div, Mul, Neg, Pow, Sin, Sub, Var,
                           compile_tape, eval_on_box)
from efsolver.intervals import Box, Interval

from conftest import box_env, parse_expr

NAMES = ("y1", "y2", "y3")

constants = (st.floats(-1e3, 1e3, allow_nan=False)
             | st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 1e200, -1e300]))
leaves = st.builds(Const, constants) | st.builds(Var, st.sampled_from(NAMES))


def _extend(children):
    return (st.builds(Neg, children) | st.builds(Sin, children)
            | st.builds(Cos, children)
            | st.builds(Pow, children, st.integers(1, 5))
            | st.builds(Add, children, children) | st.builds(Sub, children, children)
            | st.builds(Mul, children, children) | st.builds(Div, children, children))


exprs = st.recursive(leaves, _extend, max_leaves=12)
endpoints = (st.floats(-10.0, 10.0, allow_nan=False)
             | st.floats(-1e160, 1e160, allow_nan=False))


@st.composite
def boxes(draw):
    dims = []
    for name in NAMES:
        a, b = sorted((draw(endpoints), draw(endpoints)))
        dims.append((name, (a, b)))
    return Box.of(*dims)


def oracle(t, box):
    """(lo, hi) of the tree walk as float hex strings, or DomainError."""
    try:
        iv = t.interval(box_env(box))
    except DomainError:
        return DomainError
    return iv.lo.hex(), iv.hi.hex()


def tape_run(tape, box):
    """(lo, hi) of every root of the tape, as in `oracle`, or DomainError."""
    try:
        L, H = eval_on_box(tape, *box.endpoints())
    except DomainError:
        return DomainError
    return [(float(L[s]).hex(), float(H[s]).hex()) for s in tape.roots]


SETTINGS = settings(derandomize=True, database=None, max_examples=400,
                    deadline=None)


@SETTINGS
@given(t=exprs, box=boxes())
def test_tape_matches_tree_walk_bit_for_bit(t, box):
    expected = oracle(t, box)
    got = tape_run(compile_tape((t,), NAMES), box)
    assert got == (expected if expected is DomainError else [expected])


@SETTINGS
@given(ts=st.lists(exprs, min_size=2, max_size=4), box=boxes())
def test_shared_tape_matches_each_tree_walk(ts, box):
    # several expressions in one tape share their common subterms; each
    # root, and each root's restricted tape, still matches its own oracle
    ts = ts + [Add(ts[0], ts[1])]
    expected = [oracle(t, box) for t in ts]
    tape = compile_tape(ts, NAMES)
    if DomainError in expected:
        assert tape_run(tape, box) is DomainError
    else:
        assert tape_run(tape, box) == expected
    for t, want, slot in zip(ts, expected, tape.roots):
        got = tape_run(tape.restrict((slot,)), box)
        assert got == (want if want is DomainError else [want])


@pytest.mark.parametrize("t,dims", [
    (Mul(Const(1e300), Var("y1")), (1e10, 2e10)),
    (Add(Var("y1"), Var("y1")), (1e308, 1.7e308)),
    (Sub(Const(-1.7e308), Var("y1")), (1e308, 1.5e308)),
    (Div(Var("y1"), Const(1e-300)), (1e10, 2e10)),
    (Pow(Var("y1"), 3), (1e103, 1e104)),
    (Pow(Var("y1"), 2), (-1e200, 1.0)),
    (Sin(Mul(Var("y1"), Var("y1"))), (1e200, 1e201)),
])
def test_overflow_raises_domain_error_on_both_paths(t, dims):
    box = Box.of(("y1", dims))
    assert oracle(t, box) is DomainError
    assert tape_run(compile_tape((t,), ("y1",)), box) is DomainError


def test_structurally_equal_subterms_share_a_slot():
    y1, y2 = Var("y1"), Var("y2")
    a = Mul(Const(2.0), Mul(y1, y2))
    b = Sub(Mul(y1, y2), Const(2.0))
    tape = compile_tape((a, b, Mul(Const(2.0), Mul(y1, y2))), ("y1", "y2"))
    assert len(tape.ops) == 3  # y1*y2, 2*(y1*y2), y1*y2 - 2
    assert tape.roots[0] == tape.roots[2]
    # 0.0 and -0.0 compare equal but are kept apart
    tape = compile_tape((Const(0.0), Const(-0.0)), ("y1",))
    assert tape.roots[0] != tape.roots[1]


def test_compiling_rejects_undeclared_variables_and_unknown_nodes():
    with pytest.raises(ef.UndeclaredVariable):
        compile_tape((Add(Var("y1"), Var("z")),), ("y1",))
    with pytest.raises(TypeError):
        compile_tape((ef.Expr(),), ("y1",))


def test_enclose_is_the_tape_enclosure():
    t = parse_expr("y1*y2 - sin(y1)/(2 + y2^2)")
    box = Box.of(("y1", (-1.0, 2.0)), ("y2", (0.5, 3.0)))
    assert ef.enclose(t, box) == t.interval(box_env(box))
    assert isinstance(ef.enclose(t, box), Interval)


def count_compiles(monkeypatch):
    calls = []
    original = simplify.compile_tape

    def counted(exprs, names):
        calls.append(len(exprs))
        return original(exprs, names)

    monkeypatch.setattr(simplify, "compile_tape", counted)
    return calls


@pytest.mark.parametrize("name,strategy", [
    ("A", "split-all"), ("C", "split-worst"), ("eq_guarded", "split-all"),
    ("B", "round-robin")])
def test_solve_compiles_once_per_branch(benchmarks, monkeypatch, name, strategy):
    problem = benchmarks[name]
    calls = count_compiles(monkeypatch)
    out = ef.solve(problem, ef.SolveConfig(heuristic=ef.HeuristicConfig(
        strategy=ef.Strategy.from_name(strategy)), max_splits=3000))
    assert out.is_solution and out.stats.splits > 0
    assert len(calls) == len(problem.branches)
    # verification compiles each substituted branch formula once more
    calls.clear()
    assert ef.verify_solution(problem, out.x)
    assert len(calls) == len(problem.branches)
