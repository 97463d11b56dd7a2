"""Interval tapes against the tree-walk oracle `Expr.interval`.

A tape runs as a generated kernel that calls the float-level helpers of
`intervals`, which the oracle calls too.  So a tape must give the oracle's
enclosure bit for bit, and must raise DomainError, with the same message,
exactly where the oracle does."""

import io
import keyword
import re
import sys
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efsolver as ef
from efsolver import expr, simplify
from efsolver.errors import DomainError
from efsolver.expr import (Add, Const, Cos, Div, Mul, Neg, Pow, Sin, Sub, Var,
                           compile_tape, eval_on_box)
from efsolver.intervals import Box, Interval

from conftest import box_env, parse_expr

NAMES = ("y1", "y2", "y3")

# subnormals, so that products underflow to zero; signed zeros, for exact
# zero products and signed-zero minima; values near the double range, where
# rounding outward reaches inf
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.7e308, -1.7e308]
constants = (st.floats(-1e3, 1e3, allow_nan=False)
             | st.sampled_from([1.0, -2.5, 1e-300, 1e200, -1e300, *EXTREMES]))
leaves = st.builds(Const, constants) | st.builds(Var, st.sampled_from(NAMES))


def _extend(children):
    return (st.builds(Neg, children) | st.builds(Sin, children)
            | st.builds(Cos, children)
            | st.builds(Pow, children, st.integers(1, 5))
            | st.builds(Add, children, children) | st.builds(Sub, children, children)
            | st.builds(Mul, children, children) | st.builds(Div, children, children))


exprs = st.recursive(leaves, _extend, max_leaves=12)
endpoints = (st.floats(-10.0, 10.0, allow_nan=False)
             | st.floats(-1e160, 1e160, allow_nan=False)
             | st.sampled_from(EXTREMES))


@st.composite
def boxes(draw):
    dims = []
    for name in NAMES:
        a, b = sorted((draw(endpoints), draw(endpoints)))
        dims.append((name, (a, b)))
    return Box.of(*dims)


def oracle(t, box):
    """(lo, hi) of the tree walk as float hex strings, or the DomainError
    message as a string."""
    try:
        iv = t.interval(box_env(box))
    except DomainError as e:
        return f"DomainError: {e}"
    return iv.lo.hex(), iv.hi.hex()


def tape_run(tape, box):
    """(lo, hi) of every root of the tape, as in `oracle`, or the DomainError
    message."""
    try:
        L, H = eval_on_box(tape, *box.endpoints())
    except DomainError as e:
        return f"DomainError: {e}"
    return [(float(L[s]).hex(), float(H[s]).hex()) for s in tape.roots]


def raised(result):
    return isinstance(result, str)


SETTINGS = settings(derandomize=True, database=None, max_examples=400,
                    deadline=None)


@SETTINGS
@given(t=exprs, box=boxes())
def test_tape_matches_tree_walk_bit_for_bit(t, box):
    expected = oracle(t, box)
    got = tape_run(compile_tape((t,), NAMES), box)
    assert got == (expected if raised(expected) else [expected])


@SETTINGS
@given(ts=st.lists(exprs, min_size=2, max_size=4), box=boxes())
def test_shared_tape_matches_each_tree_walk(ts, box):
    # several expressions in one tape share their common subterms; each
    # root, and each root's restricted tape, still matches its own oracle
    ts = ts + [Add(ts[0], ts[1])]
    expected = [oracle(t, box) for t in ts]
    tape = compile_tape(ts, NAMES)
    if any(map(raised, expected)):
        # the shared tape stops at the first operation that raises
        assert tape_run(tape, box) in [e for e in expected if raised(e)]
    else:
        assert tape_run(tape, box) == expected
    for t, want, slot in zip(ts, expected, tape.roots):
        got = tape_run(tape.restrict((slot,)), box)
        assert got == (want if raised(want) else [want])


@pytest.mark.parametrize("t,dims", [
    (Mul(Const(1e300), Var("y1")), (1e10, 2e10)),
    (Add(Var("y1"), Var("y1")), (1e308, 1.7e308)),
    (Sub(Const(-1.7e308), Var("y1")), (1e308, 1.5e308)),
    (Div(Var("y1"), Const(1e-300)), (1e10, 2e10)),
    (Pow(Var("y1"), 3), (1e103, 1e104)),
    (Pow(Var("y1"), 2), (-1e200, 1.0)),
    (Sin(Mul(Var("y1"), Var("y1"))), (1e200, 1e201)),
    (Add(Var("y1"), Const(1.7e308)), (-1.0, 1.7976931348623157e308)),
    (Mul(Var("y1"), Const(1.0)), (-1.7976931348623157e308, 1.0)),
    # ** raises OverflowError: odd, even above, below and around zero
    (Pow(Var("y1"), 5), (-1e100, 1.0)),
    (Pow(Var("y1"), 4), (1.0, 1e100)),
    (Pow(Var("y1"), 4), (-1e100, -1.0)),
    (Pow(Var("y1"), 6), (-1e100, 2.0)),
    (Pow(Var("y1"), 2), (1e200, 1e201)),
])
def test_overflow_raises_domain_error_on_both_paths(t, dims):
    box = Box.of(("y1", dims))
    expected = oracle(t, box)
    assert raised(expected)
    assert tape_run(compile_tape((t,), ("y1",)), box) == expected


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("dims", [
    (0.0, 2.0), (-0.0, 2.0), (-3.0, 0.0), (-3.0, -0.0), (-1.5, 2.0),
    (-2.0, 1.5), (0.0, 0.0), (-0.0, 0.0), (1e-200, 3.0), (-3.0, -1e-200),
    (-1e-310, 1e-310)])
def test_even_powers_at_and_around_zero(n, dims):
    t = Pow(Var("y1"), n)
    box = Box.of(("y1", dims))
    assert tape_run(compile_tape((t,), ("y1",)), box) == [oracle(t, box)]


def test_a_900_term_sum_compiles_and_matches_the_tree_walk():
    terms = [Mul(Const(0.1 * k - 7.3), Var(NAMES[k % 3])) if k % 2 else Const(1.0 / (k + 3))
             for k in range(900)]
    t = terms[0]
    for term in terms[1:]:
        t = Add(t, term)
    box = Box.of(("y1", (-1.0, 0.5)), ("y2", (0.0, 2.0)), ("y3", (-1e-3, 1e-3)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))  # the tree walk recurses per term
    try:
        tape = compile_tape((t,), NAMES)
        expected = oracle(t, box)
    finally:
        sys.setrecursionlimit(limit)
    assert len(tape.ops) == 899 + 450
    assert tape_run(tape, box) == [expected]


def test_tapes_of_one_shape_share_a_kernel():
    # the verifier's case: every call compiles the branches with a new x
    def body(c):
        return Sub(Mul(Const(c), Pow(Var("y1"), 2)), Div(Sin(Var("y2")), Const(3.0 + c)))
    box = Box.of(("y1", (-1.0, 2.0)), ("y2", (0.5, 1.5)))
    tapes = [compile_tape((body(c),), box.names) for c in (1.5, -2e-3)]
    assert tapes[0].ops == tapes[1].ops and tapes[0].init != tapes[1].init
    assert tapes[0].kernel is tapes[1].kernel
    for c, tape in zip((1.5, -2e-3), tapes):
        assert tape_run(tape, box) == [oracle(body(c), box)]


def test_verifying_a_new_x_with_the_same_zeros_compiles_no_kernel(benchmarks):
    problem = benchmarks["A"]
    out = ef.solve(problem)
    assert (out.x == 0.0).sum() == 2
    expr._kernel.cache_clear()  # no shape of this problem is evicted below
    assert ef.verify_solution(problem, out.x)
    misses = expr._kernel.cache_info().misses
    # the next double above each nonzero value, the zeros kept
    x = np.where(out.x == 0.0, 0.0, np.nextafter(out.x, np.inf))
    assert ef.verify_solution(problem, x)
    assert expr._kernel.cache_info().misses == misses
    # A zero of x shares the slot of the constant 0 that each substituted
    # sum starts with, so an x without zeros has one more constant slot,
    # which moves the operations' slots: a new shape, compiled once.
    x = np.nextafter(out.x, np.inf)
    assert ef.verify_solution(problem, x)
    assert expr._kernel.cache_info().misses == misses + 1


FIXED_NAMES = {"lo", "hi", "c", "L", "H", "neg", "add", "sub", "mul", "div", "sin",
               "cos", "power"}


def test_kernel_source_holds_slots_exponents_and_fixed_names():
    zeta, omega = Var("zeta"), Var("omega")
    t = Add(Mul(Const(123.456), Pow(zeta, 4)),
            Sub(Div(Sin(omega), Const(7e-5)),
                Neg(Mul(Cos(Pow(zeta, 3)), Pow(Add(omega, Const(-0.25)), 1)))))
    tape = compile_tape((t,), ("zeta", "omega"))
    src = expr._kernel_body((len(tape.names), tape.ops))
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.NAME:
            assert (keyword.iskeyword(tok.string) or tok.string in FIXED_NAMES
                    or re.fullmatch(r"[lh]\d+", tok.string)), tok
        elif tok.type == tokenize.NUMBER:
            assert tok.string.isdigit(), tok
    for value in ("zeta", "omega", "123.456", repr(7e-5), "0.25"):
        assert value not in src


def test_clearing_the_kernel_cache_changes_no_split(benchmarks):
    config = ef.SolveConfig(heuristic=ef.HeuristicConfig(
        strategy=ef.Strategy.from_name("split-worst")), max_splits=3000)
    runs = []
    for _ in range(2):
        expr._kernel.cache_clear()
        out = ef.solve(benchmarks["B"], config)
        assert out.is_solution
        runs.append((out.stats.split_history, [float(v).hex() for v in out.x]))
    assert runs[0] == runs[1]


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
