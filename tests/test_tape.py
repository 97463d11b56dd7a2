"""Interval tapes against the tree-walk oracle `Expr.interval`, and child
and trial runs against whole runs.

A tape runs as a generated kernel that calls the float-level helpers of
`intervals`, which the oracle calls too.  So a tape must give the oracle's
enclosure bit for bit, and must raise DomainError, with the same message,
exactly where the oracle does; a child or trial run, which re-runs only
the operations that depend on one dimension, must give what whole runs on
the same boxes give."""

import importlib.util
import io
import keyword
import math
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efsolver as ef
from efsolver import expr, simplify, solver
from efsolver.benchmarks import load_benchmark
from efsolver.errors import DomainError
from efsolver.expr import (Add, Const, Cos, Div, Mul, Neg, Pow, Sin, Sub, Var,
                           compile_tape, eval_on_box)
from efsolver.intervals import Box, Interval, halves, midpoint
from efsolver.simplify import compile_branch

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


# -- child and trial runs from a parent's slot lists -----------------------------
#
# A row keeps the slot lists of the runs that classified its box; a child
# re-runs only the operations that depend on the split dimension, and a
# trial run re-runs, per dimension, only the operations of the target's cone
# that depend on it.  The replays below check every child classification and
# every splitheur call of whole solves against whole runs on the same boxes.

def hexes(values):
    return [None if v is None else float(v).hex() for v in values]


def outcome(run):
    """The hex lists of run(), or the DomainError message."""
    try:
        return [hexes(ends) for ends in run()]
    except DomainError as e:
        return f"DomainError: {e}"


@SETTINGS
@given(ts=st.lists(exprs, min_size=1, max_size=3), box=boxes(), dim=st.integers(0, 2),
       sign=st.sampled_from("+-"))
def test_child_and_trial_runs_match_whole_runs_on_random_tapes(ts, box, dim, sign):
    # on every box where the parent's whole run has an enclosure: each
    # half's child run gives the half's whole run, or raises where it does
    # with the same message, and the trial run gives the per-trial loop
    tape = compile_tape(ts, NAMES)
    lo, hi = box.endpoints()
    try:
        parent = eval_on_box(tape, lo, hi)
    except DomainError:
        return
    for root in tape.roots:
        cone = tape.restrict((root,))
        assert outcome(lambda: [eval_on_box(cone, lo, hi, parent, sign=sign)]) == outcome(
            lambda: [reference_trials(cone, root, lo, hi, sign)])
    mid = midpoint(lo[dim], hi[dim])
    if not lo[dim] < mid < hi[dim]:
        return
    for child in halves(lo, hi, dim):
        assert outcome(lambda: eval_on_box(tape, *child, parent, dim)) == outcome(
            lambda: eval_on_box(tape, *child))


def reference_trials(tape, slot, lo, hi, sign):
    """The per-trial loop that a trial run replaces: per dimension, the
    targeted bound of slot on the lower and then on the upper half, each
    from a whole run on the half; None twice for a dimension without
    lo < mid < hi."""
    upper = sign == "+"
    child_lo, child_hi = list(lo), list(hi)
    bounds = []
    for i, (l, h) in enumerate(zip(lo, hi)):
        mid = midpoint(l, h)
        if not l < mid < h:
            bounds += [None, None]
            continue
        for endpoints, old in ((child_hi, h), (child_lo, l)):
            endpoints[i] = mid
            L, H = eval_on_box(tape, child_lo, child_hi)
            endpoints[i] = old
            bounds.append(H[slot] if upper else L[slot])
    return bounds


def reference_splitheur(tape, slot, lo, hi, base, sign, ages, kappa):
    """splitheur as it ran with two whole runs per dimension."""
    blo, bhi = base
    upper = sign == "+"
    bound = bhi if upper else blo
    base_width = bhi - blo
    credit, scale = kappa * base_width, 1.0
    oldest = int(max(ages, default=0))
    if math.isinf(credit * max(oldest, 1)) and math.isfinite(base_width):
        top = sum(math.frexp(v)[1] for v in (kappa, base_width, oldest))
        scale = math.ldexp(1.0, 1000 - top)
        credit = kappa * scale * base_width
    child_lo, child_hi = list(lo), list(hi)
    best_i = None
    best_score = -1.0
    for i, (l, h) in enumerate(zip(lo, hi)):
        mid = midpoint(l, h)
        if not l < mid < h:
            continue
        improvement = 0.0
        for endpoints, old in ((child_hi, h), (child_lo, l)):
            endpoints[i] = mid
            L, H = eval_on_box(tape, child_lo, child_hi)
            endpoints[i] = old
            movement = abs(bound - (H[slot] if upper else L[slot]))
            improvement = max(improvement, movement)
        score = credit * ages[i] + improvement * scale
        if score > best_score:
            best_score = score
            best_i = i
    if best_i is None:
        raise ef.AllDimensionsDegenerate("no splittable dimension in box")
    return best_i


def whole_run(tape, lo, hi):
    """The hex slot lists of a whole run, or None where it raises."""
    try:
        L, H = eval_on_box(tape, lo, hi)
    except DomainError:
        return None
    return hexes(L), hexes(H)


def check_child(cb, lo, hi, parent, got):
    """A child's status, kept runs and row against whole runs on its box."""
    status, tightened, (guard_run, linear_run) = got
    want, want_tightened, _ = simplify.simplify_branch(cb, lo, hi)
    assert tightened == want_tightened
    if isinstance(want, simplify.LinearRow):
        assert isinstance(status, simplify.LinearRow)
        assert hexes(status.ends) == hexes(want.ends)
    elif isinstance(want, simplify.Undecided):
        assert (status.slot, *hexes((status.lo, status.hi))) == (
            want.slot, *hexes((want.lo, want.hi)))
    else:
        assert status is want
    if cb.guard_slot:
        whole = whole_run(cb.guards, lo, hi)
        assert (None if guard_run is None else tuple(map(hexes, guard_run))) == whole
    else:
        assert guard_run is None
    if isinstance(status, simplify.LinearRow):
        assert tuple(map(hexes, linear_run)) == whole_run(cb.linear, lo, hi)
    else:
        assert linear_run is None


def replay(monkeypatch, problem, strategy, max_splits):
    """Solve with every child classification and splitheur call checked;
    the outcome and counts of the kinds of checked calls."""
    seen = Counter()
    classify, choose = solver.simplify_branch, solver.splitheur

    def checked_classify(cb, lo, hi, parent=None, dim=None):
        got = classify(cb, lo, hi, parent, dim)
        if parent is not None:
            check_child(cb, lo, hi, parent, got)
            seen["child"] += 1
            fell_back = bool(cb.guard_slot) and parent[0] is None
            seen["child of a fallback guard run"] += fell_back
            seen["kept guard run after a fallback"] += fell_back and got[2][0] is not None
            seen["child of an undecided row"] += parent[1] is None
            seen["linear run from the parent"] += (got[2][1] is not None
                                                   and parent[1] is not None)
        return got

    def checked_choose(tape, slot, lo, hi, base, sign, ages, kappa, parent=None):
        run = eval_on_box(tape, lo, hi) if parent is None else parent
        assert hexes(eval_on_box(tape, lo, hi, run, sign=sign)) == hexes(
            reference_trials(tape, slot, lo, hi, sign))
        want = reference_splitheur(tape, slot, lo, hi, base, sign, list(ages), kappa)
        dim = choose(tape, slot, lo, hi, base, sign, ages, kappa, parent)
        assert dim == want
        seen["splitheur"] += 1
        seen["splitheur without a run"] += parent is None
        return dim

    monkeypatch.setattr(solver, "simplify_branch", checked_classify)
    monkeypatch.setattr(solver, "splitheur", checked_choose)
    out = ef.solve(problem, ef.SolveConfig(heuristic=ef.HeuristicConfig(
        strategy=ef.Strategy.from_name(strategy)), max_splits=max_splits))
    return out, seen


@pytest.mark.parametrize("name,strategy,splits", [
    ("A", "split-all", 60), ("B", "split-all", 104), ("C", "split-all", 91),
    ("D", "split-all", 458), ("D", "split-worst", 418)])
def test_child_and_trial_runs_match_whole_runs(benchmarks, monkeypatch, name,
                                               strategy, splits):
    out, seen = replay(monkeypatch, benchmarks[name], strategy, 1500)
    assert out.is_solution and out.stats.splits == splits
    assert seen["child"] == 2 * splits
    assert seen["linear run from the parent"] == 2 * splits
    assert seen["splitheur"] == splits


def guarded_pass(monkeypatch, seed):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "guarded.py"
    spec = importlib.util.spec_from_file_location("perfbench_guarded", path)
    guarded = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, guarded)  # for its dataclasses
    spec.loader.exec_module(guarded)
    return [(ef.parse_problem(inst.text),
             guarded.CROSSING_MAX_SPLITS if inst.kind == "crossing" else guarded.MAX_SPLITS)
            for inst in guarded.generate_pass(seed)]


def test_child_and_trial_runs_match_whole_runs_on_guards(monkeypatch):
    # the benchmark's guarded instances of seed 101, whose undecided rows'
    # children are classified from the parent's guard run alone
    total = Counter()
    for problem, cap in guarded_pass(monkeypatch, 101):
        _, seen = replay(monkeypatch, problem, "split-all", cap)
        total += seen
    assert total["child of an undecided row"] > 100
    assert total["splitheur"] > 100


@pytest.mark.parametrize("strategy", ["split-all", "round-robin"])
def test_child_runs_after_a_fallback_guard_run(monkeypatch, strategy):
    # 1/y1 has no enclosure on a box around y1 = 0, so the guard run falls
    # back per slot and the row keeps no guard run; a child away from 0
    # runs whole and keeps its run
    _, seen = replay(monkeypatch, ef.parse_problem(
        "exists x1 ;\nforall-vars y1 ;\nbranch y1 in [-1,1] : 1/y1 <= 0 or x1 <= 1 ;\n"),
        strategy, 50)
    assert seen["child of a fallback guard run"] > 0
    assert seen["kept guard run after a fallback"] > 0


def test_trial_run_without_a_kept_run(monkeypatch):
    # the and-clause is false without its second guard, which has no
    # enclosure on the box: the guard run falls back per slot, the row is
    # undecided on its first guard, and its trial split first runs the
    # guard's cone whole
    problem = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 y2 ;
        branch y1 in [-1,1], y2 in [-1,1] :
          y1^2 + y1*y2 - 0.5 <= 0 or (2 - y1 <= 0 and 1/y1 <= 0) or x1 <= 1 ;
    """)
    _, seen = replay(monkeypatch, problem, "split-all", 40)
    assert seen["splitheur without a run"] > 0
    assert seen["splitheur"] > seen["splitheur without a run"]


def test_negated_constants_compile_to_constants():
    # negation is exact, so the negation of a constant is a constant slot,
    # -0.0 kept apart from 0.0
    y1 = Var("y1")
    exprs = (Mul(Neg(Const(2.0)), y1), Neg(Neg(Const(-0.0))), Sub(y1, Neg(Const(3.0))))
    tape = compile_tape(exprs, ("y1",))
    assert [op[0] for op in tape.ops] == ["mul", "sub"]
    box = Box.of(("y1", (-1.0, 2.0)))
    assert tape_run(tape, box) == [oracle(t, box) for t in exprs]
    # a whole run of a bundled instance's linear tape ran 2 (A), 2 (B),
    # 5 (C) and 2 (D) such negations before
    for name in "ABCD":
        problem = load_benchmark(name)
        for br in problem.branches:
            t = compile_branch(br.formula, br.box.names, problem.x_vars).tape
            results = {dst for *_, dst in t.ops}
            assert not [op for op in t.ops if op[0] == "neg" and op[1] >= len(t.names)
                        and op[1] not in results], name
