import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import efsolver as ef
from efsolver import simplex, solver
from efsolver.expr import eval_on_box, mean_value, mean_value_form
from efsolver.heuristics import RHS_COEFFICIENT
from efsolver.intervals import midpoint
from efsolver.model import Guard, Linear, Or
from efsolver.simplify import (Undecided, compile_branch, decide_guard,
                               reduce_at_point)
from efsolver.solver import (Outcome, SolveConfig, VerifyStatus,
                             _substitute_x)

from conftest import box_env, random_robust_problem, sample_points


def solve_text(text, **kw):
    problem = ef.parse_problem(text)
    heuristic = kw.pop("heuristic", ef.HeuristicConfig())
    return problem, ef.solve(problem, SolveConfig(heuristic=heuristic, **kw))


def test_false_guard_conjunction_is_infeasible():
    problem, out = solve_text("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [1,2] : y1 <= 0 and x1*y1 <= 1 ;
    """)
    assert out.outcome is Outcome.INFEASIBLE
    assert out.witness is not None
    assert out.stats.splits == 0


def test_trivially_solvable_without_splits():
    problem, out = solve_text("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1*y1 <= 1 ;
    """)
    assert out.outcome is Outcome.SOLUTION
    assert out.stats.splits == 0
    assert out.x[0] == pytest.approx(0.0, abs=1e-9)
    assert ef.verify_solution(problem, out.x)


def test_solution_certificate_has_margins():
    problem, out = solve_text("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1*y1 <= 1 ;
    """)
    assert out.certificate and out.certificate[0]["margin"] >= 0


def test_budget_zero_splits():
    p = ef.parse_problem("""
        exists x1 x2 ;
        forall-vars y1 y2 ;
        branch y1 in [-1,3], y2 in [0,1] : x1*y1 + x2*y2 <= -2 ;
    """)
    out = ef.solve(p, SolveConfig(max_splits=0))
    assert out.outcome is Outcome.BUDGET_EXHAUSTED
    assert out.stats.splits == 0


def test_time_budget_exhaustion():
    p = ef.parse_problem("""
        exists x1 x2 ;
        forall-vars y1 y2 ;
        branch y1 in [-1,3], y2 in [0,1] : x1*y1 + x2*y2 <= -2 ;
    """)
    out = ef.solve(p, SolveConfig(max_splits=10_000, time_budget=0.0))
    assert out.outcome is Outcome.BUDGET_EXHAUSTED


def test_invalid_problem_raises():
    box = ef.Box.of(("y", (0, 1)))
    bad = ef.Problem(("x1",), ("y",), (ef.Branch(box, ef.Guard(ef.Var("x1"))),))
    with pytest.raises(ef.InvalidProblem):
        ef.solve(bad, SolveConfig())


def test_split_count_never_exceeds_budget():
    p = ef.parse_problem("""
        exists x1 x2 ;
        forall-vars y1 y2 ;
        branch y1 in [-1,3], y2 in [0,1] : x1*y1 + x2*y2 <= -2 ;
    """)
    for cap in (1, 3, 7):
        out = ef.solve(p, SolveConfig(max_splits=cap))
        assert out.stats.splits <= cap


def test_example_b_split_all(benchmarks):
    out = ef.solve(benchmarks["B"], SolveConfig(
        heuristic=ef.HeuristicConfig(strategy=ef.Strategy.SPLIT_ALL),
        max_splits=5000))
    assert out.outcome is Outcome.SOLUTION
    assert out.stats.rounds <= 25
    assert ef.verify_solution(benchmarks["B"], out.x, 25)


# The guard's zero set misses [0, 1], but its natural enclosure straddles
# zero on the initial box and on the halves of the first splits, so the
# first branch stays undecided until the guard picks have split it.
GUARD_OR = """
    exists x1 ;
    forall-vars y1 ;
    branch y1 in [0,1] : y1^2 - y1 + 0.3 <= 0 or x1*y1 <= 1 ;
    branch y1 in [0,1] : -x1 <= 0 ;
"""


def test_undecided_guard_branch_gets_split(monkeypatch):
    pick, picks = solver._pick_undecided, []

    def recorded(live):
        picks.append(pick(live))
        return picks[-1]

    monkeypatch.setattr(solver, "_pick_undecided", recorded)
    p, out = solve_text(GUARD_OR, max_splits=500)
    assert out.outcome is Outcome.SOLUTION
    assert sum(chosen is not None for chosen in picks) >= 1
    assert out.stats.splits >= 1
    assert ef.verify_solution(p, out.x)


def test_eq_guarded_solution_is_pinned_by_its_equalities(benchmarks):
    p = benchmarks["eq_guarded"]
    out = ef.solve(p, SolveConfig(max_splits=500))
    assert out.outcome is Outcome.SOLUTION
    assert out.x == pytest.approx([1.0, 2.0], abs=1e-7)
    assert ef.verify_solution(p, out.x)


def test_equality_pinned_instance(benchmarks):
    p = benchmarks["eq_pinned"]
    out = ef.solve(p, SolveConfig(max_splits=500))
    assert out.outcome is Outcome.SOLUTION
    assert out.x[0] + out.x[1] == pytest.approx(1.0, abs=1e-7)
    assert ef.verify_solution(p, out.x)


def test_conflicting_equalities(benchmarks):
    out = ef.solve(benchmarks["eq_conflict"], SolveConfig())
    assert out.outcome is Outcome.INFEASIBLE
    assert out.stats.splits == 0


def test_lp_that_proves_equalities_infeasible_is_counted(benchmarks,
                                                         monkeypatch):
    calls = []
    original = solver.solve_feasibility

    def counted(lp, *rest):
        calls.append(lp)
        return original(lp, *rest)

    monkeypatch.setattr(solver, "solve_feasibility", counted)
    out = ef.solve(benchmarks["eq_conflict"], SolveConfig())
    assert out.outcome is Outcome.INFEASIBLE and "equality" in out.reason
    assert out.stats.lp_solves == len(calls) == 1


@pytest.mark.parametrize("row,rhs", [((1.0,), float("inf")),
                                     ((float("nan"),), 1.0)])
def test_non_finite_equality_data_is_invalid(row, rhs):
    # built without the parser, which rejects such literals itself
    box = ef.Box.of(("y1", (0, 1)))
    leaf = ef.Linear((("x1", ef.Var("y1")),), ef.Const(1.0))
    problem = ef.Problem(("x1",), ("y1",), (ef.Branch(box, leaf),),
                         ((1.0,), row), (0.5, rhs))
    with pytest.raises(ef.InvalidProblem) as exc:
        ef.solve(problem, SolveConfig())
    assert [str(v) for v in exc.value.violations] == [
        "NonFiniteEquality: equality 1"]


def test_all_branches_proved_true_solves_equalities():
    problem, out = solve_text("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : y1 - 2 <= 0 ;
        eq 1*x1 = 4 ;
    """)
    assert out.outcome is Outcome.SOLUTION
    assert out.x[0] == pytest.approx(4.0, abs=1e-9)


NO_ROWS_TEXT = """
    exists x1 x2 ;
    forall-vars y1 ;
    branch y1 in [0,1] : y1 <= 2 or x1*y1 <= 0 ;
    eq 1*x1 + 1*x2 = 3 ;
"""


def test_no_rows_left_takes_one_floored_lp():
    # the branch is proved true, so the LP has only the rho floor and C x = d
    problem, out = solve_text(NO_ROWS_TEXT)
    assert out.outcome is Outcome.SOLUTION
    assert out.stats.lp_solves == 1 and out.certificate == []
    assert problem.eq_matrix() @ out.x == pytest.approx(problem.eq_vector(),
                                                        abs=1e-9)
    _, out = solve_text(NO_ROWS_TEXT + "eq 1*x1 + 1*x2 = 4 ;")
    assert out.outcome is Outcome.INFEASIBLE
    assert "equality" in out.reason


@pytest.mark.parametrize("source,max_splits,time_budget,reason", [
    ("A", 0, 60.0, "split budget exhausted"),
    ("A", 10_000, 0.0, "time budget exhausted"),
    ("two_branch", 40, 60.0, "split budget exhausted before guard split"),
    ("two_branch", 10_000, 0.0, "time budget exhausted before guard split"),
])
def test_stop_reason_names_the_budget(benchmarks, two_branch_problem, source,
                                      max_splits, time_budget, reason):
    problem = two_branch_problem if source == "two_branch" else benchmarks[source]
    out = ef.solve(problem, SolveConfig(max_splits=max_splits,
                                        time_budget=time_budget))
    assert out.outcome is Outcome.BUDGET_EXHAUSTED
    assert out.reason == reason


CROSSING_GUARD = """
    exists x1 ;
    forall-vars y1 ;
    branch y1 in [0,1] : y1 <= 0.5 or x1*y1 <= 1 ;
    branch y1 in [0,1] : -x1 <= 0 ;
"""
ONE_ULP = "branch y1 in [1,1.0000000000000002] :"


@pytest.mark.parametrize("strategy", list(ef.Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("branches,outcome,reason,counts", [
    ("branch y1 in [0,1] : y1 >= 2 ;", Outcome.INFEASIBLE,
     "a branch is false over its whole box", (0, 0, 0)),
    ("branch y1 in [0,1] : x1 <= -1 ;\nbranch y1 in [0,1] : -x1 <= -1 ;",
     Outcome.INFEASIBLE, "exact interval system is LP-infeasible", (0, 0, 1)),
    (None, Outcome.BUDGET_EXHAUSTED,
     "cannot split an undecided branch further", (53, 53, 0)),
    (f"{ONE_ULP} x1*y1 <= -1 ;\n{ONE_ULP} -x1*y1 <= -1 ;",
     Outcome.BUDGET_EXHAUSTED, "no target branch can be split further",
     (0, 0, 1)),
], ids=["false-box", "lp-infeasible", "undecided", "one-ulp"])
def test_stop_reasons(strategy, branches, outcome, reason, counts):
    # CROSSING_GUARD is satisfiable (x1 = 0), but its guard y1 <= 0.5
    # stays undecided on the box with lower end 0.5 until it is one ulp wide
    text = (CROSSING_GUARD if branches is None
            else f"exists x1 ;\nforall-vars y1 ;\n{branches}\n")
    _, out = solve_text(text, heuristic=ef.HeuristicConfig(strategy=strategy))
    assert (out.outcome, out.reason) == (outcome, reason)
    assert (out.stats.splits, out.stats.rounds, out.stats.lp_solves) == counts


@pytest.mark.parametrize("strategy", ["split-worst", "split-all"])
def test_overflowing_width_is_split_round_robin(strategy):
    # the right-hand side's enclosure [-1.5e308, 1.5e308] is wider than the
    # largest double; splitheur cannot score it, so the row is split
    # round-robin instead of stopping the solve
    _, out = solve_text("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [-1,1] : x1 <= 1.5e308*y1 ;
        branch y1 in [0,1] : -x1 <= -1 ;
    """, heuristic=ef.HeuristicConfig(strategy=ef.Strategy.from_name(strategy)),
        max_splits=5)
    assert (out.outcome, out.reason) == (Outcome.BUDGET_EXHAUSTED,
                                         "split budget exhausted")
    assert out.stats.splits == 5
    assert out.stats.split_history[0] == (0, RHS_COEFFICIENT, 0)


def assert_mask_matches_widths(live):
    """The table's kept `improvable` mask against the one recomputed from
    its endpoint arrays."""
    with np.errstate(over="ignore"):  # an infinite width is a width
        want = ((live.p_hi - live.p_lo > 0).any(axis=1)
                | (live.q_hi - live.q_lo > 0))
    assert live.improvable.dtype == bool
    assert np.array_equal(live.improvable, want)


def test_improvable_mask_is_kept_at_commit():
    # a row whose only width is its right-hand side, one whose right-hand
    # side and one whose coefficient is wider than the largest double, a
    # point row, a plain row and an undecided guard; then rounds of
    # splits of one row and of several rows at once
    live = solver._LiveBoxes(ef.parse_problem("""
        exists x1 x2 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1 <= y1 ;
        branch y1 in [-1,1] : x1 <= 1.5e308*y1 ;
        branch y1 in [-1,1] : 1.5e308*y1*x1 + x2 <= 1 ;
        branch y1 in [0,1] : -x1 <= -1 ;
        branch y1 in [0,1] : y1*x2 <= 2 ;
        branch y1 in [-1,1] : y1^2 - 0.5 <= 0 or x1 <= 3 ;
    """))
    assert live.improvable.tolist() == [True, True, True, False, True, False]
    assert_mask_matches_widths(live)
    for rows in ([0], [5], [1, 2, 4], [0, 3, 6], list(range(9))):
        for i in rows:
            live.split(i, 0)
        live.commit()
        assert_mask_matches_widths(live)
    assert len(live.rows) > 20 and live.improvable.any()
    assert not live.improvable.all()


@pytest.mark.parametrize("name,strategy", [("B", "round-robin"),
                                           ("D", "split-all")])
def test_improvable_mask_follows_the_solve(benchmarks, monkeypatch, name,
                                           strategy):
    commits = []
    commit = solver._LiveBoxes.commit

    def checked(live):
        commit(live)
        assert_mask_matches_widths(live)
        commits.append(len(live.rows))

    monkeypatch.setattr(solver._LiveBoxes, "commit", checked)
    out = ef.solve(benchmarks[name], SolveConfig(heuristic=ef.HeuristicConfig(
        strategy=ef.Strategy.from_name(strategy)), max_splits=5000))
    assert out.is_solution and len(commits) == out.stats.rounds + 1


def test_pivots_of_an_lp_that_raises_are_counted(monkeypatch):
    # round-robin's fourth LP pivots warm, falls back, pivots cold and
    # overflows; the report counts every pivot simplex._pivot made
    calls = []
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: calls.append(pivot(*args)))
    _, out = solve_text("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [-1,1] : x1 <= 1.5e308*y1 ;
        branch y1 in [0,1] : -x1 <= -1 ;
    """, heuristic=ef.HeuristicConfig(strategy=ef.Strategy.ROUND_ROBIN),
        max_splits=5)
    assert out.reason == ("residual LP overflow: the dual tableau left the "
                          "double range")
    assert out.stats.lp_solves == 4
    assert out.stats.pivots == len(calls) == 6


def test_simplex_iteration_limit_is_a_budget_outcome(benchmarks, monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITER", 1)
    out = ef.solve(benchmarks["A"])
    assert out.outcome is Outcome.BUDGET_EXHAUSTED
    assert out.reason == "simplex iteration limit reached (1 pivots in one solve)"
    assert out.stats.lp_solves == out.stats.pivots == 1


def test_exact_point_system_infeasible():
    # zero-width coefficients cannot improve by splitting; the LP verdict
    # is final and the solver reports infeasibility, not budget exhaustion
    problem, out = solve_text("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1*0.0 <= -2 ;
    """)
    assert out.outcome is Outcome.INFEASIBLE
    assert out.witness is not None


def test_infeasible_witness_is_sound():
    problem, out = solve_text("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [1,2] : y1 <= 0 and x1*y1 <= 1 ;
    """)
    witness = out.witness
    rng = np.random.default_rng(9)
    points = sample_points(witness.box, rng, 1000)
    for xv in np.linspace(-10, 10, 21):
        cb = compile_branch(_substitute_x(witness.formula, {"x1": float(xv)}),
                            witness.box.names)
        assert all(reduce_at_point(cb, pt) is False for pt in points)


def test_deterministic_split_counts(benchmarks):
    cfg = lambda: SolveConfig(heuristic=ef.HeuristicConfig(
        strategy=ef.Strategy.SPLIT_WORST), max_splits=2000)
    a = ef.solve(benchmarks["A"], cfg())
    b = ef.solve(benchmarks["A"], cfg())
    assert a.stats.splits == b.stats.splits
    assert a.stats.split_history == b.stats.split_history
    assert np.array_equal(a.x, b.x)


@pytest.mark.parametrize("strategy", ["split-worst", "split-all"])
@pytest.mark.parametrize("name", ["A", "B", "C", "D"])
def test_split_history_is_immune_to_lp_round_off(benchmarks, monkeypatch,
                                                 name, strategy):
    # the rows that bind at the LP optimum tie in exact arithmetic; a
    # relative jitter of 1e-13 on x1 and x2 must not choose among them
    cfg = SolveConfig(heuristic=ef.HeuristicConfig(
        strategy=ef.Strategy.from_name(strategy)), max_splits=2000)
    clean = ef.solve(benchmarks[name], cfg)
    rng = np.random.default_rng(13)
    exact = solver.solve_feasibility

    def jittered(lp, *rest):
        sol = exact(lp, *rest)
        sol.x1 = sol.x1 * (1 + 1e-13 * rng.standard_normal(sol.x1.size))
        sol.x2 = sol.x2 * (1 + 1e-13 * rng.standard_normal(sol.x2.size))
        return sol

    monkeypatch.setattr(solver, "solve_feasibility", jittered)
    noisy = ef.solve(benchmarks[name], cfg)
    assert clean.outcome is noisy.outcome is Outcome.SOLUTION
    assert noisy.stats.split_history == clean.stats.split_history


# (splits, rounds, LP solves); any change to target selection, variable
# choice or the order of the live rows moves these.  The LP solves count
# one per round, one for the last LP, and the cold solve that confirms the
# warm-started last LP's verdict
PINNED_COUNTS = [
    ("A", "split-all", (60, 4, 6)),
    ("B", "split-all", (104, 9, 11)),
    ("C", "split-all", (91, 7, 9)),
    ("D", "split-all", (458, 8, 10)),
    ("A", "split-worst", (17, 17, 19)),
    ("B", "split-worst", (131, 131, 133)),
    ("C", "split-worst", (91, 91, 93)),
    ("A", "round-robin", (43, 43, 45)),
] + [("eq_guarded", s.value, (1, 1, 3)) for s in ef.Strategy] + [
    ("B", "round-robin", (568, 568, 570)),
    ("C", "round-robin", (2023, 2023, 2025)),
    ("D", "round-robin", (959, 959, 961)),
    ("D", "split-worst", (418, 418, 420)),
]


@pytest.mark.parametrize("name,strategy,counts", PINNED_COUNTS)
def test_pinned_split_counts(benchmarks, name, strategy, counts):
    out = ef.solve(benchmarks[name], SolveConfig(
        heuristic=ef.HeuristicConfig(strategy=ef.Strategy.from_name(strategy)),
        max_splits=5000))
    assert out.outcome is Outcome.SOLUTION
    assert (out.stats.splits, out.stats.rounds, out.stats.lp_solves) == counts


def residue_guards(f, decide):
    """The guard leaves left in f, in leaf order, once every guard leaf that
    decide(leaf) settles is replaced by its constant and the constants are
    propagated through every and/or; True or False when they settle f."""
    if isinstance(f, Guard):
        d = decide(f)
        return [f] if d is None else d
    if isinstance(f, Linear):
        return []
    absorbing = isinstance(f, Or)
    items = [residue_guards(item, decide) for item in f.items]
    if any(item is absorbing for item in items):
        return absorbing
    kept = [item for item in items if isinstance(item, list)]
    return sum(kept, []) if kept else not absorbing


def pick_undecided_tree_walk(live):
    """The guard pick re-enclosing every guard of every undecided row's
    residue with the tree walk: the first row and guard of widest
    enclosure."""
    best = None
    best_width = -1.0
    for i, (_, cb, lo, hi, status, *_) in enumerate(live.rows):
        if not isinstance(status, Undecided):
            continue
        box = ef.Box.from_endpoints(cb.tape.names, lo, hi)
        # the guards decide on the enclosures of `simplify_branch`: every
        # slot narrowed by its mean-value form, which never undoes a
        # decision of the natural enclosure
        natural = eval_on_box(cb.guards, lo, hi)
        L, H = (list(ends) for ends in natural)
        mid = [midpoint(l, h) for l, h in zip(lo, hi)]
        for s in set(cb.guard_slot.values()):
            L[s], H[s] = mean_value(mean_value_form(cb.tape, s), mid, *natural)
        slot = cb.guard_slot
        for g in residue_guards(cb.formula, lambda g: decide_guard(
                g.strict, L[slot[id(g)]], H[slot[id(g)]])):
            iv = g.body.interval(box_env(box))
            if iv.width > best_width:
                sign = "+" if abs(iv.hi) < abs(iv.lo) else "-"
                best = (i, cb.guard_slot[id(g)], sign, (iv.lo, iv.hi))
                best_width = iv.width
    if best is None or best_width <= 0.0:
        return None
    return best


def generated_guarded_instance(monkeypatch, seed, slot):
    """Instance `slot` of one pass of the benchmark's guarded generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "guarded.py"
    spec = importlib.util.spec_from_file_location("perfbench_guarded", path)
    guarded = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, guarded)  # for its dataclasses
    spec.loader.exec_module(guarded)
    return ef.parse_problem(guarded.generate_pass(seed)[slot].text)


@pytest.mark.parametrize("strategy,counts", [
    ("round-robin", (47, 47, 0)), ("split-worst", (37, 37, 0)),
    ("split-all", (37, 37, 0))])
def test_pinned_guard_split_counts(monkeypatch, strategy, counts):
    # generated guarded instance 5 of seed 101 is proved infeasible by
    # guard splits alone; round-robin ignores the guard's tape slot and
    # cycles through the dimensions instead
    out = ef.solve(generated_guarded_instance(monkeypatch, 101, 5), SolveConfig(
        heuristic=ef.HeuristicConfig(strategy=ef.Strategy.from_name(strategy)),
        max_splits=5000))
    assert out.outcome is Outcome.INFEASIBLE
    assert (out.stats.splits, out.stats.rounds, out.stats.lp_solves) == counts


@pytest.mark.parametrize("source,guard_splits", [
    ("guard_or", 3), ("generated", 30)])
def test_guard_pick_matches_tree_walk(monkeypatch, source, guard_splits):
    problem = (ef.parse_problem(GUARD_OR) if source == "guard_or"
               else generated_guarded_instance(monkeypatch, 101, 3))
    pick = solver._pick_undecided
    picks = []

    def checked(live):
        picks.append(pick(live))
        assert picks[-1] == pick_undecided_tree_walk(live)
        assert live.undecided == sum(isinstance(row[4], Undecided)
                                     for row in live.rows)
        assert live.false_row is None
        return picks[-1]

    monkeypatch.setattr(solver, "_pick_undecided", checked)
    out = ef.solve(problem, SolveConfig(heuristic=ef.HeuristicConfig(
        strategy=ef.Strategy.SPLIT_ALL), max_splits=3000))
    assert out.is_solution
    assert sum(p is not None for p in picks) == guard_splits


def test_interior_guard_boundary_exhausts_budget(two_branch_problem):
    # the disjunctive two-branch problem is satisfiable (e.g. x = (0, -1)),
    # but its guard boundaries cut through the boxes: the straddling
    # sliver branches never decide under bisection, so the solver reports
    # budget exhaustion rather than guessing
    out = ef.solve(two_branch_problem, SolveConfig(max_splits=40))
    assert out.outcome is Outcome.BUDGET_EXHAUSTED
    assert ef.verify_solution(two_branch_problem, np.array([0.0, -1.0]), 12)


def test_round_trip_solution_on_random_robust_instances():
    rng = np.random.default_rng(77)
    for _ in range(15):
        problem, _ = random_robust_problem(rng)
        out = ef.solve(problem, SolveConfig(max_splits=800))
        assert out.outcome is Outcome.SOLUTION, problem
        res = ef.verify_solution(problem, out.x, 25)
        assert res.status is VerifyStatus.VERIFIED


# -- verifier ---------------------------------------------------------------

def test_verify_rejects_wrong_point():
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [1,2] : x1*(2*y1) <= -0.0001 ;
    """)
    res = ef.verify_solution(p, np.array([0.0]), depth=10)
    assert res.status is VerifyStatus.COUNTEREXAMPLE
    assert res.branch_id == 0
    assert res.point == pytest.approx({"y1": 1.5})


def test_verify_accepts_correct_point():
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [1,2] : x1*(2*y1) <= -0.0001 ;
    """)
    assert ef.verify_solution(p, np.array([-1.0]), depth=10)


def test_verify_equality_violation():
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1*y1 <= 1 ;
        eq 1*x1 = 1 ;
    """)
    res = ef.verify_solution(p, np.array([1.1]), depth=10)
    assert res.status is VerifyStatus.COUNTEREXAMPLE
    assert "equality" in res.reason


def test_verify_nan_equality_residual_is_a_counterexample():
    # the residual of x2 = 3 at x2 = NaN is NaN, which is no pass
    p = ef.parse_problem("""
        exists x1 x2 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1*y1 <= 1 ;
        eq 1*x2 = 3 ;
    """)
    res = ef.verify_solution(p, np.array([0.0, np.nan]), depth=10)
    assert res.status is VerifyStatus.COUNTEREXAMPLE
    assert "equality" in res.reason


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_verify_non_finite_x_is_a_counterexample(value):
    # the substituted constant x1 would leave the double range of the tape
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1*y1 <= 1 ;
    """)
    res = ef.verify_solution(p, np.array([value]), depth=10)
    assert res.status is VerifyStatus.COUNTEREXAMPLE
    assert res.reason == f"x1 = {value} is not finite"


@pytest.mark.parametrize("x", [[0.0], [0.0, 0.0, 1.0]])
def test_verify_rejects_x_of_the_wrong_length(x):
    # without equalities nothing else looks at the length of x
    p = ef.parse_problem("""
        exists x1 x2 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1*y1 + x2 <= 1 ;
    """)
    with pytest.raises(ValueError, match="expected"):
        ef.verify_solution(p, np.array(x), depth=10)


def test_verify_needs_bisection_for_disjunction():
    # neither disjunct holds on the whole box, but their union covers it
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : y1 - 0.6 <= 0 or x1*(y1 - 0.4) <= 0 ;
    """)
    assert ef.verify_solution(p, np.array([-1.0]), depth=15)
    # with x = +1 the second disjunct fails on (0.6, 1]
    res = ef.verify_solution(p, np.array([5.0]), depth=15)
    assert res.status is VerifyStatus.COUNTEREXAMPLE


TWO_ROOTS = "branch y1 in [0,1] : x1*((y1 - 0.3)*(y1 - 0.7)) <= 0 ;"


@pytest.mark.parametrize("max_boxes,status,point", [
    (200_000, VerifyStatus.COUNTEREXAMPLE, {"y1": 0.25}),
    (1, VerifyStatus.UNKNOWN, None),
    (2, VerifyStatus.COUNTEREXAMPLE, {"y1": 0.25}),
], ids=["unlimited", "one-box", "two-boxes"])
def test_verify_bisects_the_lower_half_first(max_boxes, status, point):
    # the midpoint 0.5 holds; the lower half's midpoint 0.25 fails first,
    # before the upper half's 0.75
    p = ef.parse_problem(f"exists x1 ;\nforall-vars y1 ;\n{TWO_ROOTS}\n")
    res = ef.verify_solution(p, np.array([1.0]), max_boxes=max_boxes)
    assert (res.status, res.point) == (status, point)


def test_verify_box_budget_is_per_branch():
    # the first branch never decides and spends its one box; a budget
    # shared across branches would leave none for the second
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1*(y1 - y1) <= 0 ;
        branch y1 in [0,1] : x1*y1 <= -1 ;
    """)
    res = ef.verify_solution(p, np.array([1.0]), max_boxes=1)
    assert res.status is VerifyStatus.COUNTEREXAMPLE
    assert (res.branch_id, res.point) == (1, {"y1": 0.5})


def test_verify_undefined_point_is_no_counterexample():
    # the only leaf is undefined at the midpoint y1 = 0 and has no
    # enclosure on any box around it: bisection ends at the depth limit
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [-1,1] : x1*(1/y1) <= 1 ;
    """)
    res = ef.verify_solution(p, np.array([0.0]), depth=8)
    assert res.status is VerifyStatus.UNKNOWN
    # where the leaf is defined and false, the verifier still finds it
    res = ef.verify_solution(p, np.array([5.0]), depth=8)
    assert res.status is VerifyStatus.COUNTEREXAMPLE
    assert res.point == pytest.approx({"y1": 0.5})


def test_verify_nan_point_is_no_counterexample():
    # the guard body is exactly 0 on the box, so the guard holds, but in
    # floating point it is inf - inf = nan at every midpoint, and its
    # enclosure overflows on every box: undecided, not a counterexample
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [1,2] : y1*1e200*1e200 - y1*1e200*1e200 <= 0 or x1 <= 0 ;
    """)
    res = ef.verify_solution(p, np.array([5.0]), depth=8)
    assert res.status is VerifyStatus.UNKNOWN


def test_verify_depth_limit_returns_unknown():
    # truly holds everywhere, but the naive enclosure of y1 - y1 straddles
    # zero at every depth and no sampled midpoint falsifies: depth limit
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : x1*(y1 - y1) <= 0 ;
    """)
    res = ef.verify_solution(p, np.array([1.0]), depth=6)
    assert res.status is VerifyStatus.UNKNOWN


def test_box_near_the_double_range_is_split():
    # the endpoint sum of [1e308, 1.7e308] overflows; the midpoint must
    # still fall inside, so the undecided guard's box gets split
    p = ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [1e308,1.7e308] : y1 <= 1.5e308 or x1 <= 1 ;
    """)
    out = ef.solve(p, SolveConfig(max_splits=200))
    assert out.stats.splits > 0
    assert out.stats.split_history[0] == (0, None, 0)


@pytest.mark.parametrize("strategy", list(ef.Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("branch", [
    "branch y1 in [-1,1] : 1/y1 <= 0 or x1 <= 1 ;",
    "branch y1 in [0,1] : y1/y1 <= 2 or x1*y1 <= 1 ;",
], ids=["reciprocal", "quotient"])
def test_guard_without_enclosure_is_split(strategy, branch):
    # the guard has no enclosure on a box around y1 = 0, so that box stays
    # undecided and is split round-robin, as splitheur cannot score it
    _, out = solve_text(f"exists x1 ;\nforall-vars y1 ;\n{branch}\n",
                        heuristic=ef.HeuristicConfig(strategy=strategy),
                        max_splits=50)
    assert out.outcome is Outcome.BUDGET_EXHAUSTED
    assert out.reason == "split budget exhausted before guard split"
    assert out.stats.split_history[0] == (0, None, 0)


def test_linear_atom_is_not_enclosed_where_the_guards_decide():
    # 1/y1 has no enclosure on [-1, 1], but the guard proves the first
    # branch true there, so classification never encloses its coefficient
    problem, out = solve_text("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [-1,1] : y1 <= 2 or x1*(1/y1) <= 1 ;
        branch y1 in [1,2] : x1*y1 <= 1 ;
    """)
    assert out.outcome is Outcome.SOLUTION
    assert out.x[0] <= 0.5
