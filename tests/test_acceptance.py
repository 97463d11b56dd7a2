"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantities (run with -s to see them on success).

Split accounting: SolveStats tracks both individual box splits (`splits`,
the budgeted quantity) and splitting iterations (`rounds`).  One
split-all iteration splits every violated box at once, so its iteration
count is the quantity comparable with the one-box-per-iteration
strategies (for which rounds == splits); the split-all budgets below are
therefore gated on rounds.  Both numbers are
printed.
"""

import time

import numpy as np

import efsolver as ef
from efsolver.benchmarks import CORE_INSTANCES, load_benchmark
from efsolver.heuristics import HeuristicConfig, Strategy, coeff_score
from efsolver.intervals import Interval
from efsolver.relaxation import LPStatus, solve_feasibility
from efsolver.solver import Outcome, SolveConfig, VerifyStatus

from conftest import (EndpointSystem, benchmark_coefficient_exprs,
                      grid_min_violation, random_interval_system,
                      random_robust_problem, sample_points)

EPSILON = 1e-3


def report(num, desc, ok, detail=""):
    print(f"ACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def run(problem, strategy, max_splits=5000, time_budget=118.0, **kw):
    cfg = SolveConfig(
        heuristic=HeuristicConfig(epsilon=EPSILON, strategy=strategy, **kw),
        max_splits=max_splits, time_budget=time_budget)
    return ef.solve(problem, cfg)


def test_criterion_1_endpoint_transform_exactness():
    t0 = time.perf_counter()
    lp = EndpointSystem.of([((Interval(-1, 3), Interval(-3, 1)),
                             Interval.point(-2.0))]).lp()
    coeffs = (lp.p_hi[0, 0], -lp.p_lo[0, 0], lp.p_hi[0, 1], -lp.p_lo[0, 1])
    sol = solve_feasibility(lp)

    shrunk = EndpointSystem.of([((Interval(2, 3), Interval(-3, 1)),
                                 Interval.point(-2.0))])
    sol2 = solve_feasibility(shrunk.lp())
    elapsed = time.perf_counter() - t0

    ok = (coeffs == (3.0, 1.0, 1.0, 3.0)
          and abs(sol.rho - 2.0) <= 1e-7
          and float(np.abs(np.concatenate([sol.x1, sol.x2])).max()) <= 1e-7
          and sol2.rho <= 0.0
          and elapsed < 1.0)
    report(1, "endpoint transform exactness", ok,
           f"coeffs={coeffs} rho={sol.rho:.2e} shrunk_rho={sol2.rho:.3g} "
           f"t={elapsed:.2f}s")


def test_criterion_2_benchmark_termination():
    budgets_sa = {"A": 25, "B": 25, "C": 25, "D": 50}
    budgets_sw = {"A": 500, "B": 500, "C": 500, "D": 3000}
    lines = []
    ok = True
    results = {}
    for name in CORE_INSTANCES:
        problem = load_benchmark(name)
        sa = run(problem, Strategy.SPLIT_ALL)
        sw = run(problem, Strategy.SPLIT_WORST, max_splits=budgets_sw[name])
        results[name] = (sa, sw)
        ok &= (sa.outcome is Outcome.SOLUTION and sa.stats.rounds <= budgets_sa[name]
               and sa.stats.wall_time < 120)
        ok &= (sw.outcome is Outcome.SOLUTION and sw.stats.splits <= budgets_sw[name]
               and sw.stats.wall_time < 120)
        lines.append(f"{name}: split-all {sa.stats.rounds} rounds "
                     f"({sa.stats.splits} splits, {sa.stats.wall_time:.1f}s), "
                     f"split-worst {sw.stats.splits} splits "
                     f"({sw.stats.wall_time:.1f}s)")

    # ordering split-all <= split-worst <= round-robin on A and B
    for name in ("A", "B"):
        sa, sw = results[name]
        rr = run(problem := load_benchmark(name), Strategy.ROUND_ROBIN)
        ordered = (rr.outcome is Outcome.SOLUTION
                   and sa.stats.rounds <= sw.stats.splits <= rr.stats.splits
                   and rr.stats.wall_time < 120)
        ok &= ordered
        lines.append(f"{name}: ordering {sa.stats.rounds} <= {sw.stats.splits} "
                     f"<= {rr.stats.splits} (round-robin, "
                     f"{rr.stats.wall_time:.1f}s) {'ok' if ordered else 'VIOLATED'}")

    # round-robin must not reach a solution within 10x split-all's count on
    # C and D (capped run: exhausting the cap proves the factor or worse)
    for name in ("C", "D"):
        sa, _ = results[name]
        cap = 10 * sa.stats.rounds
        rr = run(load_benchmark(name), Strategy.ROUND_ROBIN, max_splits=cap)
        diverged = rr.outcome is not Outcome.SOLUTION
        ok &= diverged
        lines.append(f"{name}: round-robin at cap {cap}: {rr.outcome.value} "
                     f"{'ok' if diverged else 'FINISHED EARLY'}")

    report(2, "benchmark termination and strategy ordering", ok,
           "\n    " + "\n    ".join(lines))


def test_criterion_3_verified_solutions():
    failures = []
    for name in CORE_INSTANCES + ("eq_pinned", "eq_guarded"):
        problem = load_benchmark(name)
        out = run(problem, Strategy.SPLIT_ALL)
        if out.outcome is not Outcome.SOLUTION:
            failures.append(f"{name}: {out.outcome.value}")
            continue
        res = ef.verify_solution(problem, out.x, 25)
        if res.status is not VerifyStatus.VERIFIED:
            failures.append(f"{name}: {res.status.value} {res.reason}")

    rng = np.random.default_rng(2024)
    solved = 0
    for k in range(200):
        problem, _ = random_robust_problem(rng, margin=1e-3)
        out = run(problem, Strategy.SPLIT_ALL, max_splits=800, time_budget=30)
        if out.outcome is not Outcome.SOLUTION:
            failures.append(f"random[{k}]: {out.outcome.value}")
            continue
        solved += 1
        res = ef.verify_solution(problem, out.x, 25)
        if res.status is not VerifyStatus.VERIFIED:
            failures.append(f"random[{k}]: {res.status.value} {res.reason}")
    report(3, "all solutions pass independent verification", not failures,
           f"benchmarks + {solved}/200 random robust instances; "
           f"failures: {failures[:5]}")


def test_criterion_4_complementarity():
    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    while checked < 500:
        sol = solve_feasibility(random_interval_system(rng, width_min=0.1).lp())
        if sol.status is not LPStatus.OPTIMAL:
            continue  # unbounded ray: no optimum exists
        worst = max(worst, float(np.minimum(sol.x1, sol.x2).max()))
        checked += 1
    report(4, "complementarity at LP optima", worst <= 1e-7,
           f"max over 500 systems of min(x1_j, x2_j) = {worst:.2e}")


def test_criterion_5_heuristic_hypotheses():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(200):
        x1, x2 = rng.uniform(0, 10, size=2)
        eps = rng.uniform(1e-5, 1e-1)
        prev = np.inf
        for k in range(9):
            s = coeff_score(10.0 ** -k, x1, x2, eps)
            ok &= 0.0 < s < prev
            prev = s
        ok &= prev < 1e-7 * (max(x1, x2) + eps)
        w = rng.uniform(1e-12, 5.0)
        ok &= coeff_score(w, x1, x2, eps) > 0.0
    report(5, "score vanishes with width and is positive otherwise", ok)


def test_criterion_6_interval_soundness():
    rng = np.random.default_rng(6)
    violations = 0
    pairs = 0
    for name in CORE_INSTANCES + ("eq_pinned", "eq_guarded", "eq_conflict"):
        problem = load_benchmark(name)
        for expr, box in benchmark_coefficient_exprs(problem):
            pairs += 1
            enclosure = ef.enclose(expr, box)
            slack = 1e-10 * max(1.0, abs(enclosure.lo), abs(enclosure.hi))
            for point in sample_points(box, rng, 10_000):
                v = expr.evaluate(point)
                if not (enclosure.lo - slack <= v <= enclosure.hi + slack):
                    violations += 1
    report(6, "10^4-sample enclosure containment", violations == 0,
           f"{pairs} (expression, box) pairs, {violations} violations")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7)
    checked = 0
    disagreements = 0
    while checked < 100:
        sys = random_interval_system(rng, r=int(rng.integers(1, 4)),
                                     n=int(rng.integers(1, 4)))
        sol = solve_feasibility(sys.lp())
        if abs(sol.rho) <= 1e-3:
            continue  # exclude verdicts near the feasibility boundary
        # solutions of unbounded instances can sit far from the origin;
        # centre the oracle's window on the LP point in that case
        center = sol.x if sol.rho <= 0 else None
        oracle = grid_min_violation(sys, center=center)
        if abs(oracle) <= 1e-3:
            continue
        checked += 1
        if (sol.rho <= 0) != (oracle <= 0):
            disagreements += 1
    report(7, "LP verdict agrees with grid search", disagreements == 0,
           f"{checked} systems, {disagreements} disagreements")


STALL_TEXT = """
exists x1 x2 ;
forall-vars y1 y2 ;
branch y1 in [-1,3], y2 in [0,1] :
  x1*y1 + x2*(-3 + 0.5*y2 + 3.5*(y2 - y2)) <= -2 ;
"""


def test_criterion_8_degenerate_epsilon_regression():
    problem = ef.parse_problem(STALL_TEXT)
    stalled = ef.solve(problem, SolveConfig(
        heuristic=HeuristicConfig(epsilon=0.0, aging_kappa=0.0,
                                  strategy=Strategy.SPLIT_WORST),
        max_splits=50))
    same_target = (len(stalled.stats.split_history) == 50
                   and all(h[1] == 0 and h[2] == 0
                           for h in stalled.stats.split_history))
    stall_ok = stalled.outcome is Outcome.BUDGET_EXHAUSTED and same_target

    fixed = ef.solve(problem, SolveConfig(
        heuristic=HeuristicConfig(epsilon=1e-3, aging_kappa=0.0,
                                  strategy=Strategy.SPLIT_WORST),
        max_splits=50))
    fixed_ok = (fixed.outcome is Outcome.SOLUTION
                and ef.verify_solution(problem, fixed.x, 25).status
                is VerifyStatus.VERIFIED)
    report(8, "epsilon = 0 stalls, epsilon > 0 terminates",
           stall_ok and fixed_ok,
           f"eps=0: {stalled.outcome.value}, 50 identical targets={same_target}; "
           f"eps=1e-3: {fixed.outcome.value} in {fixed.stats.splits} splits")
