"""The traced benchmark run (perfbench/tracing.py) wraps library functions
at their import sites and reads a few of their argument and result shapes.
These tests install the tracer, solve and verify instance A under
split-all and an instance whose guards need picks, and check that every
layer recorded spans, so a refactor that renames or reshapes a wrapped
function fails here rather than in the benchmark."""

import importlib.util
from pathlib import Path

import efsolver as ef
from efsolver import solver
from efsolver.benchmarks import load_benchmark

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_solve(tracing, problem):
    """Solve and verify `problem` under split-all with the tracer installed;
    the outcome, the verdict and the pass totals."""
    original = solver.solve
    tracer = tracing.Tracer()
    tracer.pass_id = 0
    tracing.install(tracer)
    try:
        out = solver.solve(problem, ef.SolveConfig(heuristic=ef.HeuristicConfig(
            strategy=ef.Strategy.SPLIT_ALL)))
        verdict = solver.verify_solution(problem, out.x)
    finally:
        tracer.uninstall()
    assert solver.solve is original
    return out, verdict, tracer.pass_totals()[0]


def test_tracer_hooks_record_every_layer():
    tracing = load_tracing()
    out, verdict, totals = traced_solve(tracing, load_benchmark("A"))

    assert out.is_solution and verdict.status is ef.VerifyStatus.VERIFIED
    for span in ("solver.solve", "simplify.simplify_branch", "relaxation.build",
                 "relaxation.lp", "relaxation.residual", "simplex.solve",
                 "heuristics.select", "heuristics.splitheur", "heuristics.ages",
                 "verify.verify_solution"):
        assert totals.get(f"{span}:calls", 0) > 0, span
    assert totals["relaxation.lp:calls"] == out.stats.lp_solves
    # one simplex solve per residual LP: no retry path
    assert totals["simplex.solve:calls"] == totals["relaxation.lp:calls"]
    assert totals["targets"] >= out.stats.splits
    # the pivot count of the dual simplex on this cell, warm starts and
    # the confirming cold solve included: a refactor that stops calling
    # simplex._pivot per pivot reads fewer here, not 0 later
    assert totals["pivots"] == out.stats.pivots == 28
    assert totals["lp_rows_max"] > 0
    assert totals["evals:trial"] > 0 and totals["evals:verify"] > 0

    wall = totals["solver.solve:s"] + totals["verify.verify_solution:s"]
    metrics = tracing.layer_metrics([totals], {}, [wall], 0.0,
                                    out.stats.splits, out.stats.lp_solves)
    # every span belongs to a layer the metrics know
    assert metrics["trace.coverage_frac"][0] > 0.99


def test_tracer_hooks_record_guard_picks():
    # the guard straddles zero on the first boxes, so the solver picks it
    # for splitting before the first LP
    tracing = load_tracing()
    out, verdict, totals = traced_solve(tracing, ef.parse_problem("""
        exists x1 ;
        forall-vars y1 ;
        branch y1 in [0,1] : y1^2 - y1 + 0.3 <= 0 or x1*y1 <= 1 ;
        branch y1 in [0,1] : -x1 <= 0 ;
    """))
    assert out.is_solution and verdict.status is ef.VerifyStatus.VERIFIED
    assert totals["solver.pick_undecided:calls"] > 0
    assert totals["guard_picks"] > 0
    assert totals["guard_picks"] == out.stats.splits == 3
