"""The traced benchmark run (perfbench/tracing.py) wraps library functions
at their import sites and reads a few of their argument and result shapes.
This test installs the tracer, solves and verifies instance A under
split-all, and checks that every layer recorded spans, so a refactor that
renames or reshapes a wrapped function fails here rather than in the
benchmark."""

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


def test_tracer_hooks_record_every_layer():
    tracing = load_tracing()
    original = solver.solve
    problem = load_benchmark("A")
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

    assert out.is_solution and verdict.status is ef.VerifyStatus.VERIFIED
    totals = tracer.pass_totals()[0]
    for span in ("solver.solve", "simplify.simplify_branch", "relaxation.build",
                 "relaxation.lp", "relaxation.residual", "simplex.solve",
                 "heuristics.select", "heuristics.splitheur", "heuristics.ages",
                 "verify.verify_solution"):
        assert totals.get(f"{span}:calls", 0) > 0, span
    assert totals["relaxation.lp:calls"] == out.stats.lp_solves
    assert totals["targets"] >= out.stats.splits
    assert totals["pivots"] > 0 and totals["lp_rows_max"] > 0
    assert totals["evals:trial"] > 0 and totals["evals:verify"] > 0

    wall = totals["solver.solve:s"] + totals["verify.verify_solution:s"]
    metrics = tracing.layer_metrics([totals], {}, [wall], 0.0,
                                    out.stats.splits, out.stats.lp_solves)
    # every span belongs to a layer the metrics know
    assert metrics["trace.coverage_frac"][0] > 0.99
