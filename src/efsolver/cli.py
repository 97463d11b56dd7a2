"""Command line front end.

    efsolver solve FILE [--strategy S] [--epsilon R] [--kappa R]
                        [--max-splits N] [--time-budget SECS]
                        [--verify] [--json]
    efsolver bench [--json] [--time-budget SECS] [--max-splits N]

Exit codes for `solve`: 0 solution found, 1 infeasible, 2 budget
exhausted (splits, time or simplex iterations) or an LP whose tableau
left the double range, 3 input error (bad command line, unreadable,
unparsable or invalid problem, a number outside the double range or a
coefficient or right-hand side without an enclosure on a box, input
nested too deeply for the recursive parser and evaluators; a guard
without an enclosure only leaves its box undecided); `bench` exits 0 or
3.  With --json, machine-readable output is one JSON object per run,
newline-delimited.
--verify runs `verify_solution` after solve and reports its outcome
(verified, counterexample or unknown) as `verify_status`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from .benchmarks import CORE_INSTANCES, load_benchmark
from .errors import EFSolverError, InvalidProblem
from .heuristics import HeuristicConfig, Strategy
from .parsing import parse_problem
from .solver import (Outcome, SolveConfig, SolveOutcome, VerifyResult, solve,
                     verify_solution)

EXIT_SOLUTION = 0
EXIT_INFEASIBLE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3

_EXIT_BY_OUTCOME = {
    Outcome.SOLUTION: EXIT_SOLUTION,
    Outcome.INFEASIBLE: EXIT_INFEASIBLE,
    Outcome.BUDGET_EXHAUSTED: EXIT_BUDGET,
}


@dataclass
class RunReport:
    outcome: str
    x: list[float] | None
    splits: int
    rounds: int
    lp_solves: int
    pivots: int
    guard_tightenings: int
    wall_time_ms: float
    strategy: str
    epsilon: float
    reason: str
    witness_id: int | None
    # the verifier's outcome (a VerifyStatus value), or None without --verify
    verify_status: str | None
    instance: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False)


def make_report(result: SolveOutcome, cfg: SolveConfig,
                verification: VerifyResult | None = None,
                instance: str | None = None) -> RunReport:
    return RunReport(
        outcome=result.outcome.value,
        x=[float(v) for v in result.x] if result.x is not None else None,
        splits=result.stats.splits,
        rounds=result.stats.rounds,
        lp_solves=result.stats.lp_solves,
        pivots=result.stats.pivots,
        guard_tightenings=result.stats.guard_tightenings,
        wall_time_ms=result.stats.wall_time * 1000.0,
        strategy=cfg.heuristic.strategy.value,
        epsilon=cfg.heuristic.epsilon,
        reason=result.reason,
        witness_id=result.witness_id,
        verify_status=(None if verification is None
                       else verification.status.value),
        instance=instance,
    )


def _solve_config(args) -> SolveConfig:
    return SolveConfig(
        heuristic=HeuristicConfig(
            epsilon=args.epsilon,
            aging_kappa=args.kappa,
            strategy=Strategy.from_name(args.strategy),
        ),
        max_splits=args.max_splits,
        time_budget=args.time_budget,
    )


def cmd_solve(args) -> int:
    try:
        cfg = _solve_config(args)
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # other EFSolverErrors (parse, domain) reach main: EXIT_INPUT as well
    problem = parse_problem(text)
    try:
        result = solve(problem, cfg)
    except InvalidProblem as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return EXIT_INPUT
    verification = None
    if args.verify and result.is_solution:
        verification = verify_solution(problem, result.x)

    report = make_report(result, cfg, verification)
    if args.json:
        print(report.to_json())
    else:
        _print_human(problem, result, report)
    return _EXIT_BY_OUTCOME[result.outcome]


def _print_human(problem, result: SolveOutcome, report: RunReport) -> None:
    print(f"outcome: {report.outcome}")
    if result.x is not None:
        assign = ", ".join(f"{n} = {v:.12g}"
                           for n, v in zip(problem.x_vars, result.x))
        print(f"x: {assign}")
    if result.reason:
        print(f"reason: {result.reason}")
    if result.witness_id is not None:
        print(f"witness branch: {result.witness_id}")
    print(f"splits: {report.splits}   lp solves: {report.lp_solves}   "
          f"pivots: {report.pivots}   "
          f"guard tightenings: {report.guard_tightenings}   "
          f"time: {report.wall_time_ms:.1f} ms")
    if report.verify_status is not None:
        print(f"verify status: {report.verify_status}")


def cmd_bench(args) -> int:
    strategies = (Strategy.ROUND_ROBIN, Strategy.SPLIT_WORST, Strategy.SPLIT_ALL)
    try:
        configs = [SolveConfig(
            heuristic=HeuristicConfig(epsilon=args.epsilon, strategy=strategy),
            max_splits=args.max_splits,
            time_budget=args.time_budget,
        ) for strategy in strategies]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    reports: dict[str, dict[str, RunReport]] = {}
    for name in args.instances:
        problem = load_benchmark(name)
        reports[name] = {}
        for strategy, cfg in zip(strategies, configs):
            result = solve(problem, cfg)
            report = make_report(result, cfg, instance=name)
            reports[name][strategy.value] = report
            if args.json:
                print(report.to_json(), flush=True)
    if not args.json:
        _print_bench_table(reports, strategies)
    return 0


def _print_bench_table(reports, strategies) -> None:
    header = f"{'':10}" + "".join(f"{s.value:>24}" for s in strategies)
    sub = f"{'instance':10}" + "".join(f"{'splits':>14}{'time':>10}" for _ in strategies)
    print(header)
    print(sub)
    for name, per_strategy in reports.items():
        cells = []
        for s in strategies:
            rep = per_strategy[s.value]
            if rep.outcome != Outcome.SOLUTION.value:
                cells.append(f"{'-':>14}{'-':>10}")
                continue
            count = (f"{rep.splits}/{rep.rounds}r" if s is Strategy.SPLIT_ALL
                     else str(rep.splits))
            cells.append(f"{count:>14}{rep.wall_time_ms / 1000:>9.3f}s")
        print(f"{name:10}" + "".join(cells))
    print("\nsplit-all cells show box-splits/iterations; '-' marks runs that "
          "did not finish\nwithin the split/time budget.")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT; argparse's own code 2 would read
    as "budget exhausted".  Subparsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="efsolver",
        description="Solve exists-forall constraints over boxed universal "
                    "variables by interval evaluation, LP relaxation and "
                    "residual-driven box splitting.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one problem file")
    ps.add_argument("file")
    ps.add_argument("--strategy", default="split-all",
                    choices=[s.value for s in Strategy])
    ps.add_argument("--epsilon", type=float, default=1e-3)
    ps.add_argument("--kappa", type=float, default=0.1)
    ps.add_argument("--max-splits", type=int, default=10_000)
    ps.add_argument("--time-budget", type=float, default=120.0)
    ps.add_argument("--verify", action="store_true",
                    help="run the independent interval verifier on the result")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="run the bundled benchmark suite")
    pb.add_argument("--json", action="store_true")
    pb.add_argument("--time-budget", type=float, default=120.0)
    pb.add_argument("--max-splits", type=int, default=5_000)
    pb.add_argument("--epsilon", type=float, default=1e-3)
    pb.add_argument("--instances", nargs="+", default=list(CORE_INSTANCES),
                    choices=list(CORE_INSTANCES))
    pb.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EFSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
