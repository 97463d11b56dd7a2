"""The equivalence set: 204 deterministic solve runs, recorded per run so
that two checkouts can be compared bit for bit.

    python tests/equivalence_set.py OUT.json
    python tests/equivalence_set.py --compare A.json B.json [--ignore x]

The runs are the bundled instances (A-D and eq_*) under each strategy,
the benchmark's generated guarded instances for seeds 101-103 at their
split caps under each strategy, and 40 `random_robust_problem` draws from default_rng(7)
under each strategy.  Every run is bounded by a split cap only, so the
records do not depend on machine speed.  A record holds the outcome, the
reason, the split, round, LP-solve, simplex-pivot and guard-tightening
counts, the witness id, the verifier's status on a solution, a SHA-256
digest of the split history and x as `float.hex` strings.

The first form writes the records of the checkout this file lies in; the
second prints every run whose records differ and exits 1 if any do.
`--ignore` leaves the named record fields out of the comparison; with
`--ignore x`, a change that only moves LP round-off shows every run
unchanged if its decisions are.
Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import efsolver as ef  # noqa: E402
from efsolver.benchmarks import benchmark_names, load_benchmark  # noqa: E402

BUNDLED_MAX_SPLITS = 1500
GUARDED_SEEDS = (101, 102, 103)
RANDOM_DRAWS = 40


def _guarded_module():
    path = ROOT / "perfbench" / "guarded.py"
    spec = importlib.util.spec_from_file_location("perfbench_guarded", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def runs():
    """(label, problem, strategy, split cap) of every run, in a fixed order."""
    for name in benchmark_names():
        for strategy in ef.Strategy:
            yield (f"{name}/{strategy.value}", load_benchmark(name), strategy,
                   BUNDLED_MAX_SPLITS)
    guarded = _guarded_module()
    for seed in GUARDED_SEEDS:
        for k, inst in enumerate(guarded.generate_pass(seed)):
            cap = (guarded.CROSSING_MAX_SPLITS if inst.kind == "crossing"
                   else guarded.MAX_SPLITS)
            problem = ef.parse_problem(inst.text)
            for strategy in ef.Strategy:
                yield f"g{seed}/{k}/{strategy.value}", problem, strategy, cap
    from conftest import random_robust_problem
    rng = np.random.default_rng(7)
    problems = [random_robust_problem(rng)[0] for _ in range(RANDOM_DRAWS)]
    for k, problem in enumerate(problems):
        for strategy in ef.Strategy:
            yield f"random{k}/{strategy.value}", problem, strategy, 3000


def record(problem, strategy, max_splits) -> dict:
    out = ef.solve(problem, ef.SolveConfig(
        heuristic=ef.HeuristicConfig(strategy=strategy),
        max_splits=max_splits, time_budget=math.inf))
    s = out.stats
    verify = None
    if out.is_solution:
        verify = ef.verify_solution(problem, out.x).status.value
    return {
        "outcome": out.outcome.value, "reason": out.reason,
        "splits": s.splits, "rounds": s.rounds, "lp_solves": s.lp_solves,
        "pivots": s.pivots,
        "guard_tightenings": s.guard_tightenings,
        "witness_id": out.witness_id, "verify": verify,
        "split_history": hashlib.sha256(
            repr(s.split_history).encode()).hexdigest(),
        "x": None if out.x is None else [float(v).hex() for v in out.x],
    }


def compare(a_path: str, b_path: str, ignore=()) -> int:
    a, b = ({label: {k: v for k, v in rec.items() if k not in ignore}
             for label, rec in json.loads(Path(path).read_text()).items()}
            for path in (a_path, b_path))
    differ = sorted(label for label in a.keys() | b.keys()
                    if a.get(label) != b.get(label))
    for label in differ:
        print(f"{label}:\n  {a.get(label)}\n  {b.get(label)}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} runs differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", help="JSON file to write the records to")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two record files instead of running")
    ap.add_argument("--ignore", nargs="+", default=[], metavar="FIELD",
                    help="record fields --compare leaves out, e.g. x for a "
                         "change that only moves LP round-off")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare, ignore=args.ignore)
    if not args.out:
        ap.error("give OUT.json or --compare A.json B.json")
    records = {label: record(problem, strategy, cap)
               for label, problem, strategy, cap in runs()}
    Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
