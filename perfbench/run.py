"""Benchmark of the efsolver library: one workload, one process, one thread.

    python3 perfbench/run.py --workload one-box|split-all|guarded \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  The
load is a closed loop: one caller solves the cells of a pass one after the
other (each solve starts when the previous one returned), verifies every
solution with `verify_solution`, checks every outcome against the cell's
expected one, and starts the next pass until S seconds of passes have run.

With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics, measured by wrapping the library's
functions at their import sites (see tracing.py) on every other pass.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details of the run (the
environment, every pass, failures) go to perfbench/out/.

Times are medians: `solve_s` and `verify_s` over the passes of the run,
`setup_s` over several set-ups spread over the run.  The tail pass time is
printed but not reported as a metric.
"""

import os

# Pin native thread pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cells as workloads  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 12         # set-ups per untraced run, spread over the run
SAFETY_TIME_BUDGET = 30.0  # per solve; far above the slowest cell (about 7 s)
HARD_DEADLINE = 150.0      # seconds after start; keeps a run under 180 s
EQUALITY_TOL = 1e-7
_now = time.perf_counter


@dataclass
class PassRecord:
    traced: bool
    wall_s: float = 0.0
    cell_solve_s: list[float] = field(default_factory=list)
    cell_verify_s: list[float] = field(default_factory=list)
    splits: int = 0
    rounds: int = 0
    lp_solves: int = 0
    attempted: int = 0
    unsolved: int = 0
    failures: list[str] = field(default_factory=list)
    outcomes: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def solve_s(self) -> float:
        return sum(self.cell_solve_s)

    @property
    def verify_s(self) -> float:
        return sum(self.cell_verify_s)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "efsolver" / "__init__.py").is_file():
        print(f"error: no efsolver package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    deadline = _now() + HARD_DEADLINE
    sys.path.insert(0, str(SRC))
    import efsolver as ef
    if Path(ef.__file__).resolve().parent != SRC / "efsolver":
        print(f"error: imported efsolver from {ef.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from efsolver import solver

    cells = workloads.build(args.workload, args.seed)
    problems = [ef.parse_problem(c.text) for c in cells]
    setup: list[float] = []
    if not args.trace:
        _probe_setup(args)  # not recorded: fills the byte-code caches
        setup.append(_probe_setup(args))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        for c in cells:
            ef.parse_problem(c.text)
        tracer.uninstall()

    passes: list[PassRecord] = []
    measured = 0.0
    while len(passes) < 1 + args.trace or measured < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
            tracing.install(tracer)
        try:
            rec = run_pass(ef, solver, cells, problems, deadline, traced)
        finally:
            if traced:
                tracer.uninstall()
        passes.append(rec)
        measured += rec.wall_s
        if _now() > deadline:
            break
        if not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(_probe_setup(args))

    totals = tracer.pass_totals() if tracer else {}
    counts = _counts(passes, totals)
    errors = _determinism_errors(counts) + _cross_run_errors(args, counts)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    unsolved = sum(p.unsolved for p in passes)
    untraced = [p for p in passes if not p.traced]

    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        metrics = tracing.layer_metrics(
            [totals[i] for i, p in enumerate(passes) if p.traced],
            totals.get(tracing.SETUP_PASS, {}),
            [p.wall_s for p in traced_passes],
            statistics.median(p.solve_s for p in traced_passes)
            / statistics.median(p.solve_s for p in untraced) - 1.0,
            passes[0].splits, passes[0].lp_solves)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        pass_times = [p.solve_s for p in passes]
        tail, pct, n = _tail(pass_times)
        print(f"solve_s_tail = {tail} s (p{pct:.0f} of {n} passes)")
        metrics = {
            "solve_s": (statistics.median(pass_times), "s"),
            "verify_s": (statistics.median(p.verify_s for p in passes), "s"),
            "splits": (passes[0].splits, "count"),
            "rounds": (passes[0].rounds, "count"),
            "correct_frac": (1.0 - len(failures) / attempted, "frac"),
            "solved_frac": (1.0 - unsolved / attempted, "frac"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }

    for f in failures[:20]:
        print(f"FAIL {f}", file=sys.stderr)
    for e in errors:
        print(f"ERROR {e}", file=sys.stderr)
    env = _environment()
    print(f"fail_frac = {len(failures) / attempted} ({len(failures)} of {attempted} cells)")
    print(f"unsolved_frac = {unsolved / attempted} ({unsolved} of {attempted} cells)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": int(v) if u == "count" and float(v).is_integer() else v,
                        "unit": u} for k, (v, u) in metrics.items()},
    }
    _write_json(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "args": vars(args), "env": env, "setup_samples_s": setup,
        "passes": [vars(p) for p in passes], "errors": errors, "result": result})
    print(json.dumps(result))
    return 0


def run_pass(ef, solver, cells, problems, deadline, traced: bool) -> PassRecord:
    """Solve every cell once, verify every solution, check every outcome."""
    rec = PassRecord(traced)
    start = _now()
    for cell, problem in zip(cells, problems):
        budget = min(SAFETY_TIME_BUDGET, max(1.0, deadline - _now()))
        cfg = ef.SolveConfig(
            heuristic=ef.HeuristicConfig(strategy=ef.Strategy.from_name(cell.strategy)),
            max_splits=cell.max_splits, time_budget=budget)
        rec.attempted += 1
        solve_s = verify_s = 0.0
        try:
            t = _now()
            out = solver.solve(problem, cfg)
            solve_s = _now() - t
            verdict = None
            if out.is_solution:
                t = _now()
                verdict = solver.verify_solution(problem, out.x)
                verify_s = _now() - t
        except Exception as exc:  # a crash is a failed cell, not a crashed run
            rec.failures.append(f"{cell.label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            rec.cell_solve_s.append(solve_s)
            rec.cell_verify_s.append(verify_s)
        rec.splits += out.stats.splits
        rec.rounds += out.stats.rounds
        rec.lp_solves += out.stats.lp_solves
        rec.outcomes.append((cell.label, out.outcome.value, out.stats.splits))
        wrong = _check(ef, cell, problem, out, verdict)
        if wrong == "unsolved":
            rec.unsolved += 1
        elif wrong:
            rec.failures.append(f"{cell.label}: {wrong}")
    rec.wall_s = _now() - start
    return rec


def _check(ef, cell, problem, out, verdict) -> str | None:
    """None when the outcome is right, "unsolved" for a budget-exhausted cell
    that has a solution, otherwise what is wrong."""
    if out.outcome is ef.Outcome.SOLUTION:
        if cell.expected != "solution":
            return "solution reported for an infeasible cell"
        if verdict.status is not ef.VerifyStatus.VERIFIED:
            return f"solution not verified: {verdict.status.value} {verdict.reason}"
        C, d = problem.eq_matrix(), problem.eq_vector()
        if C.shape[0] and np.abs(C @ out.x - d).max() > EQUALITY_TOL:
            return "equality residual above tolerance"
        if any(not c["margin"] >= 0.0 for c in out.certificate):
            return "negative certificate margin"
        return None
    if out.outcome is ef.Outcome.INFEASIBLE:
        if cell.expected != "infeasible":
            return f"infeasible reported for a solvable cell ({out.reason})"
        if cell.refutation is not None and (
                out.witness is None
                or not cell.refutation.violated_at(out.witness.box.midpoint())):
            return "infeasibility witness does not violate the guard"
        return None
    if cell.expected == "solution":
        return "unsolved"
    return f"budget exhausted on an infeasible cell ({out.reason})"


def _tail(values):
    """The highest percentile with at least ten samples beyond it, its
    percentile and the sample count; the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


def _probe_setup(args) -> float:
    """Seconds of import + generation + parsing in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def _counts(passes, totals):
    """The counts that must repeat exactly, per pass."""
    rows = []
    for i, p in enumerate(passes):
        row = {"splits": p.splits, "rounds": p.rounds, "lp_solves": p.lp_solves}
        if p.traced:
            t = totals.get(i, {})
            row["simplex.pivots"] = t.get("pivots", 0)
            row["expr.evals"] = sum(t.get(f"evals:{c}", 0) for c in tracing.EVAL_CALLERS)
        rows.append(row)
    return rows


def _determinism_errors(rows) -> list[str]:
    errors = []
    for key in sorted(set().union(*rows)):
        seen = {r[key] for r in rows if key in r}
        if len(seen) > 1:
            errors.append(f"{key} differs between passes: {sorted(seen)}")
    return errors


def _cross_run_errors(args, rows) -> list[str]:
    """Compare this run's counts with earlier runs of the same source and
    seed in this checkout, then record them."""
    path = OUT / "counts.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    key = f"{_source_digest()}/{args.workload}/{args.seed}"
    mine = {}
    for row in rows:
        mine.update(row)
    earlier = record.get(key, {})
    errors = [f"{k} = {mine[k]} here but {earlier[k]} in an earlier run"
              for k in sorted(mine.keys() & earlier.keys()) if mine[k] != earlier[k]]
    record[key] = {**earlier, **mine}
    _write_json(path, record)
    return errors


def _source_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC / "efsolver", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".efp"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_commit": commit, "source_digest": _source_digest(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                    "OPENBLAS_NUM_THREADS")}}


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=1, default=str))
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
