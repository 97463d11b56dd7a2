"""In-memory span tracer for the traced run.

The tracer replaces library functions at the sites that import them with
wrappers that record a span (name, start, end, parent span, pass id) or
only bump a counter.  Nothing inside the library changes; `uninstall`
restores every original.  Spans stay in flat arrays until the run ends.

A span's self time is its duration minus the durations of its child
spans, so the self times of one pass add up to the duration of its
top-level spans (the benchmark's calls to `solve` and `verify_solution`).
The layer of a span is the prefix of its name before the first dot.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from collections import Counter

import numpy as np

_now = time.perf_counter
SETUP_PASS = -1
EVAL_CALLERS = ("classify", "trial", "guard_pick", "verify")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_of = array("i")
        self._stack: list[int] = []
        self.pass_id = SETUP_PASS
        self.counts: dict[int, Counter] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counts.setdefault(self.pass_id, Counter())[key] += n

    def wrap(self, owner, attr: str, span: str, after=None) -> None:
        """Record a span named `span` around every call of owner.attr;
        after(tracer, args, result) runs once the call returned."""
        orig = getattr(owner, attr)
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        sid = self._ids[span]
        name, start, end = self.name, self.start, self.end
        parent, pass_of, stack = self.parent, self.pass_of, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            pass_of.append(self.pass_id)
            end.append(0.0)
            stack.append(i)
            start.append(_now())
            try:
                result = orig(*args, **kwargs)
            finally:
                end[i] = _now()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_counter(self, owner, attr: str, before) -> None:
        """Call before(tracer, args) ahead of every call of owner.attr,
        without a span."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            before(self, args)
            return orig(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass": np.frombuffer(self.pass_of, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def pass_totals(self) -> dict[int, dict[str, float]]:
        """Per pass: calls, inclusive seconds and self seconds per span
        name, eval calls per caller, and the counters."""
        a = self.arrays()
        n, k = a["name"].size, len(self.names)
        if n == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        passes, pidx = np.unique(a["pass"], return_inverse=True)
        key = pidx * k + a["name"]
        size = passes.size * k

        def per_pass(weights=None, mask=slice(None)):
            return np.bincount(key[mask], weights=None if weights is None else weights[mask],
                               minlength=size).reshape(passes.size, k)

        calls, incl, own = per_pass(), per_pass(dur), per_pass(dur - child)
        by_verify = per_pass(mask=self._under(a, "verify.verify_solution"))
        eval_sites = [(sid, span.rsplit(".", 1)[1]) for sid, span in enumerate(self.names)
                      if span.startswith("expr.eval_on_box.")]
        out = {}
        for row, pid in enumerate(passes.tolist()):
            totals: dict[str, float] = {f"evals:{c}": 0 for c in EVAL_CALLERS}
            for sid, span in enumerate(self.names):
                if calls[row, sid]:
                    totals[f"{span}:calls"] = int(calls[row, sid])
                    totals[f"{span}:s"] = float(incl[row, sid])
                    totals[f"{span}:self_s"] = float(own[row, sid])
            for sid, caller in eval_sites:
                totals["evals:verify"] += int(by_verify[row, sid])
                totals[f"evals:{caller}"] += int(calls[row, sid] - by_verify[row, sid])
            totals.update(self.counts.get(pid, {}))
            out[pid] = totals
        return out

    def _under(self, a, span: str) -> np.ndarray:
        """Spans that are `span` or lie below one."""
        sid = self._ids.get(span)
        flag = a["name"] == sid if sid is not None else np.zeros(a["name"].size, bool)
        has_parent = a["parent"] >= 0
        while True:
            inherited = flag.copy()
            inherited[has_parent] |= flag[a["parent"][has_parent]]
            if (inherited == flag).all():
                return flag
            flag = inherited


def install(tr: Tracer) -> None:
    """Wrap the library's layer boundaries at their import sites."""
    import efsolver as ef
    from efsolver import heuristics, relaxation, simplex, simplify, solver

    tr.wrap(ef, "parse_problem", "parsing.parse_problem")
    tr.wrap(solver, "solve", "solver.solve")
    tr.wrap(solver, "_pick_undecided", "solver.pick_undecided",
            after=lambda t, a, res: t.count("guard_picks", res is not None))
    tr.wrap(solver, "simplify_branch", "simplify.simplify_branch")
    tr.wrap(solver, "classify_guard", "simplify.classify_guard")
    tr.wrap(solver, "rohn_transform", "relaxation.build")
    tr.wrap(solver, "solve_feasibility", "relaxation.lp", after=_lp_counts)
    tr.wrap(solver, "residual_vector", "relaxation.residual")
    tr.wrap(solver, "select_targets", "heuristics.select",
            after=lambda t, a, res: t.count("targets", len(res)))
    tr.wrap(solver, "splitheur", "heuristics.splitheur")
    tr.wrap(solver, "round_robin_var", "heuristics.round_robin_var")
    tr.wrap(solver, "verify_solution", "verify.verify_solution",
            after=lambda t, a, res: t.count(f"verify_{res.status.value}"))
    for mod, caller in ((simplify, "classify"), (heuristics, "trial"),
                        (solver, "guard_pick")):
        tr.wrap(mod, "eval_on_box", f"expr.eval_on_box.{caller}")
    tr.wrap(relaxation, "simplex_solve", "simplex.solve")
    for method in ("ages", "record_choice", "inherit"):
        tr.wrap(heuristics.AgeTable, method, "heuristics.ages")
    tr.wrap_counter(simplex, "_pivot", _pivot_counts)


def _lp_counts(tr: Tracer, args, sol) -> None:
    rows = args[0].n
    c = tr.counts.setdefault(tr.pass_id, Counter())
    c["lp_rows"] += rows
    c["lp_rows_max"] = max(c["lp_rows_max"], rows)
    c["unbounded_retries"] += sol.status.value == "unbounded"


def _pivot_counts(tr: Tracer, args) -> None:
    tr.count("pivots")
    tr.count("tableau_bytes", args[0].size * 8)


LAYERS = ("expr", "simplify", "relaxation", "simplex", "heuristics", "solver",
          "verify")


def layer_metrics(pass_totals: list[dict[str, float]], setup: dict[str, float],
                  pass_wall: list[float], overhead: float, splits: int,
                  lp_solves: int):
    """Per-layer metrics: the median over traced passes of each pass value.
    `overhead` is the traced against the untraced median solve time, less 1.

    Returns a dict name -> (value, unit)."""

    def med(fn):
        return statistics.median(fn(t) for t in pass_totals)

    def g(key):
        return lambda t: t.get(key, 0.0)

    def layer_self(layer):
        return lambda t: sum(v for k, v in t.items()
                             if k.startswith(layer + ".") and k.endswith(":self_s"))

    def ratio(num, den):
        return lambda t: num(t) / den(t) if den(t) else 0.0

    solve_evals = lambda t: sum(t[f"evals:{c}"] for c in EVAL_CALLERS[:3])
    all_evals = lambda t: solve_evals(t) + t["evals:verify"]
    target_splits = lambda t: splits - t.get("guard_picks", 0)
    m = {
        "parsing.calls": (setup.get("parsing.parse_problem:calls", 0), "count"),
        "parsing.self_s": (setup.get("parsing.parse_problem:self_s", 0.0), "s"),
        "expr.evals": (med(all_evals), "count"),
    }
    for caller in EVAL_CALLERS:
        m[f"expr.evals.{caller}"] = (med(g(f"evals:{caller}")), "count")
    m["expr.self_s"] = (med(layer_self("expr")), "s")
    m["expr.evals_per_split"] = (med(solve_evals) / splits if splits else 0.0, "count")
    m["simplify.calls"] = (med(lambda t: t.get("simplify.simplify_branch:calls", 0)
                               + t.get("simplify.classify_guard:calls", 0)), "count")
    m["simplify.self_s"] = (med(layer_self("simplify")), "s")
    m["relaxation.build_calls"] = (med(g("relaxation.build:calls")), "count")
    m["relaxation.build_s"] = (med(g("relaxation.build:s")), "s")
    m["relaxation.lp_calls"] = (med(g("relaxation.lp:calls")), "count")
    m["relaxation.lp_self_s"] = (med(g("relaxation.lp:self_s")), "s")
    m["relaxation.self_s"] = (med(layer_self("relaxation")), "s")
    m["relaxation.rows_max"] = (med(g("lp_rows_max")), "count")
    m["relaxation.rows_mean"] = (med(ratio(g("lp_rows"), g("relaxation.lp:calls"))), "count")
    m["relaxation.unbounded_retries"] = (med(g("unbounded_retries")), "count")
    m["simplex.calls"] = (med(g("simplex.solve:calls")), "count")
    m["simplex.self_s"] = (med(layer_self("simplex")), "s")
    m["simplex.pivots"] = (med(g("pivots")), "count")
    m["simplex.pivots_per_solve"] = (med(ratio(g("pivots"), g("simplex.solve:calls"))), "count")
    m["simplex.tableau_bytes"] = (med(g("tableau_bytes")), "B")
    m["heuristics.select_calls"] = (med(g("heuristics.select:calls")), "count")
    m["heuristics.select_s"] = (med(g("heuristics.select:s")), "s")
    m["heuristics.target_use_ratio"] = (med(ratio(target_splits, g("targets"))), "frac")
    m["heuristics.splitheur_calls"] = (med(g("heuristics.splitheur:calls")), "count")
    m["heuristics.splitheur_s"] = (med(g("heuristics.splitheur:s")), "s")
    m["heuristics.ages_s"] = (med(g("heuristics.ages:s")), "s")
    m["heuristics.self_s"] = (med(layer_self("heuristics")), "s")
    m["solver.self_s"] = (med(layer_self("solver")), "s")
    m["solver.lp_solves"] = (lp_solves, "count")
    m["solver.pick_undecided_calls"] = (med(g("solver.pick_undecided:calls")), "count")
    m["solver.pick_undecided_s"] = (med(g("solver.pick_undecided:s")), "s")
    m["verify.calls"] = (med(g("verify.verify_solution:calls")), "count")
    m["verify.self_s"] = (med(layer_self("verify")), "s")
    m["verify.decisions"] = (med(g("simplify.classify_guard:calls")), "count")
    for status in ("verified", "unknown", "counterexample"):
        m[f"verify.{status}"] = (med(g(f"verify_{status}")), "count")
    m["trace.overhead_frac"] = (overhead, "frac")
    covered = [sum(layer_self(layer)(t) for layer in LAYERS) / wall
               for t, wall in zip(pass_totals, pass_wall)]
    m["trace.coverage_frac"] = (statistics.median(covered), "frac")
    return m
