"""The three workloads: the cells one pass solves, built from a seed.

A cell is one problem text, one strategy, a split cap and the outcome the
cell must end in.  Every cell is bounded by its split cap; the solver's
time budget is only a safety net far above the expected time, so outcomes
and split counts never depend on machine speed.

* one-box: split-worst on B, C and D and round-robin on B.  Both
  strategies split one box and re-solve the LP after every split while the
  live-row count grows to about 570, so the LP (simplex) and target
  selection dominate; interval evaluation is a few percent.
* split-all: split-all on A, B, C and D.  The LP is solved about nine times
  per instance, so interval evaluation, trial children in `splitheur` and
  the age table do the work.
* guarded: generated instances (see guarded.py) whose guards straddle zero
  on the initial box, so the work is guard classification and
  `_pick_undecided`, with few LP rows.

The bundled instances do not depend on the seed; for them the seed only
shuffles the order of the cells in a pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import guarded

WORKLOADS = ("one-box", "split-all", "guarded")

ONE_BOX = (("B", "split-worst"), ("C", "split-worst"), ("D", "split-worst"),
           ("B", "round-robin"))
SPLIT_ALL = (("A", "split-all"), ("B", "split-all"), ("C", "split-all"),
             ("D", "split-all"))
# Well above the 568 splits of the largest bundled cell (round-robin B).
BUNDLED_MAX_SPLITS = 1500


@dataclass(frozen=True)
class Cell:
    label: str
    text: str
    strategy: str
    max_splits: int
    expected: str  # "solution" or "infeasible"
    refutation: guarded.Refutation | None = None


def build(workload: str, seed: int) -> list[Cell]:
    """The cells of one pass of `workload`; the same seed gives the same cells."""
    rng = random.Random(seed)
    if workload == "guarded":
        cells = []
        for k, inst in enumerate(guarded.generate_pass(seed)):
            cap = (guarded.CROSSING_MAX_SPLITS if inst.kind == "crossing"
                   else guarded.MAX_SPLITS)
            expected = "infeasible" if inst.kind == "infeasible" else "solution"
            cells.append(Cell(f"g{k}/{inst.kind}", inst.text, "split-all", cap,
                              expected, inst.refutation))
        return cells
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    from efsolver.benchmarks import benchmark_text
    pairs = list(ONE_BOX if workload == "one-box" else SPLIT_ALL)
    rng.shuffle(pairs)
    return [Cell(f"{name}/{strategy}", benchmark_text(name), strategy,
                 BUNDLED_MAX_SPLITS, "solution") for name, strategy in pairs]
