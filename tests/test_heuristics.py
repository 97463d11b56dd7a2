import math
from fractions import Fraction

import numpy as np
import pytest

from efsolver.errors import AllDimensionsDegenerate, SplitDegenerate
from efsolver.expr import compile_tape, enclose
from efsolver.heuristics import (RHS_COEFFICIENT, TIE_TOL, AgeTable,
                                 HeuristicConfig, Strategy, coeff_score,
                                 round_robin_var, select_targets,
                                 split_coefficient, split_coefficients,
                                 splitheur)
from efsolver.intervals import Box, Interval
from efsolver.relaxation import (LPSolution, residual_vector,
                                 solve_feasibility)

from conftest import EndpointSystem, box_halves, parse_expr


def test_coeff_score_values():
    assert coeff_score(4.0, 0.0, 0.0, 0.0) == 0.0
    assert coeff_score(4.0, 0.0, 0.0, 0.001) == pytest.approx(0.004)
    assert coeff_score(0.0, 5.0, 0.0, 0.5) == 0.0
    # elementwise over a row, as split_coefficient calls it
    scores = coeff_score(np.array([4.0, 0.0, 2.0]), np.array([0.0, 5.0, 1.0]),
                         np.array([0.0, 0.0, 3.0]), 0.5)
    assert scores.tolist() == [2.0, 0.0, 7.0]


def test_coeff_score_scales_overflowing_scores():
    # at epsilon = 1e308 three of these scores overflow; scaled by one
    # power of two they stay finite, without an overflow warning (an error
    # under the test configuration), and keep the order of their exact
    # values, so the widest of the three wins instead of the first inf
    width = np.array([2.0, 3.0, 0.0, 2.0, 1e-3])
    x1, x2 = np.array([0.0, 1.0, 5.0, 1e300, 0.0]), np.zeros(5)
    scores = coeff_score(width, x1, x2, 1e308)
    assert math.isfinite(coeff_score(2.0, 0.0, 0.0, 1e308))
    j, _ = split_coefficient(width, LPSolution(x1, x2, 1.0),
                             HeuristicConfig(epsilon=1e308))
    exact = [Fraction(w) * (Fraction(v) + Fraction(1e308)) for w, v in zip(width, x1)]
    assert np.isfinite(scores).all()
    assert np.argsort(scores).tolist() == sorted(range(5), key=exact.__getitem__)
    assert j == 1


def test_coeff_score_theorem_hypotheses():
    # (a) decreases to zero with the width; (b) positive whenever the
    # width is positive and epsilon > 0
    rng = np.random.default_rng(2)
    for _ in range(50):
        x1, x2 = rng.uniform(0, 5, size=2)
        eps = rng.uniform(1e-6, 1e-2)
        prev = np.inf
        for k in range(9):
            w = 10.0 ** -k
            s = coeff_score(w, x1, x2, eps)
            assert 0 < s < prev
            prev = s
        assert prev < 1e-7 * (max(x1, x2) + eps)


def _solved(sys):
    lp = sys.lp()
    sol = solve_feasibility(lp)
    return sol, residual_vector(lp, sol)


def _select(sys, d, cfg):
    return select_targets(sys.improvable, d, cfg)


def two_row_system():
    return EndpointSystem.of([(((-1, 1),), (-0.5, -0.5)),
                              (((-1, 1),), (-2.0, -2.0))])


def test_select_targets_tie_breaks_to_first_coefficient():
    sys = EndpointSystem.of([(((-1, 3), (-3, 1)), (-2, -2))])
    sol, d = _solved(sys)
    cfg = HeuristicConfig(epsilon=0.001)
    targets = _select(sys, d, cfg)
    # both scores are 0.004: the tie goes to the lowest coefficient index
    assert len(targets) == 1
    assert split_coefficient(sys.p_width[targets[0]], sol, cfg) == (0, "+")


def test_select_targets_worst_row():
    sys = two_row_system()
    sol, d = _solved(sys)
    assert d == pytest.approx([0.5, 2.0], abs=1e-9)
    cfg = HeuristicConfig(strategy=Strategy.SPLIT_WORST)
    # preference order, worst residual first
    assert _select(sys, d, cfg).tolist() == [1, 0]


def test_select_targets_split_all():
    sys = two_row_system()
    sol, d = _solved(sys)
    cfg = HeuristicConfig(strategy=Strategy.SPLIT_ALL)
    # every violated row, in box id order
    assert _select(sys, d, cfg).tolist() == [0, 1]


def test_select_targets_near_ties_go_to_the_older_box():
    sys = EndpointSystem.of([(((-1, 1),), (0.0, 0.0))] * 4)
    worst = 2.0
    d = np.array([1.0, worst - 1e-12, worst, worst - 3e-9])
    cfg = HeuristicConfig(strategy=Strategy.SPLIT_WORST)
    # rows 1 and 2 lie within TIE_TOL * |worst| of the worst residual, so
    # the older box goes first; row 3 lies outside it
    assert _select(sys, d, cfg).tolist() == [1, 2, 3, 0]
    assert _select(sys, d[::-1].copy(), cfg).tolist() == [1, 2, 0, 3]


def test_select_targets_round_robin_rotates_boxes():
    sys = two_row_system()
    sol, d = _solved(sys)
    cfg = HeuristicConfig(strategy=Strategy.ROUND_ROBIN)
    targets = _select(sys, d, cfg)
    # classical baseline: the oldest box first, not the most violated one
    assert targets.tolist() == [0, 1]
    assert split_coefficient(sys.p_width[targets[0]], sol, cfg)[0] is None


def test_select_targets_with_nonpositive_residual():
    # the solver also asks for targets when rho is numerically marginal
    sys = EndpointSystem.of([(((2, 3),), (-2, -2))])
    sol, d = _solved(sys)
    assert sol.rho <= 0
    assert len(_select(sys, d, HeuristicConfig()))


def test_select_targets_skips_zero_width_and_falls_back_to_rhs():
    sys = EndpointSystem.of([(((0.0, 0.0),), (-3.0, -2.0))])
    sol, d = _solved(sys)
    assert sol.rho > 0
    cfg = HeuristicConfig()
    targets = _select(sys, d, cfg)
    choice = split_coefficient(sys.p_width[targets[0]], sol, cfg)
    assert choice == (RHS_COEFFICIENT, "-")


def test_select_targets_scale_invariant():
    sys = two_row_system()
    sol, d = _solved(sys)
    for cfg in (HeuristicConfig(strategy=Strategy.SPLIT_WORST),
                HeuristicConfig(strategy=Strategy.SPLIT_ALL)):
        base = _select(sys, d, cfg)
        scaled = _select(sys, 7.5 * d, cfg)
        assert base.tolist() == scaled.tolist()


def reference_targets(rows, sol, residual, cfg):
    """The per-row target selection that select_targets and
    split_coefficient replace: (row, coefficient, sign) in preference
    order, rows given as (coefficient Intervals, rhs Interval).  Split-all
    and round-robin keep box id order; split-worst puts the rows tied with
    the worst residual first, oldest first, then the rest, worst first."""

    def row_target(i):
        coeffs, rhs = rows[i]
        widths = np.array([p.width for p in coeffs])
        if (widths > 0).any():
            if cfg.strategy is Strategy.ROUND_ROBIN:
                return (i, None, None)
            scores = np.array([p.width * (max(sol.x1[j], sol.x2[j]) + cfg.epsilon)
                               for j, p in enumerate(coeffs)])
            j = int(np.argmax(np.where(widths > 0, scores, -np.inf)))
            return (i, j, "+" if sol.x1[j] - sol.x2[j] >= 0 else "-")
        if rhs.width > 0:
            if cfg.strategy is Strategy.ROUND_ROBIN:
                return (i, None, None)
            return (i, RHS_COEFFICIENT, "-")
        return None

    order = list(range(len(rows)))
    if cfg.strategy is Strategy.SPLIT_ALL:
        targets = [t for i in order if residual[i] > 0
                   and (t := row_target(i)) is not None]
        if targets:
            return targets
    targets = [t for i in order if (t := row_target(i)) is not None]
    if cfg.strategy is Strategy.SPLIT_WORST and targets:
        # rows within TIE_TOL * max(1, |worst|) of the worst tie with it
        worst = max(residual[t[0]] for t in targets)
        tol = TIE_TOL * max(1.0, abs(worst))
        targets.sort(key=lambda t: (-(worst if residual[t[0]] >= worst - tol
                                      else residual[t[0]]), t[0]))
    return targets


def test_vectorised_selection_matches_per_row_reference():
    # split-all rounds choose their coefficients in one array pass
    # (split_coefficients), which must equal split_coefficient row by row
    # under every strategy;
    # a second stream adds coefficients wider than the largest double (an
    # infinite width, a NaN score at a zero LP value and epsilon 0) and
    # epsilon 1e308, whose finite-width scores overflow and are rescaled
    rng, extra = np.random.default_rng(71), np.random.default_rng(72)
    kinds = nan_rows = rescaled = 0
    for trial in range(400):
        n, r = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        # coarse grids make ties in residuals, scores and LP values common
        c = rng.integers(-4, 5, size=(n, r)) / 2.0
        w = rng.choice([0.0, 0.5, 1.0, 2.0], size=(n, r))
        if trial % 2:
            w[extra.random((n, r)) < 0.25] = 1.5e308    # an infinite width
        w[rng.random(n) < 0.2] = 0.0                    # no coefficient width
        q = rng.integers(-4, 5, size=n) / 2.0
        qw = rng.choice([0.0, 0.0, 1.0], size=n)        # rhs-only or degenerate
        if trial % 3 == 0:
            w[:, int(rng.integers(r))] = 0.0            # a zero-width column
        rows = [([Interval(c[i, j] - w[i, j], c[i, j] + w[i, j]) for j in range(r)],
                 Interval(q[i] - qw[i], q[i] + qw[i])) for i in range(n)]
        sys = EndpointSystem.of(rows)
        x1 = rng.choice([0.0, 0.0, 1.0, 2.5], size=r)
        x2 = np.where(x1 > 0, 0.0, rng.choice([0.0, 1.0, 2.5], size=r))
        if trial % 2:
            k = int(extra.integers(r))
            x1[k] = x2[k] = 0.0                         # NaN at epsilon 0
        residual = rng.integers(-2, 3, size=n) / 2.0
        if trial % 2:
            # LP round-off: gaps far below TIE_TOL, some right at it
            residual += rng.choice([0.0, 1e-13, TIE_TOL, 2 * TIE_TOL], size=n)
        sol = LPSolution(x1, x2, float(residual.max()))
        # an infinite width is a width, and its score at a zero factor NaN
        with np.errstate(over="ignore", invalid="ignore"):
            width = sys.p_width
            kinds += (w.sum(axis=1) == 0).any() and (qw > 0).any()
            for strategy in Strategy:
                epsilons = [float(rng.choice([0.0, 1e-3]))]
                if extra.random() < 0.2:
                    epsilons.append(1e308)
                for epsilon in epsilons:
                    cfg = HeuristicConfig(epsilon=epsilon, strategy=strategy)
                    targets = _select(sys, residual, cfg)
                    per_row = [split_coefficient(width[i], sol, cfg) for i in targets]
                    assert split_coefficients(width[targets], sol, cfg) == per_row
                    if strategy is Strategy.SPLIT_ALL:
                        scores = width[targets] * (np.maximum(x1, x2) + epsilon)
                        nan_rows += np.isnan(scores).any(axis=1).sum()
                        rescaled += (np.isfinite(width[targets])
                                     & ~np.isfinite(scores)).any(axis=1).sum()
                    if epsilon < 1e308:  # the reference does not rescale
                        got = [(int(i), *choice) for i, choice in zip(targets, per_row)]
                        assert got == reference_targets(rows, sol, residual, cfg)
    assert kinds > 20  # rhs-only rows were exercised
    assert nan_rows > 20 and rescaled > 20


def choose(t, box, sign, ages, kappa):
    """splitheur on the one-expression tape of t over box."""
    tape = compile_tape((t,), box.names)
    base = enclose(t, box)
    return splitheur(tape, tape.roots[0], *box.endpoints(), (base.lo, base.hi),
                     sign, ages, kappa)


def rr_var(box, counter):
    return round_robin_var(*box.endpoints(), counter)


def test_splitheur_prefers_effective_dimension():
    # y1^2 over [-1,1] reaches its extremes on both children, so splitting
    # y1 moves neither bound; splitting y2 improves the upper bound by 1
    t = parse_expr("y1^2 + y2")
    box = Box.of(("y1", (-1.0, 1.0)), ("y2", (0.0, 2.0)))
    assert choose(t, box, "+", [0, 0], 0.0) == 1


def test_splitheur_aging_dominates():
    t = parse_expr("y1^2 + y2")
    box = Box.of(("y1", (-1.0, 1.0)), ("y2", (0.0, 2.0)))
    assert choose(t, box, "+", [10_000, 0], 0.1) == 0


@pytest.mark.parametrize("kappa", [1e300, 1e308])
def test_splitheur_overflowing_credit_still_orders_by_age(kappa):
    # kappa * width * age overflows; the scaled credits still rank the
    # older dimension first, and without credits the improvement decides
    t = parse_expr("y1^2 + y2")
    box = Box.of(("y1", (-1.0, 1.0)), ("y2", (0.0, 2.0)))
    assert choose(t, box, "+", [10**9, 10**9 - 1], kappa) == 0
    assert choose(t, box, "+", [10**9 - 1, 10**9], kappa) == 1
    assert choose(t, box, "+", [0, 0], kappa) == 1


def test_splitheur_lower_bound_target():
    t = parse_expr("y1")
    box = Box.of(("y1", (0.0, 4.0)), ("y2", (0.0, 4.0)))
    # only y1 affects t: raising the lower bound improves by 2 versus 0
    assert choose(t, box, "-", [0, 0], 0.0) == 0


def test_splitheur_excludes_zero_width_dims():
    t = parse_expr("y1 + y2")
    box = Box.of(("y1", (1.0, 1.0)), ("y2", (0.0, 2.0)))
    assert choose(t, box, "+", [0, 0], 0.0) == 1
    with pytest.raises(AllDimensionsDegenerate):
        choose(parse_expr("y1"), Box.of(("y1", (1.0, 1.0))),
                  "+", [0], 0.0)


ONE_ULP = (1.0, math.nextafter(1.0, 2.0))  # its midpoint rounds onto lo


def test_one_ulp_dimension_is_never_chosen():
    box = Box.of(("y1", ONE_ULP), ("y2", (0.0, 2.0)))
    t = parse_expr("1000*y1 + y2")
    assert choose(t, box, "+", [5, 0], 1.0) == 1
    assert rr_var(box, 0) == 1
    with pytest.raises(SplitDegenerate):
        box_halves(box, 0)
    thin = Box.of(("y1", ONE_ULP))
    with pytest.raises(AllDimensionsDegenerate):
        choose(parse_expr("y1"), thin, "+", [0], 0.0)
    with pytest.raises(AllDimensionsDegenerate):
        rr_var(thin, 0)


def test_splitheur_deterministic():
    t = parse_expr("y1*y2 - y2^2")
    box = Box.of(("y1", (-2.0, 1.0)), ("y2", (0.5, 3.0)))
    picks = {choose(t, box, "+", [1, 2], 0.05) for _ in range(5)}
    assert len(picks) == 1


def test_splitheur_fairness_window():
    # with kappa > 0, every positive-width variable of t is chosen at
    # least once in any window of ceil(1/kappa) + s consecutive calls on
    # the same shrinking lineage
    kappa = 0.25
    t = parse_expr("y1^2 + y2")
    box = Box.of(("y1", (-1.0, 1.0)), ("y2", (0.0, 2.0)))
    table = AgeTable()
    choices = []
    for _ in range(24):
        ages = table.ages(0, len(box))
        k = choose(t, box, "+", ages, kappa)
        table.record_choice(0, len(box), k)
        choices.append(k)
        box = box_halves(box, k)[0]
    window = int(np.ceil(1 / kappa)) + len(box)
    for start in range(len(choices) - window + 1):
        seen = set(choices[start:start + window])
        assert seen == {0, 1}


def test_round_robin_var_cycles_and_skips():
    box = Box.of(("y1", (0, 1)), ("y2", (0, 1)))
    assert rr_var(box, 0) == 0
    assert rr_var(box, 3) == 1
    box3 = Box.of(("y1", (0, 1)), ("y2", (1, 1)), ("y3", (0, 1)))
    assert rr_var(box3, 1) == 2
    with pytest.raises(AllDimensionsDegenerate):
        rr_var(Box.of(("y1", (1, 1))), 0)


def test_age_table_inheritance():
    slot = 3
    table = AgeTable()
    table.record_choice(slot, 2, 0)   # ages now [0, 1]
    child = table.inherit()
    assert child.ages(slot, 2) == [0, 1]
    # the copies are independent
    child.record_choice(slot, 2, 1)
    assert child.ages(slot, 2) == [1, 0]
    assert table.ages(slot, 2) == [0, 1]
    # a slot never chosen starts at zeros
    assert child.ages(slot + 1, 2) == [0, 0]


def test_heuristic_config_rejects_infinite_kappa():
    # an infinite aging credit times a zero age is NaN, which no score
    # beats, so every box would look unsplittable
    with pytest.raises(ValueError, match="finite"):
        HeuristicConfig(aging_kappa=math.inf)


def test_heuristic_config_validation():
    with pytest.raises(ValueError):
        HeuristicConfig(epsilon=-1.0)
    # every score of a positive width would be inf, so the first column
    # would win every split
    with pytest.raises(ValueError, match="finite"):
        HeuristicConfig(epsilon=math.inf)
    HeuristicConfig(epsilon=0.0)  # allowed: degenerate variant
    assert Strategy.from_name("split-all") is Strategy.SPLIT_ALL
    with pytest.raises(ValueError):
        Strategy.from_name("bogus")


@pytest.mark.parametrize("name", [s.value for s in Strategy])
def test_heuristic_config_rejects_strategy_names(name):
    # a name compares unequal to every Strategy, so every `is Strategy.…`
    # test would fail and split-all or round-robin would run split-worst
    with pytest.raises(ValueError, match="Strategy"):
        HeuristicConfig(strategy=name)
