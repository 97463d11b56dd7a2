import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import efsolver as ef
from efsolver import relaxation, simplex
from efsolver.errors import EqualitiesInfeasible
from efsolver.relaxation import (RHO_FLOOR, LPStatus, residual_vector,
                                 rohn_transform, solve_feasibility)
from efsolver.simplex import SimplexStatus, simplex_solve


def standard_tableau(c, A, b):
    """The tableau of min c.x s.t. A x <= b, x >= 0, given b >= 0, at its
    slack basis."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = c
    return T, np.arange(n, n + m)


def residual_lp(p_lo, p_hi, b, C=None, d=None, keys=None):
    """The residual LP of the interval rows [p_lo, p_hi] x <= b and
    C x = d, as `solve_feasibility` takes it; the rows' keys are 0, 1, ...
    unless given."""
    p_lo, p_hi, b = (np.asarray(a, dtype=float) for a in (p_lo, p_hi, b))
    r = p_lo.shape[1]
    C = np.zeros((0, r)) if C is None else np.asarray(C, dtype=float)
    d = np.zeros(0) if d is None else np.asarray(d, dtype=float)
    keys = np.arange(len(b)) if keys is None else np.asarray(keys)
    return rohn_transform(p_lo, p_hi, b, C, d, keys)


def primal(lp):
    """The floored residual LP over w = (x2, x1, rho) in the form
    min w[-1] s.t. G w <= h, E w = f, w[:-1] >= 0, with the floor as G's
    last row: the oracles' input.  x2 comes first because the dual's rows
    come in that order in `solve_feasibility`."""
    n, r = lp.p_lo.shape
    G = np.vstack([np.hstack([-lp.p_lo, lp.p_hi, -np.ones((n, 1))]),
                   -np.eye(2 * r + 1)[-1]])
    h = np.append(lp.b, RHO_FLOOR)
    C = lp.eq_coeffs
    return G, h, np.hstack([-C, C, np.zeros((len(C), 1))]), lp.eq_rhs


def brute_force_min(G, h, E, f):
    """Enumerate the basic solutions of {G w <= h, E w = f, w[:-1] >= 0}
    and return the least w[-1] (independent oracle for small LPs)."""
    k = G.shape[1]
    A = np.vstack([G, -np.eye(k)[:-1]])
    b = np.concatenate([h, np.zeros(k - 1)])
    best = None
    for rows in itertools.combinations(range(A.shape[0]), k - len(E)):
        M = np.vstack([E, A[list(rows)]])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        w = np.linalg.solve(M, np.concatenate([f, b[list(rows)]]))
        if (G @ w <= h + 1e-8).all() and (w[:-1] >= -1e-8).all():
            best = w[-1] if best is None else min(best, w[-1])
    return best


def test_simple_bounded():
    # min -x1 - x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6: the optimum is the
    # vertex (1.6, 1.2), and T[-1, -1] holds minus the objective value
    T, basis = standard_tableau([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]],
                                [4.0, 6.0])
    assert simplex_solve(T, basis) is SimplexStatus.OPTIMAL
    assert sorted(basis.tolist()) == [0, 1]
    x = np.zeros(4)
    x[basis] = T[:-1, -1]
    assert x[:2] == pytest.approx([1.6, 1.2], abs=1e-12)
    assert T[-1, -1] == pytest.approx(2.8, abs=1e-12)
    assert (T[-1, :-1] >= 0).all()


def test_dual_pivots_restore_feasibility():
    # min x1 + x2 s.t. x1 + 2 x2 >= 4, 3 x1 + x2 >= 3, written as <= rows
    # with negative right-hand sides: the slack basis is dual feasible but
    # not primal feasible, and two dual pivots reach the optimum (0.4, 1.8)
    T, basis = standard_tableau([1.0, 1.0], [[-1.0, -2.0], [-3.0, -1.0]],
                                [0.0, 0.0])
    T[:2, -1] = [-4.0, -3.0]
    tally = [0]
    assert simplex_solve(T, basis, tally) is SimplexStatus.OPTIMAL
    assert tally == [2] and sorted(basis.tolist()) == [0, 1]
    x = np.zeros(4)
    x[basis] = T[:-1, -1]
    assert x[:2] == pytest.approx([0.4, 1.8], abs=1e-12)
    assert T[-1, -1] == pytest.approx(-2.2, abs=1e-12)
    # x1 <= -1 has no solution with x1 >= 0
    T, basis = standard_tableau([1.0], [[1.0]], [0.0])
    T[0, -1] = -1.0
    assert simplex_solve(T, basis) is SimplexStatus.INFEASIBLE


def test_iteration_limit_raises_a_typed_error(monkeypatch):
    # the LP above takes two pivots and one optimality test
    lp = ([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0])
    monkeypatch.setattr(simplex, "MAX_ITER", 2)
    with pytest.raises(ef.SimplexIterationLimit, match=r"\(2 pivots in one solve"):
        simplex_solve(*standard_tableau(*lp))
    monkeypatch.setattr(simplex, "MAX_ITER", 3)
    assert simplex_solve(*standard_tableau(*lp)) is SimplexStatus.OPTIMAL


def test_unbounded():
    # min -x1 s.t. -x1 + x2 <= 1: x1 grows without bound
    T, basis = standard_tableau([-1.0, 0.0], [[-1.0, 1.0]], [1.0])
    assert simplex_solve(T, basis) is SimplexStatus.UNBOUNDED


def test_free_variable_lower_bounded():
    # rho >= x - 0.5 for every x, so the free rho is held up by the floor
    sol = solve_feasibility(residual_lp([[1.0]], [[1.0]], [0.5]))
    assert sol.status is LPStatus.UNBOUNDED
    assert sol.rho == -RHO_FLOOR
    assert sol.x[0] - 0.5 <= -RHO_FLOOR + 1e-9


def test_equality_constraints():
    # x1 + 2 x2 = 4, x1 - x2 = 1 fix x = (2, 1), so rho = x1 + x2 - 1 = 2
    sol = solve_feasibility(residual_lp([[1.0, 1.0]], [[1.0, 1.0]], [1.0],
                                        [[1, 2], [1, -1]], [4, 1]))
    assert sol.status is LPStatus.OPTIMAL
    assert sol.x == pytest.approx([2.0, 1.0], abs=1e-9)
    assert sol.rho == pytest.approx(2.0, abs=1e-9)


def test_infeasible():
    # x = -1 and x = -2, with no interval rows
    with pytest.raises(EqualitiesInfeasible):
        solve_feasibility(residual_lp(np.zeros((0, 1)), np.zeros((0, 1)), [],
                                      [[1.0], [1.0]], [-1.0, -2.0]))


def test_infeasible_equalities():
    with pytest.raises(EqualitiesInfeasible):
        solve_feasibility(residual_lp([[0.0]], [[1.0]], [1.0],
                                      [[1.0], [1.0]], [1.0, 2.0]))


def test_eq_conflict_equalities_are_infeasible(benchmarks):
    problem = benchmarks["eq_conflict"]
    r = len(problem.x_vars)
    with pytest.raises(EqualitiesInfeasible):
        solve_feasibility(rohn_transform(np.zeros((0, r)), np.zeros((0, r)),
                                         np.zeros(0), problem.eq_matrix(),
                                         problem.eq_vector(), np.zeros(0, int)))


def test_negative_equality_rhs():
    # x = -3; then rho >= x is -3 and the floor binds
    sol = solve_feasibility(residual_lp([[1.0]], [[1.0]], [0.0], [[1.0]], [-3.0]))
    assert sol.x[0] == pytest.approx(-3.0, abs=1e-9)
    assert sol.rho == -RHO_FLOOR and sol.status is LPStatus.UNBOUNDED


@pytest.mark.parametrize("seed", range(5))
def test_random_lps_match_vertex_enumeration(seed):
    rng = np.random.default_rng(100 + seed)
    r, n = int(rng.integers(1, 3)), int(rng.integers(1, 6))
    p_lo = rng.normal(size=(n, r))
    C = d = None
    if seed % 2:
        C = rng.normal(size=(1, r))
        d = C @ rng.normal(size=r)
    lp = residual_lp(p_lo, p_lo + rng.uniform(0.0, 1.0, (n, r)),
                     rng.normal(size=n), C, d)
    expected = brute_force_min(*primal(lp))
    assert expected is not None
    assert solve_feasibility(lp).rho == pytest.approx(expected, abs=1e-7)


def test_determinism():
    rng = np.random.default_rng(42)
    p_lo = rng.normal(size=(6, 4))
    C = rng.normal(size=(1, 4))
    lp = residual_lp(p_lo, p_lo + rng.uniform(0.0, 1.0, (6, 4)),
                     rng.normal(size=6), C, C @ rng.normal(size=4))
    first = solve_feasibility(lp)
    for _ in range(3):
        again = solve_feasibility(lp)
        assert np.array_equal(first.x1, again.x1)
        assert np.array_equal(first.x2, again.x2)
        assert first.rho == again.rho


# -- the dual of the residual LP -----------------------------------------------

def random_lp(rng, family):
    """A random residual LP of one family; integer data, in half the draws
    and in all of the "integer" family, makes ties in the entering and
    leaving rules.

    A tall LP has 40-120 interval rows.  In half of them the rows are point
    rows, tangent planes of a paraboloid at points spread along the way
    from the origin to its minimum, so many rows bind near the optimum;
    equalities, some with a redundant copy, come in half of them.  In the
    "floor" and "unbounded" families one column improves every row, so the
    LP without its floor is unbounded and the floor binds.
    """
    tall = family == "tall"
    r = int(rng.integers(2, 7) if tall else rng.integers(1, 4))
    n = int(rng.integers(40, 121) if tall else rng.integers(1, 8))
    integer = family == "integer" or rng.random() < 0.5

    def draw(*shape):
        M = (rng.integers(-3, 4, size=shape).astype(float) if integer
             else rng.normal(size=shape))
        M[rng.random(shape) < 0.3] = 0.0
        return M

    p_lo, b = draw(n, r), draw(n)
    if family in ("floor", "unbounded"):
        p_lo[:, 0] = np.abs(p_lo[:, 0]) + 1.0
    p_hi = p_lo + np.abs(draw(n, r))
    if tall and rng.random() < 0.5:
        a = rng.uniform(-10.0, 10.0, r)
        c = rng.random((n, 1)) * a + rng.normal(scale=0.5, size=(n, r))
        p_lo = p_hi = 2.0 * (c - a)
        b = (p_lo * c).sum(axis=1) - ((c - a) ** 2).sum(axis=1)
    C = d = None
    if family in ("equalities", "redundant", "infeasible") or (tall and rng.random() < 0.5):
        C = draw(int(rng.integers(1, 4)), r)
        d = C @ rng.normal(size=r)
        if family == "redundant" or (tall and rng.random() < 0.5):
            C, d = np.vstack([C, 2.0 * C[0]]), np.append(d, 2.0 * d[0])
        if family == "infeasible":
            C, d = np.vstack([C, C[0]]), np.append(d, d[0] + 1.0)
    elif family == "zero_rhs":
        b = np.zeros(n)
    return residual_lp(p_lo, p_hi, b, C, d)


def check_against_linprog(lp) -> str:
    """solve_feasibility against HiGHS on the floored primal: the same
    verdict, rho to 1e-9 relative, and a primal point x whose largest
    residual is rho and which satisfies C x = d; returns the verdict."""
    G, h, E, f = primal(lp)
    k = G.shape[1]
    ref = linprog(np.eye(k)[-1], A_ub=G, b_ub=h, A_eq=E if len(E) else None,
                  b_eq=f if len(f) else None,
                  bounds=[(0, None)] * (k - 1) + [(None, None)])
    assert ref.status in (0, 2)
    if ref.status == 2:
        with pytest.raises(EqualitiesInfeasible):
            solve_feasibility(lp)
        return "infeasible"
    sol = solve_feasibility(lp)
    assert sol.rho == pytest.approx(ref.fun, rel=1e-9, abs=1e-7)
    assert (sol.x1 >= 0).all() and (sol.x2 >= 0).all()
    assert lp.eq_coeffs @ sol.x == pytest.approx(lp.eq_rhs, abs=1e-7)
    worst = residual_vector(lp, sol).max(initial=-RHO_FLOOR)
    assert worst <= sol.rho + 1e-7
    if sol.status is LPStatus.OPTIMAL:
        assert worst == pytest.approx(sol.rho, rel=1e-9, abs=1e-7)
    else:
        assert sol.rho == -RHO_FLOOR
    return sol.status.value


def dense_dual_reference(G, h, E, f):
    """The textbook dual of  min w[-1]  s.t.  G w <= h, E w = f,
    w[:-1] >= 0, where G's last row is the floor -w[-1] <= h[-1], solved
    by a dense simplex with the pivot rules of `efsolver.simplex`.

    The dual is  min h.lam - f.mu  s.t.  E[:, j].mu - G[:, j].lam <= 0 for
    j < k - 1, with one slack each, the same with = 1 for the free w[-1],
    lam >= 0 and mu = mu+ - mu- free.  It starts at the basis of the
    slacks and the floor's multiplier, priced out of the cost row.  The
    columns are laid out as `solve_feasibility` lays them out, since the
    pivot rules break ties by column index: the multipliers of G's rows
    but the floor, mu+, mu-, the slacks, the floor's multiplier, the rhs.
    Every pivot updates the whole tableau by an outer product, and the
    basis is a list.  Returns the verdict, the (row, entering column) of
    every pivot, w[:-1] read off the slacks' reduced costs, and
    w[-1] = minus the dual's optimum (strong duality), or None for x and
    rho when the dual is unbounded, i.e. E w = f has no solution.
    """
    k = G.shape[1]
    n, q = G.shape[0] - 1, E.shape[0]
    slacks = np.vstack([np.eye(k - 1), np.zeros((1, k - 1))])
    A = np.hstack([-G[:-1].T, E.T, -E.T, slacks, -G[-1:].T])
    T = np.zeros((k + 1, A.shape[1] + 1))
    T[:k, :-1] = A
    T[k - 1, -1] = 1.0
    T[-1, :-1] = np.concatenate([h[:-1], -f, f, np.zeros(k - 1), h[-1:]])
    basis = list(range(n + 2 * q, n + 2 * q + k))
    T[-1] -= h[-1] * T[k - 1]
    pivots, bland, degenerate_run = [], False, 0
    while True:
        costs = T[-1, :-1]
        if bland:
            improving = np.flatnonzero(costs < -simplex.EPS)
            col = int(improving[0]) if improving.size else None
        else:
            col = int(np.argmin(costs))
            col = col if costs[col] < -simplex.EPS else None
        if col is None:
            x = np.maximum(T[-1, n + 2 * q:n + 2 * q + k - 1], 0.0)
            return "optimal", pivots, x, float(T[-1, -1])
        rows = [i for i in range(k) if T[i, col] > simplex.EPS]
        if not rows:
            return "infeasible", pivots, None, None
        ratios = [max(T[i, -1], 0.0) / T[i, col] for i in rows]
        tied = [i for i, ratio in zip(rows, ratios)
                if ratio <= min(ratios) + simplex._RATIO_TIE]
        row = min(tied, key=lambda i: basis[i])
        before = T[-1, -1]
        T[row] /= T[row, col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T -= np.outer(colvals, T[row])
        basis[row] = col
        pivots.append((row, col))
        if abs(T[-1, -1] - before) <= simplex.EPS * max(1.0, abs(before)):
            degenerate_run += 1
            bland = bland or degenerate_run >= simplex._DEGENERATE_LIMIT
        else:
            degenerate_run, bland = 0, False


def record_pivots(monkeypatch):
    """The (row, col) of every pivot from now on."""
    seq = []
    pivot = simplex._pivot

    def recording(T, basis, row, col, *rest):
        pivot(T, basis, row, col, *rest)
        seq.append((row, col))

    monkeypatch.setattr(simplex, "_pivot", recording)
    return seq


def assert_same_solve(pivots, lp) -> str:
    """solve_feasibility against HiGHS (`check_against_linprog`) and
    against the dense reference: the same verdict and pivots, x bit for
    bit and rho to 1e-9; returns the verdict."""
    pivots.clear()
    verdict = check_against_linprog(lp)
    want, want_pivots, want_x, want_rho = dense_dual_reference(*primal(lp))
    assert pivots == want_pivots
    assert (verdict == "infeasible") == (want == "infeasible")
    if want_x is not None:
        sol = solve_feasibility(lp)
        assert np.array_equal(np.concatenate([sol.x2, sol.x1]), want_x)
        assert sol.rho == pytest.approx(want_rho, rel=1e-9, abs=1e-9)
    return verdict


# the verdicts each family must show over its draws; "unbounded" is a
# binding floor
FAMILIES = {
    "inequalities": {"optimal", "unbounded"},
    "equalities": {"optimal", "unbounded"},
    "redundant": {"optimal", "unbounded"},
    "integer": {"optimal", "unbounded"},
    "floor": {"unbounded"},
    "zero_rhs": {"optimal", "unbounded"},
    "unbounded": {"unbounded"},
    "infeasible": {"infeasible"},
    "tall": {"optimal", "unbounded"},
}


@pytest.mark.parametrize("family,statuses", FAMILIES.items())
def test_sparse_pivots_match_dense_reference(monkeypatch, family, statuses):
    # the "unbounded" family also checks, with HiGHS, that its LPs are
    # unbounded below without the floor row
    pivots = record_pivots(monkeypatch)
    rng = np.random.default_rng(list(FAMILIES).index(family))
    seen = set()
    for _ in range(150):
        lp = random_lp(rng, family)
        seen.add(assert_same_solve(pivots, lp))
        if family == "unbounded":
            G, h, _, _ = primal(lp)
            k = G.shape[1]
            assert linprog(np.eye(k)[-1], A_ub=G[:-1], b_ub=h[:-1],
                           bounds=[(0, None)] * (k - 1) + [(None, None)]).status == 3
    assert seen == statuses


def test_tableau_height_is_2r_plus_2(benchmarks, monkeypatch):
    # round-robin B grows to over 570 rows; the dual's tableau has 2r + 2
    # rows however many boxes are live, and one column per row
    lps, shapes = [], []
    solve, build = relaxation.simplex_solve, relaxation.solve_feasibility

    def solving(T, basis, *rest):
        shapes.append(T.shape)
        return solve(T, basis, *rest)

    def building(lp, *rest):
        lps.append((lp.n, lp.r, lp.eq_coeffs.shape[0]))
        return build(lp, *rest)

    monkeypatch.setattr(relaxation, "simplex_solve", solving)
    monkeypatch.setattr(ef.solver, "solve_feasibility", building)
    rng = np.random.default_rng(5)
    for family in ("inequalities", "equalities", "tall"):
        for _ in range(20):
            building(random_lp(rng, family))
    out = ef.solve(benchmarks["B"], ef.SolveConfig(
        heuristic=ef.HeuristicConfig(strategy=ef.Strategy.ROUND_ROBIN),
        max_splits=5000))
    assert out.is_solution and out.stats.splits == 568
    assert max(n for n, _, _ in lps) > 570 and len(shapes) == len(lps)
    for (n, r, k), shape in zip(lps, shapes):
        assert shape == (2 * r + 2, n + 2 * k + 2 * r + 2)


def test_degenerate_lp_reaches_bland_rule_identically(monkeypatch):
    # with an all-zero rhs every dual pivot from the starting basis is
    # degenerate, so the Bland rule takes over; the dense reference takes
    # the same pivots, two solves agree bit for bit, and HiGHS agrees
    bland = []
    choose = simplex._choose_entering

    def recording(costs, use_bland):
        bland.append(use_bland)
        return choose(costs, use_bland)

    pivots = record_pivots(monkeypatch)
    monkeypatch.setattr(simplex, "_choose_entering", recording)
    rng = np.random.default_rng(29)
    P = rng.integers(-3, 4, size=(200, 30)).astype(float)
    lp = residual_lp(P, P, np.zeros(200))
    assert assert_same_solve(pivots, lp) == "optimal"
    assert any(bland)
    first, again = solve_feasibility(lp), solve_feasibility(lp)
    assert np.array_equal(first.x, again.x) and first.rho == again.rho


# (splits, LP solves, simplex pivots) of the dual simplex, warm started
# from the previous LP's tableau, plus the cold solve that confirms the
# final verdict; a change to the pivot rules, the warm update or the
# tableau's column order moves the pivot counts
PINNED_PIVOTS = [
    ("A", "split-all", (60, 6, 28)),
    ("B", "split-all", (104, 11, 38)),
    ("C", "split-all", (91, 9, 31)),
    ("D", "split-all", (458, 10, 95)),
    ("A", "split-worst", (17, 19, 44)),
    ("B", "split-worst", (131, 133, 178)),
    ("C", "split-worst", (91, 93, 117)),
    ("A", "round-robin", (43, 45, 28)),
    ("eq_guarded", "split-all", (1, 3, 8)),
]


def solve_bundled(benchmarks, name, strategy):
    return ef.solve(benchmarks[name], ef.SolveConfig(
        heuristic=ef.HeuristicConfig(strategy=ef.Strategy.from_name(strategy)),
        max_splits=5000))


@pytest.mark.parametrize("name,strategy,counts", PINNED_PIVOTS)
def test_pinned_pivot_counts(benchmarks, monkeypatch, name, strategy, counts):
    pivots = record_pivots(monkeypatch)
    out = solve_bundled(benchmarks, name, strategy)
    assert out.is_solution
    assert (out.stats.splits, out.stats.lp_solves, len(pivots)) == counts
    assert out.stats.pivots == len(pivots)


def test_pinned_one_box_pivot_total(benchmarks, monkeypatch):
    # the four cells of the benchmark's one-box workload; solved cold from
    # the slack basis, every LP, they took 14,332 pivots over 1,212 LPs
    pivots = record_pivots(monkeypatch)
    outs = [solve_bundled(benchmarks, name, strategy) for name, strategy in
            (("B", "split-worst"), ("C", "split-worst"), ("D", "split-worst"),
             ("B", "round-robin"))]
    assert [out.stats.splits for out in outs] == [131, 91, 418, 568]
    assert sum(out.stats.lp_solves for out in outs) == 1216
    assert sum(out.stats.pivots for out in outs) == len(pivots) == 993


# -- the warm start --------------------------------------------------------------

@pytest.mark.parametrize("name,strategy", [
    ("B", "round-robin"), ("D", "split-worst"), ("D", "split-all")])
def test_warm_solves_match_cold_solves(benchmarks, monkeypatch, name, strategy):
    # every LP after the first is re-optimised from the previous LP's
    # tableau; each must have the optimum of a cold solve of the same
    # arrays, at a point that attains it, and none may fall back
    solve = relaxation.solve_feasibility
    warm_solves = 0

    def checked(lp, warm=None, tally=None):
        nonlocal warm_solves
        sol = solve(lp, warm, tally)
        if sol.warm:
            warm_solves += 1
            cold = solve(lp)
            assert not cold.warm
            assert sol.rho == pytest.approx(cold.rho, rel=1e-9)
            assert sol.status is cold.status
            assert (sol.x1 >= 0).all() and (sol.x2 >= 0).all()
            worst = residual_vector(lp, sol).max(initial=-RHO_FLOOR)
            assert worst <= sol.rho + 1e-9 * max(1.0, abs(sol.rho))
            assert lp.eq_coeffs @ sol.x == pytest.approx(lp.eq_rhs, abs=1e-9)
        return sol

    monkeypatch.setattr(ef.solver, "solve_feasibility", checked)
    out = solve_bundled(benchmarks, name, strategy)
    assert out.is_solution
    # the first LP and the one that confirms the verdict are cold
    assert warm_solves == out.stats.lp_solves - 2 > 0


def test_fallback_gives_the_cold_result_bit_for_bit():
    # a saved tableau with a NaN entry cannot be warm started; the solve
    # falls back to a cold one, whose result and tableau it keeps
    rng = np.random.default_rng(11)
    lp = random_lp(rng, "tall")
    warm = relaxation.DualTableau()
    first = solve_feasibility(lp, warm)
    assert not first.warm and warm.T is not None
    saved = warm.T.copy()
    warm.T[0, 0] = np.nan
    sol = solve_feasibility(lp, warm)
    cold = solve_feasibility(lp)
    assert not sol.warm and sol.pivots == cold.pivots > 0
    assert np.array_equal(sol.x1, cold.x1) and np.array_equal(sol.x2, cold.x2)
    assert sol.rho == cold.rho and sol.status is cold.status
    assert np.array_equal(warm.T, saved)
    # the same LP again, warm started: no pivot is needed
    again = solve_feasibility(lp, warm)
    assert again.warm and again.pivots == 0 and again.rho == cold.rho


def keyed_rows(rng):
    """Rows (p_lo, p_hi, b) of three columns by key: 0, 1 and 2, then two
    children for each of 1, 2, 5 and 7, whose enclosures lie inside their
    parent's."""
    rows = {}
    for key in range(3):
        lo = rng.normal(size=3)
        rows[key] = lo, lo + rng.uniform(0.5, 2.0, 3), rng.normal()
    children = {1: (5, 6), 2: (7, 8), 5: (9, 10), 7: (11, 12)}
    for parent, keys in children.items():
        lo, hi, b = rows[parent]
        for key in keys:
            a, c = np.sort(rng.uniform(0.0, 1.0, (2, 3)), axis=0)
            rows[key] = lo + a * (hi - lo), lo + c * (hi - lo), b + rng.uniform(0.0, 0.1)
    return rows


def keyed_lp(rows, keys):
    return residual_lp(*([rows[key][i] for key in keys] for i in range(3)),
                       keys=keys)


def test_keyed_warm_start_follows_the_rows(monkeypatch):
    # keys [0, 1, 2], then 1 split into 5 and 6, then two rounds of splits
    # (2 into 7 and 8, 5 into 9 and 10, then 7 into 11 and 12) with no LP
    # between them: every LP after the first is warm started, with the
    # cold optimum, and some parents are basic and pivoted out
    pivot_outs = []
    pivot_out = relaxation.pivot_out
    monkeypatch.setattr(relaxation, "pivot_out",
                        lambda *args: pivot_outs.append(1) or pivot_out(*args))
    verdicts = set()
    for seed in range(20):
        rows, warm = keyed_rows(np.random.default_rng(seed)), relaxation.DualTableau()
        for i, keys in enumerate(([0, 1, 2], [0, 2, 5, 6], [0, 6, 8, 9, 10, 11, 12])):
            lp = keyed_lp(rows, keys)
            sol, cold = solve_feasibility(lp, warm), solve_feasibility(lp)
            assert sol.warm == (i > 0) and warm.keys.tolist() == keys
            assert sol.rho == pytest.approx(cold.rho, rel=1e-9, abs=1e-9)
            verdicts.add(sol.status)
    assert len(pivot_outs) > 0 and verdicts == {LPStatus.OPTIMAL, LPStatus.UNBOUNDED}


@pytest.mark.parametrize("saved,keys", [([0, 2], [0, 1, 2]), ([1, 2], [0, 1, 2]),
                                        ([0, 6], [0, 5, 6])])
def test_saved_rows_out_of_place_solve_cold(saved, keys):
    # the saved rows still present must be the LP's leading rows in the
    # same order; otherwise the solve is cold, bit for bit
    rows = keyed_rows(np.random.default_rng(3))
    warm = relaxation.DualTableau()
    solve_feasibility(keyed_lp(rows, saved), warm)
    lp = keyed_lp(rows, keys)
    sol, cold = solve_feasibility(lp, warm), solve_feasibility(lp)
    assert not sol.warm and sol.pivots == cold.pivots
    assert np.array_equal(sol.x1, cold.x1) and np.array_equal(sol.x2, cold.x2)
    assert sol.rho == cold.rho and warm.keys.tolist() == keys


def test_forced_fallbacks_reproduce_the_cold_run(benchmarks, monkeypatch):
    # with no column to pivot a basic parent out, every warm solve that
    # splits a basic parent falls back; split-worst splits the worst row,
    # whose multiplier is basic, so the run repeats the cold-only run
    # bit for bit
    cold_only = []
    monkeypatch.setattr(ef.solver, "solve_feasibility",
                        lambda lp, warm, tally: solve_feasibility(lp, None, tally))
    want = solve_bundled(benchmarks, "B", "split-worst")
    monkeypatch.undo()

    def solving(lp, warm, tally):
        sol = solve_feasibility(lp, warm, tally)
        cold_only.append(not sol.warm)
        return sol

    monkeypatch.setattr(relaxation, "pivot_out", lambda *args: False)
    monkeypatch.setattr(ef.solver, "solve_feasibility", solving)
    out = solve_bundled(benchmarks, "B", "split-worst")
    assert all(cold_only) and len(cold_only) == want.stats.lp_solves
    assert out.stats.split_history == want.stats.split_history
    assert np.array_equal(out.x, want.x)
    assert out.stats.pivots == want.stats.pivots


def test_overflowing_cold_tableau_raises_lp_overflow():
    # the fourth LP of round-robin on "x1 <= 1.5e308*y1 over y1 in [-1,1]
    # and -x1 <= -1": right-hand sides near the double range overflow a
    # pivot of the dual; the error names the overflow, and no tableau is
    # saved
    P = [[-1.0], [1.0], [1.0], [1.0], [1.0]]
    lp = residual_lp(P, P, [-1.0, -1.5e308, -7.5e307, 0.0, 7.5e307])
    warm = relaxation.DualTableau()
    with pytest.raises(ef.LPOverflow, match="residual LP overflow"):
        solve_feasibility(lp, warm)
    assert warm.T is None


# -- the in-place update against the concatenating one ---------------------------

def reference_pivot_out(T, basis, row, allowed):
    """The dual ratio test of `simplex.pivot_out` over the columns `allowed`
    masks, as it was before the parents' columns left ahead of it."""
    entries = T[row, :-1]
    cols = ((np.abs(entries) > simplex.EPS) & allowed).nonzero()[0]
    if not cols.size:
        return False
    simplex._pivot(T, basis, row,
                   simplex._least_ratio(T, cols, np.abs(entries[cols])),
                   np.empty_like(T))
    return True


def reference_starting_tableau(lp):
    """The dual's tableau without y columns at the slack and z basis."""
    r, C, k = lp.r, lp.eq_coeffs, lp.eq_coeffs.shape[0]
    T = np.zeros((2 * r + 2, 2 * k + 2 * r + 2))
    T[:r, :k] = -C.T
    T[r:2 * r, :k] = C.T
    T[:2 * r, k:2 * k] = -T[:2 * r, :k]
    T[:2 * r, 2 * k:-2] = np.eye(2 * r)
    T[2 * r, -2] = T[2 * r, -1] = 1.0
    T[-1, :k] = -lp.eq_rhs
    T[-1, k:2 * k] = lp.eq_rhs
    T[-1, -1] = -RHO_FLOOR
    return T, np.arange(2 * k, 2 * k + 2 * r + 1)


def reference_reoptimise(lp, T, basis, kept, tally):
    """The warm update as a new tableau: append the children's columns
    after every saved one, pivot the basic parents out over a mask, then
    gather the columns that stay."""
    r, k = lp.r, lp.eq_coeffs.shape[0]
    old = T.shape[1] - 2 * k - 2 * r - 2
    new = slice(kept.size, lp.n)
    a = np.empty((2 * r + 1, lp.n - kept.size))
    a[:r], a[r:2 * r], a[2 * r] = lp.p_lo[new].T, -lp.p_hi[new].T, 1.0
    added = T[:, old + 2 * k:old + 2 * k + 2 * r + 1] @ a
    added[-1] += lp.b[new] - RHO_FLOOR
    T = np.concatenate([T[:, :old], added, T[:, old:]], axis=1)
    basis = np.where(basis >= old, basis + a.shape[1], basis)
    allowed = np.ones(T.shape[1] - 1, dtype=bool)
    allowed[:old] = False
    allowed[kept] = True
    for row in np.flatnonzero(~allowed[basis]):
        if not reference_pivot_out(T, basis, row, allowed):
            raise ef.EFSolverError("no column to pivot a parent out")
        tally[0] += 1
    keep = np.flatnonzero(np.append(allowed, True))
    index = np.empty(T.shape[1], dtype=basis.dtype)
    index[keep] = np.arange(keep.size)
    T, basis = T[:, keep], index[basis]
    relaxation._check_finite(T)
    if (T[:-1, -1] < -simplex.EPS).any() and (T[-1, :-1] < -simplex.EPS).any():
        raise ef.EFSolverError("neither primal nor dual feasible")
    status = simplex_solve(T, basis, tally)
    relaxation._check_finite(T)
    if status is not SimplexStatus.OPTIMAL:
        raise EqualitiesInfeasible("equality system C x = d is infeasible")
    return T, basis


def reference_solve(lp, saved, warm_fails=False):
    """The solve from the saved (T, basis, keys), or cold without them or
    when `warm_fails`: the final tableau, basis, pivot count, whether it
    was warm, and the number of parents the saved tableau had."""
    tally, T, kept = [0], None, None
    if saved is not None:
        pos = lp.keys.searchsorted(saved[2])
        kept = ((lp.keys.take(pos, mode="clip") == saved[2]).nonzero()[0]
                if lp.n else pos[:0])
        if kept.size and pos[kept[-1]] != kept.size - 1:
            kept = None
    with np.errstate(over="ignore", invalid="ignore"):
        if kept is not None and not warm_fails:
            try:
                T, basis = reference_reoptimise(lp, saved[0].copy(),
                                                saved[1].copy(), kept, tally)
            except ef.EFSolverError:
                pass
        warm = T is not None
        if not warm:
            T, basis = reference_reoptimise(lp, *reference_starting_tableau(lp),
                                            np.zeros(0, dtype=np.intp), tally)
    parents = saved[2].size - kept.size if warm else 0
    return T, basis, tally[0], warm, parents


def check_against_reference(monkeypatch, forced=None):
    """Make the solver's every LP check itself against `reference_solve`
    on a copy of the tableau saved before it: the same tableau bytes,
    basis, pivot count and warmth, and x and rho bit for bit.  An LP
    during which forced[0] turns True, after forced[1] parents left by a
    pivot, is checked against a cold solve that counts those pivots too.
    Returns the list of (warm, parents) of the LPs checked."""
    seen = []
    solve = relaxation.solve_feasibility

    def checked(lp, warm=None, tally=None):
        saved = (None if warm is None or warm.T is None
                 else (warm.T.copy(), warm.basis.copy(), warm.keys.copy()))
        if forced is not None:
            forced[:] = False, 0
        sol = solve(lp, warm, tally)
        failed = forced is not None and forced[0]
        T, basis, pivots, was_warm, parents = reference_solve(lp, saved, failed)
        pivots += forced[1] if failed else 0
        if warm is not None:
            assert warm.T.tobytes() == T.tobytes()
            assert np.array_equal(warm.basis, basis)
            assert warm.keys is lp.keys
        assert (sol.pivots, sol.warm) == (pivots, was_warm)
        n, r, k = lp.n, lp.r, lp.eq_coeffs.shape[0]
        x = np.maximum(T[-1, n + 2 * k:n + 2 * k + 2 * r], 0.0)
        assert np.concatenate([sol.x2, sol.x1]).tobytes() == x.tobytes()
        assert sol.rho == float(T[-1, -2] - RHO_FLOOR)
        seen.append((sol.warm, parents))
        return sol

    monkeypatch.setattr(ef.solver, "solve_feasibility", checked)
    return seen


@pytest.mark.parametrize("name,strategy", [
    ("B", "round-robin"), ("B", "split-worst"), ("C", "split-worst"),
    ("D", "split-worst"), ("D", "split-all")])
def test_in_place_update_matches_the_concatenating_reference(
        benchmarks, monkeypatch, name, strategy):
    # the update writes into the saved tableau's buffer and drops the
    # parents' columns before pivoting them out; every LP must leave the
    # bytes the update that built a new tableau left
    seen = check_against_reference(monkeypatch)
    out = solve_bundled(benchmarks, name, strategy)
    assert out.is_solution and len(seen) == out.stats.lp_solves
    warm = [parents for was_warm, parents in seen if was_warm]
    assert len(warm) == out.stats.lp_solves - 2
    if strategy == "split-all":
        assert max(warm) > 1  # rounds that drop many parents at once
    else:
        assert set(warm) == {1}


def test_failed_update_drops_its_buffer(benchmarks, monkeypatch):
    # the update has moved columns and pivoted a parent out of the saved
    # tableau when the next parent finds no column: that LP is solved
    # cold into a new buffer, and every later LP still matches the
    # reference started from the state each one found
    want = solve_bundled(benchmarks, "B", "split-all")
    forced, calls = [False, 0], [0]
    pivot_out = relaxation.pivot_out

    def failing(T, basis, row, *rest):
        calls[0] += 1
        if calls[0] == 6:  # the second parent of the sixth LP
            forced[0] = True
            return False
        forced[1] += 1
        return pivot_out(T, basis, row, *rest)

    monkeypatch.setattr(relaxation, "pivot_out", failing)
    seen = check_against_reference(monkeypatch, forced)
    out = solve_bundled(benchmarks, "B", "split-all")
    assert calls[0] > 6 and [w for w, _ in seen].count(False) == 3
    assert not seen[5][0]
    assert out.stats.split_history == want.stats.split_history
    assert np.array_equal(out.x, want.x)


def test_parents_match_their_definition():
    # the parents are the saved keys no longer among the LP's keys; a warm
    # start needs the other saved keys to be the LP's leading keys, in
    # order; most draws are single-box splits or leave every saved key
    rng = np.random.default_rng(17)
    single = 0
    for _ in range(3000):
        saved = np.flatnonzero(rng.random(int(rng.integers(0, 12))) < 0.7)
        gone = saved[rng.random(saved.size) < rng.choice([0.0, 0.1, 0.5])]
        stay = np.setdiff1d(saved, gone)
        top = int(saved.max(initial=-1))
        added = (top + 1 + np.arange(int(rng.integers(0, 3))) if rng.random() < 0.8
                 else np.sort(rng.choice(np.arange(top + 4), int(rng.integers(0, 3)),
                                         replace=False)))
        keys = np.union1d(stay, added) if rng.random() < 0.5 else np.concatenate(
            [stay, added[~np.isin(added, stay)]])
        if (np.diff(keys) <= 0).any():
            continue
        want = np.flatnonzero(~np.isin(saved, keys))
        leading = np.array_equal(np.delete(saved, want), keys[:saved.size - want.size])
        got = relaxation._parents(keys, relaxation.DualTableau(keys=saved))
        assert (got is not None) == leading
        if leading:
            assert got.tolist() == want.tolist()
            single += want.size <= 1
    assert single > 1000


def test_buffers_take_a_shrinking_then_growing_tableau():
    # two columns and no equality: a tail of 6 columns, and the cold
    # solve of 4 rows leaves two buffers of 20 columns' room.  Then y
    # columns 19, 9, 14, 16, 24, 34, 42 (widths 25 ... 48): the buffers
    # alternate, and once the live rows fall back one can be shorter than
    # the other; each update must find room in both, stay warm and leave
    # the reference update's bytes
    rng = np.random.default_rng(29)
    rows, keys = {}, []

    def add(lo, hi, b):
        keys.append(len(rows))
        rows[len(rows)] = lo, hi, b

    for _ in range(4):
        lo = rng.normal(size=2)
        add(lo, lo + rng.uniform(0.5, 2.0, 2), rng.normal())
    warm = relaxation.DualTableau()
    for n in (4, 19, 9, 14, 16, 24, 34, 42):
        if n != len(keys):
            # leading parents leave; children with the first one's rows
            parent = rows[keys[0]]
            del keys[:max(1, len(keys) - n + 1)]
            while len(keys) < n:
                add(*parent)
        lp = keyed_lp(rows, keys)
        saved = (None if warm.T is None
                 else (warm.T.copy(), warm.basis.copy(), warm.keys.copy()))
        sol = solve_feasibility(lp, warm)
        T, basis, pivots, was_warm, _ = reference_solve(lp, saved)
        assert sol.warm == was_warm == (n != 4) and sol.pivots == pivots
        assert warm.T.tobytes() == T.tobytes() and np.array_equal(warm.basis, basis)
        assert min(warm.buf.size, warm.spare.size) >= T.size
