import itertools

import numpy as np
import pytest
import simplex_reference
from scipy.optimize import linprog

import efsolver as ef
from efsolver import relaxation, simplex
from efsolver.relaxation import RHO_FLOOR
from efsolver.simplex import SimplexStatus, simplex_solve


def residual_lp(p_lo, p_hi, b, C=None, d=None, floor=True):
    """The LP `solve_feasibility` poses for the interval rows
    [p_lo, p_hi] x <= b and C x = d, over w = (x1, x2, rho - rho0):
    G = [P_hi | -P_lo | -1] plus the floor row (left out without `floor`),
    h = b + rho0 >= 0, E = [C | -C | 0] and f = d."""
    p_lo, p_hi, b = (np.asarray(a, dtype=float) for a in (p_lo, p_hi, b))
    n, r = p_lo.shape
    rho0 = -float(b.min(initial=RHO_FLOOR))
    G = np.hstack([p_hi, -p_lo, -np.ones((n, 1))])
    h = b + rho0
    if floor:
        G = np.vstack([G, -np.eye(2 * r + 1)[-1]])
        h = np.append(h, RHO_FLOOR + rho0)
    C = np.zeros((0, r)) if C is None else np.asarray(C, dtype=float)
    d = np.zeros(0) if d is None else np.asarray(d, dtype=float)
    return G, h, np.hstack([C, -C, np.zeros((len(C), 1))]), d


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
    # rho = max(x + 1, -x - 1) is least, 0, at x = -1; rho0 = 1
    res = simplex_solve(*residual_lp([[1.0], [-1.0]], [[1.0], [-1.0]], [-1.0, 1.0]))
    assert res.status is SimplexStatus.OPTIMAL
    assert res.x == pytest.approx([0.0, 1.0, -1.0], abs=1e-9)


def test_iteration_limit_raises_a_typed_error(monkeypatch):
    # the LP above takes two pivots and one optimality test
    lp = residual_lp([[1.0], [-1.0]], [[1.0], [-1.0]], [-1.0, 1.0])
    monkeypatch.setattr(simplex, "MAX_ITER", 2)
    with pytest.raises(ef.SimplexIterationLimit, match=r"\(2 pivots in one phase"):
        simplex_solve(*lp)
    monkeypatch.setattr(simplex, "MAX_ITER", 3)
    assert simplex_solve(*lp).status is SimplexStatus.OPTIMAL


def test_free_variable_lower_bounded():
    # rho >= x - 0.5 for every x, so the floor rho >= -RHO_FLOOR binds and
    # the free w[-1] = rho - rho0 = -1 + 0.5 is negative
    res = simplex_solve(*residual_lp([[1.0]], [[1.0]], [0.5]))
    assert res.status is SimplexStatus.OPTIMAL
    assert res.x[-1] == pytest.approx(-0.5, abs=1e-9)


def test_equality_constraints():
    # x1 + 2 x2 = 4, x1 - x2 = 1 fix x = (2, 1), so rho = x1 + x2 - 1 = 2
    # and w[-1] = rho - rho0 = 2 + 1
    res = simplex_solve(*residual_lp([[1.0, 1.0]], [[1.0, 1.0]], [1.0],
                                     [[1, 2], [1, -1]], [4, 1]))
    assert res.status is SimplexStatus.OPTIMAL
    assert res.x[:2] - res.x[2:4] == pytest.approx([2.0, 1.0], abs=1e-9)
    assert res.x[-1] == pytest.approx(3.0, abs=1e-9)


def test_infeasible():
    # x = -1 and x = -2: both equality rows are negated, then inconsistent
    res = simplex_solve(*residual_lp(np.zeros((0, 1)), np.zeros((0, 1)), [],
                                     [[1.0], [1.0]], [-1.0, -2.0]))
    assert res.status is SimplexStatus.INFEASIBLE


def test_infeasible_equalities():
    res = simplex_solve(*residual_lp([[0.0]], [[1.0]], [1.0],
                                     [[1.0], [1.0]], [1.0, 2.0]))
    assert res.status is SimplexStatus.INFEASIBLE


def test_unbounded():
    # without the floor row, rho >= x falls without bound as x does
    res = simplex_solve(*residual_lp([[1.0]], [[1.0]], [0.0], floor=False))
    assert res.status is SimplexStatus.UNBOUNDED


def test_negative_rhs_needs_phase_one():
    # the equality x = -3 is negated and starts with an artificial; then
    # rho >= x is -3 and the floor binds
    res = simplex_solve(*residual_lp([[1.0]], [[1.0]], [0.0], [[1.0]], [-3.0]))
    assert res.status is SimplexStatus.OPTIMAL
    assert res.x[0] - res.x[1] == pytest.approx(-3.0, abs=1e-9)
    assert res.x[-1] == pytest.approx(-RHO_FLOOR, abs=1e-9)


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
    res = simplex_solve(*lp)
    assert res.status is SimplexStatus.OPTIMAL
    expected = brute_force_min(*lp)
    assert expected is not None
    assert res.x[-1] == pytest.approx(expected, abs=1e-7)


def test_determinism():
    rng = np.random.default_rng(42)
    p_lo = rng.normal(size=(6, 4))
    C = rng.normal(size=(1, 4))
    lp = residual_lp(p_lo, p_lo + rng.uniform(0.0, 1.0, (6, 4)),
                     rng.normal(size=6), C, C @ rng.normal(size=4))
    first = simplex_solve(*lp)
    for _ in range(3):
        assert np.array_equal(first.x, simplex_solve(*lp).x)


# -- exactness of the sparse-row pivots ----------------------------------------

def record_pivots(monkeypatch, module):
    """The (row, col) of every pivot `module` makes from now on, with col
    the entering column's original id, read from the basis after the
    pivot: the compact tableau passes `_pivot` its own column index."""
    seq = []
    pivot = module._pivot

    def recording(T, basis, row, col, *rest):
        pivot(T, basis, row, col, *rest)
        seq.append((int(row), int(basis[row])))

    monkeypatch.setattr(module, "_pivot", recording)
    return seq


@pytest.fixture
def pivots(monkeypatch):
    """Pivot recorders for the sparse simplex and the dense reference."""
    return record_pivots(monkeypatch, simplex), record_pivots(monkeypatch, simplex_reference)


def random_lp(rng, family):
    """A random residual LP of one family; integer data, in half the draws
    and in all of the "integer" family, makes ties in the entering and
    leaving rules.

    A tall LP has 40-120 interval rows.  In half of them the rows are point
    rows, tangent planes of a paraboloid at points spread along the way
    from the origin to its minimum, so the simplex walks along many of
    them and opens many slacks; equalities, some with a redundant copy,
    come in half of them.  In the "floor" and "unbounded" families one
    column improves every row, so the LP is unbounded without its floor
    row, which "unbounded" leaves out.
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
    return residual_lp(p_lo, p_hi, b, C, d, floor=family != "unbounded")


LINPROG_STATUS = {0: SimplexStatus.OPTIMAL, 2: SimplexStatus.INFEASIBLE,
                  3: SimplexStatus.UNBOUNDED}


def assert_same_solve(pivots, G, h, E, f):
    """Both simplexes give the same status, pivots and x, and HiGHS the same
    status and least w[-1]; returns our result and the pivot count."""
    ours, theirs = pivots
    ours.clear()
    theirs.clear()
    k = G.shape[1]
    got = simplex_solve(G, h, E, f)
    want = simplex_reference.simplex_solve(np.eye(k)[-1], G, h, E, f,
                                           nonneg=[True] * (k - 1) + [False])
    assert got.status is want.status
    assert ours == theirs
    ref = linprog(np.eye(k)[-1], A_ub=G, b_ub=h, A_eq=E if len(E) else None,
                  b_eq=f if len(f) else None,
                  bounds=[(0, None)] * (k - 1) + [(None, None)])
    assert LINPROG_STATUS[ref.status] is got.status
    if want.status is SimplexStatus.OPTIMAL:
        assert np.array_equal(got.x, want.x)
        assert got.x[-1] == pytest.approx(ref.fun, rel=1e-9, abs=1e-7)
    return got, len(ours)


FAMILIES = {
    "inequalities": {"optimal"},
    "equalities": {"optimal"},
    "redundant": {"optimal"},
    "integer": {"optimal"},
    "floor": {"optimal"},
    "zero_rhs": {"optimal"},
    "unbounded": {"unbounded"},
    "infeasible": {"infeasible"},
    "tall": {"optimal"},
}


@pytest.mark.parametrize("family,statuses", FAMILIES.items())
def test_sparse_pivots_match_dense_reference(pivots, family, statuses):
    rng = np.random.default_rng(list(FAMILIES).index(family))
    seen = set()
    for _ in range(150):
        got, _ = assert_same_solve(pivots, *random_lp(rng, family))
        seen.add(got.status.value)
    assert seen == statuses


def test_tall_lps_cover_the_compact_layout(pivots, monkeypatch):
    # the draws of the "tall" family above, checked for what they cover:
    # more opened slacks than spare columns, an opened slack re-entering,
    # and a redundant row dropped after slacks were opened
    widths, opened_at_drop = [], []
    pivot = simplex._pivot

    def measuring(T, *rest):
        widths.append(T.shape[1])
        pivot(T, *rest)

    drop_rows = simplex._Tableau.drop_rows

    def dropping(tab, keep):
        opened_at_drop.append(int((tab.ids[:tab.width] < n_slack_end).sum()
                                  - n_struct))
        drop_rows(tab, keep)

    monkeypatch.setattr(simplex, "_pivot", measuring)
    monkeypatch.setattr(simplex._Tableau, "drop_rows", dropping)
    rng = np.random.default_rng(list(FAMILIES).index("tall"))
    grown = reentered = 0
    for _ in range(150):
        G, h, E, f = random_lp(rng, "tall")
        n_struct = G.shape[1] + 1
        n_slack_end = n_struct + G.shape[0]
        widths.clear()
        assert_same_solve(pivots, G, h, E, f)
        grown += max(widths, default=0) > n_struct + len(E) + 1 + simplex._SPARE
        reentered += any(n_struct <= col < n_slack_end for _, col in pivots[0])
    assert grown and reentered
    assert max(opened_at_drop) > 0


def test_degenerate_lp_reaches_bland_rule_identically(pivots):
    # with an all-zero rhs rho stays 0, so every pivot is degenerate and
    # more than _DEGENERATE_LIMIT pivots means the Bland rule took over
    rng = np.random.default_rng(29)
    P = rng.integers(-3, 4, size=(80, 20)).astype(float)
    got, count = assert_same_solve(pivots, *residual_lp(P, P, np.zeros(80)))
    assert got.status is SimplexStatus.OPTIMAL
    assert count > simplex._DEGENERATE_LIMIT


# (splits, LP solves, simplex pivots) of the dense simplex these pivots
# must reproduce
PINNED_PIVOTS = [
    ("A", "split-all", (60, 5, 31)),
    ("B", "split-all", (104, 10, 58)),
    ("C", "split-all", (91, 8, 39)),
    ("D", "split-all", (458, 9, 109)),
    ("A", "split-worst", (18, 19, 116)),
    ("B", "split-worst", (98, 99, 865)),
    ("C", "split-worst", (56, 57, 308)),
    ("A", "round-robin", (43, 44, 395)),
    ("eq_guarded", "split-all", (1, 2, 6)),
]


@pytest.mark.parametrize("name,strategy,counts", PINNED_PIVOTS)
def test_pinned_pivot_counts(benchmarks, monkeypatch, name, strategy, counts):
    pivots = record_pivots(monkeypatch, simplex)
    out = ef.solve(benchmarks[name], ef.SolveConfig(
        heuristic=ef.HeuristicConfig(strategy=ef.Strategy.from_name(strategy)),
        max_splits=5000))
    assert out.is_solution
    assert (out.stats.splits, out.stats.lp_solves, len(pivots)) == counts


def test_tableau_width_follows_pivots_not_rows(benchmarks, monkeypatch):
    # round-robin B grows to over 570 rows; the compact tableau holds the
    # 2r+2 structural columns, the equality's artificial, the rhs and one
    # slack per pivot so far (the current pivot's included)
    shapes = []
    solve, pivot = relaxation.simplex_solve, simplex._pivot

    def solving(*args, **kwargs):
        shapes.append([])
        return solve(*args, **kwargs)

    def pivoting(T, *rest):
        shapes[-1].append(T.shape)
        pivot(T, *rest)

    monkeypatch.setattr(relaxation, "simplex_solve", solving)
    monkeypatch.setattr(simplex, "_pivot", pivoting)
    problem = benchmarks["B"]
    out = ef.solve(problem, ef.SolveConfig(
        heuristic=ef.HeuristicConfig(strategy=ef.Strategy.ROUND_ROBIN),
        max_splits=5000))
    assert out.is_solution and out.stats.splits == 568
    r = len(problem.x_vars)
    assert max(rows for one in shapes for rows, _ in one) > 570
    for one in shapes:
        for k, (_, width) in enumerate(one):
            assert width <= 2 * r + 3 + k + 2
