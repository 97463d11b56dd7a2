import itertools

import numpy as np
import pytest
import simplex_reference

import efsolver as ef
from efsolver import relaxation, simplex
from efsolver.simplex import SimplexStatus, simplex_solve


def brute_force_min(c, G, h):
    """Enumerate all basic solutions of {Gw <= h, w >= 0} and return the
    best objective (independent oracle for small LPs)."""
    c = np.asarray(c, float)
    G = np.asarray(G, float)
    h = np.asarray(h, float)
    n = c.size
    A = np.vstack([G, -np.eye(n)])
    b = np.concatenate([h, np.zeros(n)])
    best = None
    for rows in itertools.combinations(range(A.shape[0]), n):
        M = A[list(rows)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        w = np.linalg.solve(M, b[list(rows)])
        if (G @ w <= h + 1e-8).all() and (w >= -1e-8).all():
            val = float(c @ w)
            if best is None or val < best:
                best = val
    return best


def test_simple_bounded():
    res = simplex_solve([-1.0], G=[[1.0]], h=[1.0])
    assert res.status is SimplexStatus.OPTIMAL
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_iteration_limit_raises_a_typed_error(monkeypatch):
    # max w1 + w2 on w1, w2 <= 1 takes two pivots and one optimality test
    monkeypatch.setattr(simplex, "MAX_ITER", 2)
    with pytest.raises(ef.SimplexIterationLimit, match=r"\(2 pivots in one phase"):
        simplex_solve([-1.0, -1.0], G=[[1.0, 0.0], [0.0, 1.0]], h=[1.0, 1.0])
    monkeypatch.setattr(simplex, "MAX_ITER", 3)
    assert simplex_solve([-1.0, -1.0], G=[[1.0, 0.0], [0.0, 1.0]],
                         h=[1.0, 1.0]).status is SimplexStatus.OPTIMAL


def test_free_variable_lower_bounded():
    # min rho subject to rho >= 2, rho free
    res = simplex_solve([1.0], G=[[-1.0]], h=[-2.0], nonneg=[False])
    assert res.status is SimplexStatus.OPTIMAL
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)


def test_equality_constraints():
    # min x1 + x2 s.t. x1 + 2 x2 = 4, x1 - x2 = 1  ->  x = (2, 1)
    res = simplex_solve([1.0, 1.0], E=[[1, 2], [1, -1]], f=[4, 1])
    assert res.status is SimplexStatus.OPTIMAL
    assert res.x == pytest.approx([2.0, 1.0], abs=1e-9)


def test_infeasible():
    res = simplex_solve([0.0], G=[[1.0], [-1.0]], h=[1.0, -2.0])
    assert res.status is SimplexStatus.INFEASIBLE


def test_infeasible_equalities():
    res = simplex_solve([0.0], E=[[1.0], [1.0]], f=[1.0, 2.0])
    assert res.status is SimplexStatus.INFEASIBLE


def test_unbounded():
    res = simplex_solve([-1.0, 0.0], G=[[0.0, 1.0]], h=[1.0])
    assert res.status is SimplexStatus.UNBOUNDED


def test_negative_rhs_needs_phase_one():
    # x >= 3 written as -x <= -3
    res = simplex_solve([1.0], G=[[-1.0]], h=[-3.0])
    assert res.status is SimplexStatus.OPTIMAL
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_random_lps_match_vertex_enumeration(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(2, 8))
    G = rng.normal(size=(m, n))
    h = rng.uniform(0.5, 3.0, size=m)      # origin feasible
    G = np.vstack([G, np.ones(n)])         # bounding row keeps it finite
    h = np.concatenate([h, [10.0]])
    c = rng.normal(size=n)
    res = simplex_solve(c, G=G, h=h)
    assert res.status is SimplexStatus.OPTIMAL
    expected = brute_force_min(c, G, h)
    assert expected is not None
    assert res.objective == pytest.approx(expected, abs=1e-6)


def test_determinism():
    rng = np.random.default_rng(42)
    G = rng.normal(size=(6, 4))
    h = rng.uniform(0.5, 2.0, size=6)
    c = rng.normal(size=4)
    first = simplex_solve(c, G=G, h=h)
    for _ in range(3):
        again = simplex_solve(c, G=G, h=h)
        assert np.array_equal(first.x, again.x)
        assert first.objective == again.objective


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
    """A small random LP of one family; integer data in half the draws
    makes ties in the entering and leaving rules.

    A tall LP has 40-120 inequality rows.  In half of them the rows are
    facets around a sphere in the positive orthant, so the simplex walks
    along many of them and opens many slacks; equalities, some with a
    redundant copy, come in half of them.
    """
    tall = family == "tall"
    nvar = int(rng.integers(2, 8) if tall else rng.integers(1, 7))
    n_ub = int(rng.integers(40, 121) if tall else rng.integers(1, 8))
    integer = rng.random() < 0.5

    def matrix(k):
        M = (rng.integers(-3, 4, size=(k, nvar)).astype(float) if integer
             else rng.normal(size=(k, nvar)))
        M[rng.random(M.shape) < 0.3] = 0.0
        return M

    c = rng.integers(-3, 4, nvar).astype(float) if integer else rng.normal(size=nvar)
    G, h = matrix(n_ub), rng.uniform(0.5, 3.0, n_ub)
    E, f, nonneg = None, None, None
    if tall and rng.random() < 0.5:
        G = np.abs(G) + 0.1
        G /= np.linalg.norm(G, axis=1)[:, None]
        c, h = -np.abs(c), np.ones(n_ub)
    if family in ("equalities", "redundant") or (tall and rng.random() < 0.5):
        E = matrix(int(rng.integers(1, 4)))
        f = E @ np.maximum(rng.normal(size=nvar), 0.0)
        if family == "redundant" or (tall and rng.random() < 0.5):
            E = np.vstack([E, 2.0 * E[0]])
            f = np.append(f, 2.0 * f[0])
    elif family == "negative_rhs":
        h = rng.uniform(-2.0, 2.0, n_ub)
    elif family == "free":
        nonneg = list(rng.random(nvar) < 0.5)
        h = rng.uniform(-1.0, 3.0, n_ub)
    elif family == "zero_rhs":
        h = np.zeros(n_ub)
    elif family == "unbounded":
        G[:, 0] = -np.abs(G[:, 0])
        c[0] = -1.0
    elif family == "infeasible":
        G = np.vstack([G, np.ones(nvar)])
        h = np.append(h, -1.0)
    return c, G, h, E, f, nonneg


def assert_same_solve(pivots, c, G, h, E=None, f=None, nonneg=None):
    """Both simplexes give the same status, pivots, objective and x; the
    status and the pivot count."""
    ours, theirs = pivots
    ours.clear()
    theirs.clear()
    got = simplex_solve(c, G, h, E, f, nonneg=nonneg)
    want = simplex_reference.simplex_solve(c, G, h, E, f, nonneg=nonneg)
    assert got.status is want.status
    assert ours == theirs
    if want.status is SimplexStatus.OPTIMAL:
        assert got.objective == want.objective
        assert np.array_equal(got.x, want.x)
    return got.status, len(ours)


FAMILIES = {
    "inequalities": {"optimal", "unbounded"},
    "equalities": {"optimal", "unbounded", "infeasible"},
    "redundant": {"optimal", "unbounded", "infeasible"},
    "negative_rhs": {"optimal", "unbounded", "infeasible"},
    "free": {"optimal", "unbounded", "infeasible"},
    "zero_rhs": {"optimal", "unbounded"},
    "unbounded": {"unbounded"},
    "infeasible": {"infeasible"},
    "tall": {"optimal", "infeasible"},
}


@pytest.mark.parametrize("family,statuses", FAMILIES.items())
def test_sparse_pivots_match_dense_reference(pivots, family, statuses):
    rng = np.random.default_rng(list(FAMILIES).index(family))
    seen = set()
    for _ in range(150):
        status, _ = assert_same_solve(pivots, *random_lp(rng, family))
        seen.add(status.value)
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
        c, G, h, E, f, nonneg = random_lp(rng, "tall")
        n_struct, n_eq = c.size, 0 if E is None else E.shape[0]
        n_slack_end = n_struct + G.shape[0]
        widths.clear()
        assert_same_solve(pivots, c, G, h, E, f, nonneg)
        grown += max(widths, default=0) > n_struct + n_eq + 1 + simplex._SPARE
        reentered += any(n_struct <= col < n_slack_end for _, col in pivots[0])
    assert grown and reentered
    assert max(opened_at_drop) > 0


def test_degenerate_lp_reaches_bland_rule_identically(pivots):
    # every pivot from an all-zero rhs is degenerate, so more than
    # _DEGENERATE_LIMIT pivots means the Bland rule took over
    rng = np.random.default_rng(29)
    G = np.vstack([rng.integers(-3, 4, size=(80, 20)).astype(float), np.ones(20)])
    c = rng.integers(-3, 4, 20).astype(float)
    status, count = assert_same_solve(pivots, c, G, np.zeros(81))
    assert status is SimplexStatus.OPTIMAL
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
