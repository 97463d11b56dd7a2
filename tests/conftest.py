import itertools
from dataclasses import dataclass

import numpy as np
import pytest

import efsolver as ef
from efsolver.benchmarks import benchmark_names, load_benchmark
from efsolver.intervals import Box, Interval, halves
from efsolver.relaxation import rohn_transform

# the two-branch illustrating problem used across parser/simplifier tests
TWO_BRANCH_TEXT = """
exists x1 x2 ;
forall-vars y1 y2 ;
branch y1 in [0,1], y2 in [-1,1] :
  y1 >= y2 or x1*sin(y1)*y2 + x2*y1^2*y2 <= 0 ;
branch y1 in [0,1], y2 in [-1,1] :
  y1 < y2 or x1*cos(y1)*y2 + x2*y1*y2^2 <= 0 ;
"""


@pytest.fixture(scope="session")
def two_branch_problem():
    return ef.parse_problem(TWO_BRANCH_TEXT)


@pytest.fixture(scope="session")
def benchmarks():
    return {name: load_benchmark(name) for name in benchmark_names()}


def box_env(box):
    """The box as the variable scope of the tree walk `Expr.interval`."""
    return dict(zip(box.names, box.intervals))


def parse_expr(text, names=("y1", "y2")):
    """`text` as the problem parser reads it: the body of the guard
    `text <= 0` of a one-branch problem over the universal `names`."""
    dims = ", ".join(f"{n} in [0,1]" for n in names)
    problem = ef.parse_problem(f"exists x1 ; forall-vars {' '.join(names)} ; "
                               f"branch {dims} : {text} <= 0 ;")
    return problem.branches[0].formula.body


def box_halves(box, dim):
    """The two halves of box at the midpoint of dimension dim, as Boxes."""
    return tuple(Box.from_endpoints(box.names, *half)
                 for half in halves(*box.endpoints(), dim))


def sample_points(box, rng, n):
    """n uniform random points of the box, as variable assignments."""
    return [{name: iv.lo + rng.random() * iv.width if iv.width > 0 else iv.lo
             for name, iv in zip(box.names, box.intervals)} for _ in range(n)]


def benchmark_coefficient_exprs(problem):
    """All (expr, box) pairs appearing in a problem's linear atoms."""
    pairs = []
    for br in problem.branches:
        for leaf in ef.model.formula_leaves(br.formula):
            if isinstance(leaf, ef.Linear):
                for _, coeff in leaf.coeffs:
                    pairs.append((coeff, br.box))
                pairs.append((leaf.rhs, br.box))
            elif isinstance(leaf, ef.Guard):
                pairs.append((leaf.body, br.box))
    return pairs


@dataclass
class EndpointSystem:
    """An interval system P x <= q as the endpoint arrays the solver keeps
    for its live rows: p_lo, p_hi (n x r) and q_lo, q_hi (n)."""

    p_lo: np.ndarray
    p_hi: np.ndarray
    q_lo: np.ndarray
    q_hi: np.ndarray

    @classmethod
    def of(cls, rows, r=None):
        """rows: (coefficient intervals, rhs interval) pairs, each interval
        an Interval or a (lo, hi) pair; r is needed only without rows."""
        ivs = [([c if isinstance(c, Interval) else Interval(*c) for c in coeffs],
                q if isinstance(q, Interval) else Interval(*q))
               for coeffs, q in rows]
        r = len(ivs[0][0]) if ivs else r
        return cls(np.array([[c.lo for c in cs] for cs, _ in ivs]).reshape(-1, r),
                   np.array([[c.hi for c in cs] for cs, _ in ivs]).reshape(-1, r),
                   np.array([q.lo for _, q in ivs]), np.array([q.hi for _, q in ivs]))

    @property
    def r(self):
        return self.p_lo.shape[1]

    @property
    def p_width(self):
        return self.p_hi - self.p_lo

    @property
    def q_width(self):
        return self.q_hi - self.q_lo

    @property
    def improvable(self):
        """Rows with an enclosure of positive width, as the solver's
        live-box table marks them."""
        return (self.p_width > 0).any(axis=1) | (self.q_width > 0)

    def lp(self, eq_coeffs=None, eq_rhs=None):
        if eq_coeffs is None:
            eq_coeffs, eq_rhs = np.zeros((0, self.r)), np.zeros(0)
        return rohn_transform(self.p_lo, self.p_hi, self.q_lo, eq_coeffs, eq_rhs,
                              np.arange(len(self.q_lo)))


def random_interval_system(rng, r=None, n=None, width_min=0.1,
                           width_max=2.0) -> EndpointSystem:
    r = r if r is not None else int(rng.integers(1, 4))
    n = n if n is not None else int(rng.integers(1, 5))
    rows = []
    for i in range(n):
        coeffs = []
        for _ in range(r):
            c = rng.uniform(-2, 2)
            w = rng.uniform(width_min, width_max)
            coeffs.append(Interval(c - w / 2, c + w / 2))
        q = rng.uniform(-2, 2)
        rows.append((coeffs, Interval.point(q)))
    return EndpointSystem.of(rows)


def _monomial(rng, y_vars, degree_max=3):
    coeff = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
    e = ef.Const(coeff)
    total = 0
    for name in y_vars:
        if total >= degree_max:
            break
        d = int(rng.integers(0, degree_max - total + 1))
        total += d
        if d == 1:
            e = ef.Mul(e, ef.Var(name))
        elif d > 1:
            e = ef.Mul(e, ef.Pow(ef.Var(name), d))
    return e


def random_robust_problem(rng, margin=1e-3):
    """A solvable problem with a certified robustness margin.

    The right-hand side is set to (certified upper bound of the atom at a
    reference point x*) + margin, where the bound comes from interval
    evaluation over a 4-per-dimension cell decomposition.  x* then
    satisfies every branch with at least `margin` to spare, so the
    instance is robust and the solver must terminate.
    """
    r = int(rng.integers(1, 4))
    s = int(rng.integers(1, 3))
    x_vars = tuple(f"x{j + 1}" for j in range(r))
    y_vars = tuple(f"y{k + 1}" for k in range(s))
    x_star = rng.uniform(-2, 2, size=r)

    n_branches = int(rng.integers(1, 3))
    branches = []
    for _ in range(n_branches):
        dims = []
        for name in y_vars:
            lo = float(rng.uniform(-1.0, 0.5))
            dims.append((name, ef.Interval(lo, lo + float(rng.uniform(0.4, 1.0)))))
        box = ef.Box.of(*dims)

        coeffs = tuple(
            (x_vars[j], _monomial(rng, y_vars)) for j in range(r))
        total = ef.Const(0.0)
        for (name, coeff), xv in zip(coeffs, x_star):
            total = ef.Add(total, ef.Mul(ef.Const(float(xv)), coeff))
        upper = -np.inf
        for cell in _cells(box, 4):
            upper = max(upper, ef.enclose(total, cell).hi)
        leaf = ef.Linear(coeffs, ef.Const(float(upper + margin)))
        branches.append(ef.Branch(box, leaf))

    equalities, eq_rhs = (), ()
    if r > 1 and rng.random() < 0.3:
        row = [0.0] * r
        row[0] = 1.0
        equalities, eq_rhs = (tuple(row),), (float(x_star[0]),)
    problem = ef.Problem(x_vars, y_vars, tuple(branches), equalities, eq_rhs)
    assert not ef.validate_problem(problem)
    return problem, x_star


def _cells(box, per_dim):
    axes = []
    for iv in box.intervals:
        edges = np.linspace(iv.lo, iv.hi, per_dim + 1)
        axes.append([Interval(float(a), float(b))
                     for a, b in zip(edges[:-1], edges[1:])])
    for combo in itertools.product(*axes):
        yield ef.Box(box.names, tuple(combo))


def grid_min_violation(sys: EndpointSystem, lo=-5.0, hi=5.0, step=0.05,
                       center=None):
    """Brute-force oracle: min over a grid of x of the worst adversarial
    row violation (<= 0 at some grid point means solvable).

    `center` shifts the search window per coordinate (solutions of
    unbounded instances can lie far from the origin); the feasibility
    check at each grid point is direct endpoint arithmetic either way.
    """
    r = sys.r
    if center is None:
        center = np.zeros(r)
    p_hi, p_lo, b = sys.p_hi, sys.p_lo, sys.q_lo
    base = np.arange(lo, hi + step / 2, step)
    axes = [base + float(np.round(center[j] / step) * step) for j in range(r)]
    best = np.inf
    if r == 1:
        chunks = [axes[0].reshape(-1, 1)]
    else:
        rest = np.array(list(itertools.product(*axes[1:])))
        chunks = ((np.hstack([np.full((len(rest), 1), v), rest]) for v in axes[0]))
    for X in chunks:
        pos = np.maximum(X, 0.0)
        neg = np.minimum(X, 0.0)
        worst = (pos @ p_hi.T + neg @ p_lo.T - b).max(axis=1)
        best = min(best, float(worst.min()))
    return best
