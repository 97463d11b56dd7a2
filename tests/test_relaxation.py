import numpy as np
import pytest
from scipy.optimize import linprog

from efsolver.errors import EqualitiesInfeasible
from efsolver.intervals import Interval
from efsolver.relaxation import (RHO_FLOOR, LPStatus, adversarial_lhs,
                                 residual_vector, solve_feasibility)

from conftest import EndpointSystem, grid_min_violation, random_interval_system


def one_row(c1, c2, q):
    return EndpointSystem.of([((c1, c2), q)])


def test_endpoint_transform_of_straddling_row():
    lp = one_row((-1, 3), (-3, 1), (-2, -2)).lp()
    # LP columns carry (3, 1) for x1 and (1, 3) for x2
    assert lp.p_hi.tolist() == [[3.0, 1.0]]
    assert (-lp.p_lo).tolist() == [[1.0, 3.0]]
    assert lp.b.tolist() == [-2.0]


def test_transform_point_intervals():
    lp = EndpointSystem.of([(((2, 2),), (5, 5))]).lp()
    assert lp.p_hi.tolist() == [[2.0]] and lp.p_lo.tolist() == [[2.0]]
    assert lp.b.tolist() == [5.0]


def test_rhs_takes_lower_endpoint():
    assert EndpointSystem.of([(((0, 1),), (-3, 7))]).lp().b.tolist() == [-3.0]


def test_motivating_row_residual_two():
    lp = one_row((-1, 3), (-3, 1), (-2, -2)).lp()
    sol = solve_feasibility(lp)
    assert sol.rho == pytest.approx(2.0, abs=1e-7)
    assert np.abs(sol.x1).max() <= 1e-7 and np.abs(sol.x2).max() <= 1e-7
    assert residual_vector(lp, sol) == pytest.approx([2.0], abs=1e-7)


def test_shrunk_row_becomes_solvable():
    sys = one_row((2, 3), (-3, 1), (-2, -2))
    sol = solve_feasibility(sys.lp())
    assert sol.rho <= 0
    # the certifying point satisfies the row at its adversarial endpoints
    assert adversarial_lhs(sys.p_lo, sys.p_hi, sol.x)[0] <= -2 + 1e-9


def test_unbounded_direction_reported():
    sol = solve_feasibility(EndpointSystem.of([(((1, 2),), (5, 5))]).lp())
    assert sol.status is LPStatus.UNBOUNDED
    assert sol.rho <= 0


def test_no_rows_with_equality():
    # only the floor row is left, so the floor binds
    lp = EndpointSystem.of([], r=1).lp(np.array([[1.0]]), np.array([1.0]))
    sol = solve_feasibility(lp)
    assert sol.rho == -RHO_FLOOR and sol.status is LPStatus.UNBOUNDED
    assert (sol.x1 - sol.x2)[0] == pytest.approx(1.0, abs=1e-9)


def test_equalities_infeasible_raises():
    lp = EndpointSystem.of([(((0, 1),), (1, 1))]).lp(
        np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    with pytest.raises(EqualitiesInfeasible):
        solve_feasibility(lp)


def test_equality_carried_exactly():
    # x1 pinned to 1 forces rho = p_hi - b even though x = 0 would be better
    lp = EndpointSystem.of([(((-1, 3),), (-2, -2))]).lp(
        np.array([[1.0]]), np.array([1.0]))
    sol = solve_feasibility(lp)
    assert (sol.x1 - sol.x2)[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.rho == pytest.approx(5.0, abs=1e-7)


def test_identical_rows_equal_residuals():
    lp = EndpointSystem.of([(((-1, 3), (-3, 1)), (-2, -2))] * 2).lp()
    sol = solve_feasibility(lp)
    d = residual_vector(lp, sol)
    assert d[0] == pytest.approx(d[1], abs=1e-9)


def test_residual_max_equals_rho():
    rng = np.random.default_rng(11)
    for _ in range(40):
        lp = random_interval_system(rng).lp()
        sol = solve_feasibility(lp)
        d = residual_vector(lp, sol)
        if sol.status is LPStatus.OPTIMAL:
            assert d.max() == pytest.approx(sol.rho, abs=1e-7)
        else:
            # the floor binds: rho = -RHO_FLOOR bounds every residual
            assert sol.rho == pytest.approx(-RHO_FLOOR, abs=1e-9)
            assert d.max() <= sol.rho + 1e-9
        if sol.rho <= 0:
            assert (d <= 1e-9).all()


def test_complementarity_at_optimum():
    # with strictly positive widths, x1_j and x2_j are never both nonzero
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 60:
        sol = solve_feasibility(random_interval_system(rng, width_min=0.1).lp())
        if sol.status is not LPStatus.OPTIMAL:
            continue
        assert np.minimum(sol.x1, sol.x2).max() <= 1e-7
        checked += 1


def test_solvability_certificate_sound():
    rng = np.random.default_rng(31)
    found = 0
    while found < 25:
        sys = random_interval_system(rng)
        sol = solve_feasibility(sys.lp())
        if sol.rho > 0:
            continue
        found += 1
        assert (adversarial_lhs(sys.p_lo, sys.p_hi, sol.x) <= sys.q_lo + 1e-7).all()


def test_grid_oracle_agreement_small():
    rng = np.random.default_rng(47)
    agreements = 0
    while agreements < 15:
        sys = random_interval_system(rng, r=int(rng.integers(1, 3)))
        sol = solve_feasibility(sys.lp())
        if abs(sol.rho) <= 1e-3:
            continue
        oracle = grid_min_violation(sys)
        if abs(oracle) <= 1e-3:
            continue
        assert (sol.rho <= 0) == (oracle <= 0)
        agreements += 1


def test_monotone_under_interval_shrink():
    rng = np.random.default_rng(53)
    for _ in range(25):
        sys = random_interval_system(rng)
        base = solve_feasibility(sys.lp()).rho
        rows = []
        for i in range(len(sys.q_lo)):
            coeffs = [Interval(lo, hi) for lo, hi in zip(sys.p_lo[i], sys.p_hi[i])]
            tighter = tuple(
                Interval(iv.lo + 0.25 * rng.random() * iv.width,
                         iv.hi - 0.25 * rng.random() * iv.width)
                for iv in coeffs)
            rows.append((tighter, (sys.q_lo[i], sys.q_hi[i])))
        shrunk = EndpointSystem.of(rows)
        assert solve_feasibility(shrunk.lp()).rho <= base + 1e-7


def adversarial_row_value(coeffs, x):
    """Reference: sup over p in the interval coefficients of p . x."""
    total = 0.0
    for iv, xj in zip(coeffs, x):
        total += iv.hi * xj if xj >= 0 else iv.lo * xj
    return total


def test_adversarial_lhs_matches_scalar_reference():
    rng = np.random.default_rng(61)
    for _ in range(50):
        sys = random_interval_system(rng, r=int(rng.integers(1, 9)))
        x = rng.uniform(-3, 3, size=sys.r) * (rng.random(sys.r) < 0.8)
        lhs = adversarial_lhs(sys.p_lo, sys.p_hi, x)
        for i in range(len(sys.q_lo)):
            coeffs = [Interval(lo, hi) for lo, hi in zip(sys.p_lo[i], sys.p_hi[i])]
            assert lhs[i] == adversarial_row_value(coeffs, x)  # bit for bit


@pytest.mark.parametrize("with_equalities", [False, True])
def test_residual_lp_matches_scipy_linprog(with_equalities):
    """rho agrees with HiGHS on the same LP without the floor: min rho s.t.
    Pbar x1 - Punder x2 - rho <= q_lo, C (x1 - x2) = d, x1, x2 >= 0.
    The floored solve reports UNBOUNDED exactly when that LP is unbounded
    or its minimum is at or below -RHO_FLOOR."""
    rng = np.random.default_rng(31 + with_equalities)
    outcomes = set()
    for _ in range(150):
        system = random_interval_system(rng)
        n, r = system.p_lo.shape
        C = d = None
        A_eq = b_eq = None
        if with_equalities:
            C = rng.normal(size=(int(rng.integers(1, r + 1)), r))
            d = C @ rng.uniform(-1.0, 1.0, r)
            A_eq, b_eq = np.hstack([C, -C, np.zeros((len(C), 1))]), d
        sol = solve_feasibility(system.lp(C, d))
        ref = linprog(np.eye(2 * r + 1)[-1],
                      A_ub=np.hstack([system.p_hi, -system.p_lo, -np.ones((n, 1))]),
                      b_ub=system.q_lo, A_eq=A_eq, b_eq=b_eq,
                      bounds=[(0, None)] * (2 * r) + [(None, None)])
        assert ref.status in (0, 3)
        floored = ref.status == 3 or ref.fun <= -RHO_FLOOR
        assert (sol.status is LPStatus.UNBOUNDED) == floored
        if floored:
            assert sol.rho == pytest.approx(-RHO_FLOOR, abs=1e-9)
        else:
            assert sol.rho == pytest.approx(ref.fun, abs=1e-7)
        outcomes.add((ref.status, floored))
    assert outcomes == {(0, False), (0, True), (3, True)}
