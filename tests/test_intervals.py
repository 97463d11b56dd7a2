import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efsolver import intervals
from efsolver.errors import DomainError, EFSolverError, SplitDegenerate
from efsolver.expr import enclose
from efsolver.intervals import Box, Interval
from efsolver.parsing import parse_expression

from conftest import sample_points


def test_mul_endpoint_combinations():
    r = Interval(-1, 3) * Interval(-3, 1)
    assert r.lo == pytest.approx(-9, abs=1e-12)
    assert r.hi == pytest.approx(3, abs=1e-12)


def test_underflowing_product_is_rounded_outward():
    # 1e-300 * 1e-300 underflows to 0.0 and ties with the exact 0 * 1e-300;
    # the exact range [0, 1e-600] needs the upper endpoint rounded up
    lo, hi = intervals.mul(0.0, 1e-300, 1e-300, 1e-300)
    assert lo <= 0.0 and hi > 0.0
    lo, hi = intervals.mul(-1e-300, 0.0, 1e-300, 1e-300)
    assert lo < 0.0 and hi >= 0.0
    # a zero factor alone keeps the zero endpoint exact
    assert intervals.mul(0.0, 1.0, 0.0, 1.0)[0] == 0.0


tiny = (st.floats(-1e-300, 1e-300, allow_nan=False)
        | st.floats(-1e-160, 1e-160, allow_nan=False)
        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
        | st.floats(-1e3, 1e3, allow_nan=False))


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(a=st.tuples(tiny, tiny), b=st.tuples(tiny, tiny))
def test_mul_encloses_the_exact_products(a, b):
    (alo, ahi), (blo, bhi) = sorted(a), sorted(b)
    lo, hi = intervals.mul(alo, ahi, blo, bhi)
    exact = [Fraction(x) * Fraction(y) for x in (alo, ahi) for y in (blo, bhi)]
    assert Fraction(lo) <= min(exact) and max(exact) <= Fraction(hi)


def test_sin_monotone_piecewise():
    r = Interval(0.0, math.pi).sin()
    assert r.hi == 1.0
    assert r.lo == pytest.approx(0.0, abs=1e-12)
    # no extremum inside: endpoint values
    r = Interval(0.1, 1.0).sin()
    assert r.lo == pytest.approx(math.sin(0.1), rel=1e-12)
    assert r.hi == pytest.approx(math.sin(1.0), rel=1e-12)
    # full period
    assert Interval(0, 7).sin() == Interval(-1, 1)


def test_cos_extrema():
    r = Interval(-1.0, 1.0).cos()
    assert r.hi == 1.0
    assert r.lo == pytest.approx(math.cos(1.0), rel=1e-12)
    r = Interval(3.0, 3.5).cos()
    assert r.lo == -1.0


def test_even_power_of_symmetric_interval():
    r = Interval(-1, 1).power(2)
    assert r.lo == 0.0
    assert r.hi == pytest.approx(1.0, rel=1e-12)


def test_odd_power_preserves_sign():
    r = Interval(-2, 3).power(3)
    assert r.lo == pytest.approx(-8, rel=1e-12)
    assert r.hi == pytest.approx(27, rel=1e-12)


def test_power_validates_exponent():
    with pytest.raises(ValueError):
        Interval(0, 1).power(0)


def test_division_by_zero_interval_raises():
    with pytest.raises(DomainError):
        Interval(1, 2) / Interval(-1, 1)
    r = Interval(1, 2) / Interval(2, 4)
    assert r.lo == pytest.approx(0.25, rel=1e-12)
    assert r.hi == pytest.approx(1.0, rel=1e-12)


def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(DomainError, match="double range"):
        Interval(0, math.inf)
    with pytest.raises(DomainError, match="double range"):
        Interval(1e308, 1e308) + Interval(1e308, 1e308)


def test_domain_error_is_package_and_value_error():
    assert issubclass(DomainError, EFSolverError)
    assert issubclass(DomainError, ValueError)
    with pytest.raises(ValueError):
        Interval(math.nan, 0.0)


def test_point_arithmetic_stays_exact():
    z = Interval.point(0.0)
    assert z + z == Interval.point(0.0)
    assert z * Interval(-5, 7) == Interval.point(0.0)
    assert Interval.point(0.0).power(2) == Interval.point(0.0)


SAMPLED = [
    ("y1*y2 + sin(y1)", {"y1": (0.0, 2.0), "y2": (-1.0, 1.0)}),
    ("2*y1^3*y2 - 2*y1^2 + y1", {"y1": (0.8, 1.2), "y2": (0.3, 0.49)}),
    ("cos(y1)^2 / (y2 + 2)", {"y1": (-3.0, 3.0), "y2": (0.0, 1.0)}),
    ("y1^4 - y1^2*y2 + 0.5", {"y1": (-1.5, 0.5), "y2": (-2.0, -0.5)}),
]


@pytest.mark.parametrize("text,dims", SAMPLED)
def test_fundamental_containment(text, dims):
    # t(y) must lie inside the enclosure for 10^4 random sample points
    expr = parse_expression(text)
    box = Box.of(*((n, dims[n]) for n in dims))
    enclosure = enclose(expr, box)
    rng = np.random.default_rng(12345)
    slack = 1e-10 * max(1.0, abs(enclosure.lo), abs(enclosure.hi))
    for point in sample_points(box, rng, 10_000):
        v = expr.evaluate(point)
        assert enclosure.lo - slack <= v <= enclosure.hi + slack


@pytest.mark.parametrize("text,dims", SAMPLED[:2])
def test_inclusion_monotonicity(text, dims):
    expr = parse_expression(text)
    box = Box.of(*((n, dims[n]) for n in dims))
    outer = enclose(expr, box)
    rng = np.random.default_rng(7)
    inner_box = box
    for _ in range(6):
        dim = int(rng.integers(0, len(box)))
        lo_child, hi_child = inner_box.split(dim)
        inner_box = lo_child if rng.random() < 0.5 else hi_child
        inner = enclose(expr, inner_box)
        assert outer.lo - 1e-12 <= inner.lo and inner.hi <= outer.hi + 1e-12
        outer = inner


def test_enclosure_width_converges_under_bisection(benchmarks):
    # 20 successive midpoint bisections shrink the enclosure width below
    # 1e-3 of the original one for the benchmark coefficient expressions
    problem = benchmarks["A"]
    br = problem.branches[0]
    for _, coeff in br.formula.atom.coeffs:
        box = br.box
        w0 = enclose(coeff, box).width
        for k in range(20):
            box = box.split(k % len(box))[0]
        assert enclose(coeff, box).width <= 1e-3 * w0


def test_split_box_midpoint():
    box = Box.of(("y", Interval(0, 1)))
    lo, hi = box.split(0)
    assert lo.intervals[0] == Interval(0, 0.5)
    assert hi.intervals[0] == Interval(0.5, 1)


def test_split_box_leaves_other_dims():
    box = Box.of(("y1", Interval(0, 1)), ("y2", Interval(-1, 1)))
    lo, hi = box.split(1)
    assert lo.interval("y2") == Interval(-1, 0)
    assert hi.interval("y2") == Interval(0, 1)
    assert lo.interval("y1") == hi.interval("y1") == Interval(0, 1)


def test_split_zero_width_raises():
    box = Box.of(("y", Interval(2, 2)))
    with pytest.raises(SplitDegenerate):
        box.split(0)


def test_split_at_point_outside_raises():
    # one ulp wide: the midpoint rounds onto lo, outside the open interval
    box = Box.of(("y", Interval(1.0, math.nextafter(1.0, 2.0))))
    assert box.intervals[0].mid == 1.0
    with pytest.raises(SplitDegenerate):
        box.split(0)


def test_split_halves_widths():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lo = rng.uniform(-5, 5)
        w = rng.uniform(0.1, 4)
        box = Box.of(("a", Interval(lo, lo + w)), ("b", Interval(0, 1)))
        l, h = box.split(0)
        assert l.intervals[0].width == pytest.approx(w / 2, rel=1e-9)
        assert h.intervals[0].width == pytest.approx(w / 2, rel=1e-9)
        assert l.intervals[0].hi == h.intervals[0].lo


def test_box_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Box.of(("y", Interval(0, 1)), ("y", Interval(0, 2)))
    with pytest.raises(ValueError):
        Box((), ())


def test_midpoint_of_interval_whose_endpoint_sum_overflows():
    iv = Interval(1e308, 1.7e308)
    assert math.isinf(iv.lo + iv.hi)
    assert iv.lo < iv.mid < iv.hi
    assert iv.mid == 0.5 * 1e308 + 0.5 * 1.7e308
    lower, upper = Box.of(("y", iv)).split(0)
    assert lower.intervals[0] == Interval(1e308, iv.mid)
    assert upper.intervals[0] == Interval(iv.mid, 1.7e308)
    wide = Interval(-1.7e308, 1.7e308)
    assert wide.mid == 0.0


def test_midpoint_unchanged_where_the_sum_is_finite():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = sorted(rng.uniform(-1e6, 1e6, size=2) * 10.0 ** rng.integers(-5, 300))
        assert Interval(float(a), float(b)).mid == 0.5 * (float(a) + float(b))
