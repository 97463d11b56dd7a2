import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efsolver import intervals
from efsolver.errors import DomainError, EFSolverError, SplitDegenerate
from efsolver.expr import enclose
from efsolver.intervals import Box, Interval, halves

from conftest import box_halves, parse_expr, sample_points


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


# The float-level helpers are written without calls, so that a tape kernel
# runs them fast.  These references state each rule with min, max and
# helper calls instead; the two must agree bit for bit, signed zeros and
# error messages included.

def _ref_sum(a, b, way):
    s = a + b
    t = s - a
    return s if (a - (s - t)) + (b - t) == 0.0 else math.nextafter(s, way)


def _ref_checked(lo, hi):
    if lo == -math.inf or hi == math.inf:
        raise intervals._overflow(lo, hi)
    return lo, hi


def _ref_mul(alo, ahi, blo, bhi):
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    lo, hi = min(products), max(products)
    a = min(abs(alo) or math.inf, abs(ahi) or math.inf)
    b = min(abs(blo) or math.inf, abs(bhi) or math.inf)
    exact_zero = (lo == 0.0 or hi == 0.0) and a * b != 0.0
    if lo != 0.0 or not exact_zero:
        lo = math.nextafter(lo, -math.inf)
    if hi != 0.0 or not exact_zero:
        hi = math.nextafter(hi, math.inf)
    return _ref_checked(lo, hi)


def _ref_power(lo, hi, n):
    def pow_round(x, way):
        v = intervals._pow(x, n)
        return v if x == 0.0 else math.nextafter(v, way)
    if n == 1:
        return lo, hi
    if n % 2 == 1:
        return _ref_checked(pow_round(lo, -math.inf), pow_round(hi, math.inf))
    if lo >= 0.0:
        return _ref_checked(max(0.0, pow_round(lo, -math.inf)), pow_round(hi, math.inf))
    if hi <= 0.0:
        return _ref_checked(max(0.0, pow_round(hi, -math.inf)), pow_round(lo, math.inf))
    return _ref_checked(0.0, pow_round(max(-lo, hi), math.inf))


REFERENCES = [
    (intervals.neg, lambda alo, ahi: (-ahi, -alo), 2),
    (intervals.add, lambda alo, ahi, blo, bhi: _ref_checked(
        _ref_sum(alo, blo, -math.inf), _ref_sum(ahi, bhi, math.inf)), 4),
    (intervals.sub, lambda alo, ahi, blo, bhi: _ref_checked(
        _ref_sum(alo, -bhi, -math.inf), _ref_sum(ahi, -blo, math.inf)), 4),
    (intervals.mul, _ref_mul, 4),
] + [(lambda alo, ahi, n=n: intervals.power(alo, ahi, n),
      lambda alo, ahi, n=n: _ref_power(alo, ahi, n), 2) for n in range(1, 6)]

extreme = (tiny | st.floats(-1e160, 1e160, allow_nan=False)
           | st.sampled_from([1.7e308, -1.7e308, 1e-310, -1e-310, 1.0, -1.0]))


def _outcome(f, args):
    try:
        return tuple(v.hex() for v in f(*args))
    except DomainError as e:
        return f"DomainError: {e}"


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(a=st.tuples(extreme, extreme), b=st.tuples(extreme, extreme))
def test_helpers_match_their_references_bit_for_bit(a, b):
    args = (*sorted(a), *sorted(b))
    for helper, reference, arity in REFERENCES:
        assert _outcome(helper, args[:arity]) == _outcome(reference, args[:arity])


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
    expr = parse_expr(text)
    box = Box.of(*((n, dims[n]) for n in dims))
    enclosure = enclose(expr, box)
    rng = np.random.default_rng(12345)
    slack = 1e-10 * max(1.0, abs(enclosure.lo), abs(enclosure.hi))
    for point in sample_points(box, rng, 10_000):
        v = expr.evaluate(point)
        assert enclosure.lo - slack <= v <= enclosure.hi + slack


@pytest.mark.parametrize("text,dims", SAMPLED[:2])
def test_inclusion_monotonicity(text, dims):
    expr = parse_expr(text)
    box = Box.of(*((n, dims[n]) for n in dims))
    outer = enclose(expr, box)
    rng = np.random.default_rng(7)
    inner_box = box
    for _ in range(6):
        dim = int(rng.integers(0, len(box)))
        lo_child, hi_child = box_halves(inner_box, dim)
        inner_box = lo_child if rng.random() < 0.5 else hi_child
        inner = enclose(expr, inner_box)
        assert outer.lo - 1e-12 <= inner.lo and inner.hi <= outer.hi + 1e-12
        outer = inner


def test_enclosure_width_converges_under_bisection(benchmarks):
    # 20 successive midpoint bisections shrink the enclosure width below
    # 1e-3 of the original one for the benchmark coefficient expressions
    problem = benchmarks["A"]
    br = problem.branches[0]
    for _, coeff in br.formula.coeffs:
        box = br.box
        w0 = enclose(coeff, box).width
        for k in range(20):
            box = box_halves(box, k % len(box))[0]
        assert enclose(coeff, box).width <= 1e-3 * w0


def test_split_box_midpoint():
    assert halves((0.0,), (1.0,), 0) == (((0.0,), (0.5,)), ((0.5,), (1.0,)))


def test_split_box_leaves_other_dims():
    lower, upper = halves((0.0, -1.0), (1.0, 1.0), 1)
    assert lower == ((0.0, -1.0), (1.0, 0.0))
    assert upper == ((0.0, 0.0), (1.0, 1.0))


def test_split_zero_width_raises():
    with pytest.raises(SplitDegenerate):
        halves((2.0,), (2.0,), 0)


def test_split_at_point_outside_raises():
    # one ulp wide: the midpoint rounds onto lo, outside the open interval
    iv = Interval(1.0, math.nextafter(1.0, 2.0))
    assert iv.mid == 1.0
    with pytest.raises(SplitDegenerate):
        halves((iv.lo,), (iv.hi,), 0)


def test_split_halves_widths():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lo = float(rng.uniform(-5, 5))
        w = float(rng.uniform(0.1, 4))
        (l_lo, l_hi), (h_lo, h_hi) = halves((lo, 0.0), (lo + w, 1.0), 0)
        assert l_hi[0] - l_lo[0] == pytest.approx(w / 2, rel=1e-9)
        assert h_hi[0] - h_lo[0] == pytest.approx(w / 2, rel=1e-9)
        assert l_hi[0] == h_lo[0]


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
    lower, upper = halves((iv.lo,), (iv.hi,), 0)
    assert lower == ((1e308,), (iv.mid,))
    assert upper == ((iv.mid,), (1.7e308,))
    wide = Interval(-1.7e308, 1.7e308)
    assert wide.mid == 0.0


def test_midpoint_unchanged_where_the_sum_is_finite():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = sorted(rng.uniform(-1e6, 1e6, size=2) * 10.0 ** rng.integers(-5, 300))
        assert Interval(float(a), float(b)).mid == 0.5 * (float(a) + float(b))
