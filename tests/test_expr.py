import numpy as np
import pytest

from efsolver.errors import UndeclaredVariable
from efsolver.expr import Mul, Pow, Var, enclose
from efsolver.intervals import Box, Interval

from conftest import parse_expr


def test_product_range():
    t = Mul(Var("y1"), Var("y2"))
    box = Box.of(("y1", (0, 1)), ("y2", (-1, 1)))
    r = enclose(t, box)
    assert r.lo == pytest.approx(-1, abs=1e-12)
    assert r.hi == pytest.approx(1, abs=1e-12)


def test_benchmark_coefficient_enclosure():
    # naive recursive evaluation of 2*y1^3*y2 - 2*y1^2 + y1; the frozen
    # endpoints come from evaluating the recursion by hand, and the
    # enclosure must contain a dense sample of the true range
    t = parse_expr("2*y1^3*y2 - 2*y1^2 + y1")
    box = Box.of(("y1", (0.8, 1.2)), ("y2", (0.3, 0.49)))
    r = enclose(t, box)
    assert r.lo == pytest.approx(-1.7728, rel=1e-12)
    assert r.hi == pytest.approx(1.61344, rel=1e-12)

    ys1, ys2 = np.meshgrid(np.linspace(0.8, 1.2, 101), np.linspace(0.3, 0.49, 101))
    vals = 2 * ys1**3 * ys2 - 2 * ys1**2 + ys1
    assert r.lo <= vals.min() and vals.max() <= r.hi


def test_degenerate_point_box():
    t = parse_expr("y^2 + y", ("y",))
    r = enclose(t, Box.of(("y", (0.0, 0.0))))
    assert r == Interval.point(0.0)


def test_missing_variable_raises():
    with pytest.raises(UndeclaredVariable):
        enclose(Var("z"), Box.of(("y", (0, 1))))


def test_missing_variable_inside_product_raises():
    t = parse_expr("(y + 1)*sin(y*z)", ("y", "z"))
    with pytest.raises(UndeclaredVariable) as exc:
        enclose(t, Box.of(("y", (0, 1))))
    assert exc.value.name == "z"


def test_plain_evaluation():
    t = parse_expr("sin(y1)*y2 + cos(y1)/2")
    import math
    v = t.evaluate({"y1": 0.3, "y2": -2.0})
    assert v == pytest.approx(math.sin(0.3) * -2.0 + math.cos(0.3) / 2)


def test_pow_validates():
    with pytest.raises(ValueError):
        Pow(Var("y"), 0)
    with pytest.raises(ValueError):
        Pow(Var("y"), -2)
