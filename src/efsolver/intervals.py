"""Closed-interval arithmetic and axis-aligned boxes.

All endpoints are finite doubles.  Arithmetic results are inflated outward
by one ulp per operation so that the returned interval contains the exact
real result despite rounding.  Exact operations (negation, sums with zero
rounding error, products with a zero factor) are not inflated.  A result
that leaves the double range raises DomainError.

The arithmetic is written once, as functions on float endpoints (`add`,
`mul`, `power`, `sin`, ...); the `Interval` operators and the expression
tapes of `expr` both call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SplitDegenerate

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _sum_is_exact(a: float, b: float, s: float) -> bool:
    # TwoSum residual: zero iff a + b rounded without error.
    bp = s - a
    return (a - (s - bp)) + (b - bp) == 0.0


_INF = math.inf


def _overflow(lo: float, hi: float) -> DomainError:
    return DomainError(f"interval leaves the double range: [{lo}, {hi}]")


# -- float-level operations ----------------------------------------------------
#
# Each takes and returns interval endpoints as plain floats.  The Interval
# operators and the expression tapes (expr.py) both call these, so the two
# evaluators round identically.  Operations that can overflow raise
# DomainError; their results are otherwise ordered (lo <= hi) and never
# NaN, so only the outer infinities need checking.

def neg(lo: float, hi: float) -> tuple[float, float]:
    return -hi, -lo


def add(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    lo = alo + blo
    hi = ahi + bhi
    if not _sum_is_exact(alo, blo, lo):
        lo = _down(lo)
    if not _sum_is_exact(ahi, bhi, hi):
        hi = _up(hi)
    if lo == -_INF or hi == _INF:
        raise _overflow(lo, hi)
    return lo, hi


def sub(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    lo = alo - bhi
    hi = ahi - blo
    if not _sum_is_exact(alo, -bhi, lo):
        lo = _down(lo)
    if not _sum_is_exact(ahi, -blo, hi):
        hi = _up(hi)
    if lo == -_INF or hi == _INF:
        raise _overflow(lo, hi)
    return lo, hi


def mul(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    lo = min(products)
    hi = max(products)
    # A product is exact when one factor is exactly zero, and then it is
    # zero.  A zero endpoint stays unrounded only when no product of two
    # nonzero factors underflowed to zero, which would tie with it.
    exact_zero = (lo == 0.0 or hi == 0.0) and not _underflows(alo, ahi, blo, bhi)
    if lo != 0.0 or not exact_zero:
        lo = _down(lo)
    if hi != 0.0 or not exact_zero:
        hi = _up(hi)
    if lo == -_INF or hi == _INF:
        raise _overflow(lo, hi)
    return lo, hi


def _underflows(alo: float, ahi: float, blo: float, bhi: float) -> bool:
    """Does a product of two nonzero endpoints round to zero?  Exactly when
    the product of the smallest nonzero magnitudes does, since rounding is
    monotone."""
    a = min(abs(alo) or _INF, abs(ahi) or _INF)
    b = min(abs(blo) or _INF, abs(bhi) or _INF)
    return a * b == 0.0


def div(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    if blo <= 0.0 <= bhi:
        raise DomainError(f"division by interval containing zero: [{blo!r}, {bhi!r}]")
    quotients = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
    lo = _down(min(quotients))
    hi = _up(max(quotients))
    if lo == -_INF or hi == _INF:
        raise _overflow(lo, hi)
    return lo, hi


def power(lo: float, hi: float, n: int) -> tuple[float, float]:
    """Integer power, n >= 1 (checked where n enters: `Pow` and
    `Interval.power`), as a single monotone-piecewise operation."""
    if n == 1:
        return lo, hi
    if n % 2 == 1:
        plo, phi = _pow_down(lo, n), _pow_up(hi, n)
    elif lo >= 0.0:
        plo, phi = max(0.0, _pow_down(lo, n)), _pow_up(hi, n)
    elif hi <= 0.0:
        plo, phi = max(0.0, _pow_down(hi, n)), _pow_up(lo, n)
    else:
        # straddles zero: the minimum 0 is attained exactly
        plo, phi = 0.0, _pow_up(max(-lo, hi), n)
    if plo == -_INF or phi == _INF:
        raise _overflow(plo, phi)
    return plo, phi


def sin(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo >= _TWO_PI:
        return -1.0, 1.0
    lo_v, hi_v = math.sin(lo), math.sin(hi)
    rlo, rhi = _down(min(lo_v, hi_v)), _up(max(lo_v, hi_v))
    if _grid_hits(lo, hi, _HALF_PI):
        rhi = 1.0
    if _grid_hits(lo, hi, -_HALF_PI):
        rlo = -1.0
    return max(rlo, -1.0), min(rhi, 1.0)


def cos(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo >= _TWO_PI:
        return -1.0, 1.0
    lo_v, hi_v = math.cos(lo), math.cos(hi)
    rlo, rhi = _down(min(lo_v, hi_v)), _up(max(lo_v, hi_v))
    if _grid_hits(lo, hi, 0.0):
        rhi = 1.0
    if _grid_hits(lo, hi, math.pi):
        rlo = -1.0
    return max(rlo, -1.0), min(rhi, 1.0)


def midpoint(lo: float, hi: float) -> float:
    """The split point of [lo, hi]: 0.5 * (lo + hi), halving each endpoint
    first when their sum leaves the double range."""
    m = 0.5 * (lo + hi)
    if -_INF < m < _INF:
        return m
    return 0.5 * lo + 0.5 * hi


def halves(lo: tuple[float, ...], hi: tuple[float, ...], dim: int):
    """The lower and the upper half, as (lo, hi) endpoint tuples, of the box
    [lo, hi] split at the midpoint of dimension `dim`.

    The halves partition the box; they share only the split plane.
    Raises SplitDegenerate unless lo < mid < hi, which also rules out zero
    width and a midpoint that rounds onto an endpoint.
    """
    cut = midpoint(lo[dim], hi[dim])
    if not lo[dim] < cut < hi[dim]:
        raise SplitDegenerate(
            f"cut {cut} not strictly inside [{lo[dim]}, {hi[dim]}] of dimension {dim}")
    return ((lo, hi[:dim] + (cut,) + hi[dim + 1:]),
            (lo[:dim] + (cut,) + lo[dim + 1:], hi))


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with finite endpoints, lo <= hi.

    A non-finite endpoint, also one produced by an arithmetic operation
    that overflowed, raises DomainError."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise _overflow(self.lo, self.hi)
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, v: float) -> Interval:
        return cls(v, v)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return midpoint(self.lo, self.hi)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    # -- arithmetic: the float-level operations above -------------------------

    def __neg__(self) -> Interval:
        return Interval(*neg(self.lo, self.hi))

    def __add__(self, other: Interval) -> Interval:
        return Interval(*add(self.lo, self.hi, other.lo, other.hi))

    def __sub__(self, other: Interval) -> Interval:
        return Interval(*sub(self.lo, self.hi, other.lo, other.hi))

    def __mul__(self, other: Interval) -> Interval:
        return Interval(*mul(self.lo, self.hi, other.lo, other.hi))

    def __truediv__(self, other: Interval) -> Interval:
        return Interval(*div(self.lo, self.hi, other.lo, other.hi))

    def power(self, n: int) -> Interval:
        if n < 1 or n != int(n):
            raise ValueError(f"exponent must be a positive integer, got {n}")
        return Interval(*power(self.lo, self.hi, n))

    def sin(self) -> Interval:
        return Interval(*sin(self.lo, self.hi))

    def cos(self) -> Interval:
        return Interval(*cos(self.lo, self.hi))


def _pow(x: float, n: int) -> float:
    try:
        return x ** n
    except OverflowError:
        raise DomainError(f"{x!r}^{n} leaves the double range") from None


def _pow_down(x: float, n: int) -> float:
    v = _pow(x, n)
    return v if x == 0.0 else _down(v)


def _pow_up(x: float, n: int) -> float:
    v = _pow(x, n)
    return v if x == 0.0 else _up(v)


def _grid_hits(lo: float, hi: float, offset: float) -> bool:
    """Does {offset + 2*pi*k : k integer} intersect [lo, hi]?

    Fuzzy toward inclusion: claiming an extremum slightly outside the
    interval only widens the result, which stays sound.
    """
    k = math.floor((hi - offset) / _TWO_PI)
    x = offset + k * _TWO_PI
    slack = 1e-9 * (1.0 + abs(lo) + abs(hi))
    return x >= lo - slack


@dataclass(frozen=True)
class Box:
    """Cartesian product of named closed intervals.

    Dimension order is significant; names are unique and the box is
    nonempty.  Boxes are immutable.
    """

    names: tuple[str, ...]
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("box must have at least one dimension")
        if len(self.names) != len(self.intervals):
            raise ValueError("names and intervals differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in box: {self.names}")

    @classmethod
    def of(cls, *dims: tuple[str, "Interval | tuple[float, float]"]) -> Box:
        names = tuple(name for name, _ in dims)
        ivs = tuple(iv if isinstance(iv, Interval) else Interval(*iv) for _, iv in dims)
        return cls(names, ivs)

    @classmethod
    def from_endpoints(cls, names: tuple[str, ...], lo, hi) -> Box:
        return cls(names, tuple(Interval(l, h) for l, h in zip(lo, hi)))

    def __len__(self) -> int:
        return len(self.names)

    def endpoints(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The lower and the upper endpoints, in dimension order."""
        return (tuple(iv.lo for iv in self.intervals),
                tuple(iv.hi for iv in self.intervals))

    def midpoint(self) -> dict[str, float]:
        return {n: iv.mid for n, iv in zip(self.names, self.intervals)}

    def __repr__(self) -> str:
        dims = ", ".join(f"{n} in {iv!r}" for n, iv in zip(self.names, self.intervals))
        return f"Box({dims})"
