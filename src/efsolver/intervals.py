"""Closed-interval arithmetic and axis-aligned boxes.

All endpoints are finite doubles.  Arithmetic results are inflated outward
by one ulp per operation so that the returned interval contains the exact
real result despite rounding.  Exact operations (negation, sums with zero
rounding error, products with a zero factor) are not inflated.  A result
that leaves the double range raises DomainError.

The arithmetic is written once, as functions on float endpoints (`add`,
`mul`, `power`, `sin`, ...); the `Interval` operators and the tape kernels
of `expr` both call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SplitDegenerate

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_INF = math.inf
_NINF = -math.inf
_nextafter = math.nextafter


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _overflow(lo: float, hi: float) -> DomainError:
    return DomainError(f"interval leaves the double range: [{lo}, {hi}]")


# -- float-level operations ----------------------------------------------------
#
# Each takes and returns interval endpoints as plain floats.  The Interval
# operators and the tape kernels of `expr` both call these, so the two
# evaluators round identically.  The bodies call no other function on the
# common path, since a tape runs them once per operation.  Operations that
# can overflow raise DomainError; their results are otherwise ordered
# (lo <= hi) and never NaN, so only the outer infinities need checking.

def neg(lo: float, hi: float) -> tuple[float, float]:
    return -hi, -lo


def add(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    # each endpoint rounded outward unless the TwoSum residual shows the sum
    # was exact
    lo = alo + blo
    t = lo - alo
    if alo - (lo - t) + (blo - t) != 0.0:
        lo = _nextafter(lo, _NINF)
    hi = ahi + bhi
    t = hi - ahi
    if ahi - (hi - t) + (bhi - t) != 0.0:
        hi = _nextafter(hi, _INF)
    if lo == _NINF or hi == _INF:
        raise _overflow(lo, hi)
    return lo, hi


def sub(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    # a - b is a + (-b) exactly, so this is `add` with b negated
    b = -bhi
    lo = alo + b
    t = lo - alo
    if alo - (lo - t) + (b - t) != 0.0:
        lo = _nextafter(lo, _NINF)
    b = -blo
    hi = ahi + b
    t = hi - ahi
    if ahi - (hi - t) + (b - t) != 0.0:
        hi = _nextafter(hi, _INF)
    if lo == _NINF or hi == _INF:
        raise _overflow(lo, hi)
    return lo, hi


def mul(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    # the minimum and the maximum of the four products, the first of equal
    # ones as min() and max() keep it, then rounded outward
    lo = hi = alo * blo
    p = alo * bhi
    if p < lo:
        lo = p
    elif p > hi:
        hi = p
    p = ahi * blo
    if p < lo:
        lo = p
    elif p > hi:
        hi = p
    p = ahi * bhi
    if p < lo:
        lo = p
    elif p > hi:
        hi = p
    if lo != 0.0 and hi != 0.0:
        lo = _nextafter(lo, _NINF)
        hi = _nextafter(hi, _INF)
    else:
        # A product is exact when one factor is exactly zero, and then it is
        # zero, so a zero endpoint stays unrounded, unless a product of two
        # nonzero endpoints underflowed to zero and ties with it.
        underflow = (alo != 0.0 and (blo != 0.0 and alo * blo == 0.0
                                     or bhi != 0.0 and alo * bhi == 0.0)
                     or ahi != 0.0 and (blo != 0.0 and ahi * blo == 0.0
                                        or bhi != 0.0 and ahi * bhi == 0.0))
        if lo != 0.0 or underflow:
            lo = _nextafter(lo, _NINF)
        if hi != 0.0 or underflow:
            hi = _nextafter(hi, _INF)
    if lo == _NINF or hi == _INF:
        raise _overflow(lo, hi)
    return lo, hi


def div(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    if blo <= 0.0 <= bhi:
        raise DomainError(f"division by interval containing zero: [{blo!r}, {bhi!r}]")
    quotients = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
    lo = _down(min(quotients))
    hi = _up(max(quotients))
    if lo == -_INF or hi == _INF:
        raise _overflow(lo, hi)
    return lo, hi


def power(alo: float, ahi: float, n: int) -> tuple[float, float]:
    """Integer power, n >= 1 (checked where n enters: `Pow` and
    `Interval.power`), as a single monotone-piecewise operation.  A power
    of zero is exact, and x^n of even n is at least 0."""
    if n == 1:
        return alo, ahi
    if n % 2 == 1:
        lo = _pow(alo, n)
        if alo != 0.0:
            lo = _nextafter(lo, _NINF)
        hi = _pow(ahi, n)
        if ahi != 0.0:
            hi = _nextafter(hi, _INF)
    elif alo >= 0.0:
        lo = _pow(alo, n)
        if alo != 0.0:
            lo = _nextafter(lo, _NINF)
        if not lo > 0.0:
            lo = 0.0
        hi = _pow(ahi, n)
        if ahi != 0.0:
            hi = _nextafter(hi, _INF)
    elif ahi <= 0.0:
        lo = _pow(ahi, n)
        if ahi != 0.0:
            lo = _nextafter(lo, _NINF)
        if not lo > 0.0:
            lo = 0.0
        hi = _pow(alo, n)
        if alo != 0.0:
            hi = _nextafter(hi, _INF)
    else:
        # straddles zero: the minimum 0 is attained exactly
        lo = 0.0
        hi = _nextafter(_pow(-alo if -alo > ahi else ahi, n), _INF)
    if lo == _NINF or hi == _INF:
        raise _overflow(lo, hi)
    return lo, hi


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
