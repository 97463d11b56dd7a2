"""Closed-interval arithmetic and axis-aligned boxes.

All endpoints are finite doubles.  Arithmetic results are inflated outward
by one ulp per operation so that the returned interval contains the exact
real result despite rounding.  Exact operations (negation, sums with zero
rounding error, products with a zero factor) are not inflated.  A result
that leaves the double range raises DomainError.
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


def _enclosure(lo: float, hi: float) -> Interval:
    """The result of an arithmetic operation; unlike the constructor, an
    endpoint that overflowed is a domain error of the operation."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"enclosure leaves the double range: [{lo}, {hi}]")
    return Interval(lo, hi)


def _sum_is_exact(a: float, b: float, s: float) -> bool:
    # TwoSum residual: zero iff a + b rounded without error.
    bp = s - a
    return (a - (s - bp)) + (b - bp) == 0.0


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with finite endpoints, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo}, {self.hi}]")
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
        return 0.5 * (self.lo + self.hi)

    def encloses(self, other: Interval, slack: float = 0.0) -> bool:
        return self.lo - slack <= other.lo and other.hi <= self.hi + slack

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> Interval:
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: Interval) -> Interval:
        lo = self.lo + other.lo
        hi = self.hi + other.hi
        if not _sum_is_exact(self.lo, other.lo, lo):
            lo = _down(lo)
        if not _sum_is_exact(self.hi, other.hi, hi):
            hi = _up(hi)
        return _enclosure(lo, hi)

    def __sub__(self, other: Interval) -> Interval:
        lo = self.lo - other.hi
        hi = self.hi - other.lo
        if not _sum_is_exact(self.lo, -other.hi, lo):
            lo = _down(lo)
        if not _sum_is_exact(self.hi, -other.lo, hi):
            hi = _up(hi)
        return _enclosure(lo, hi)

    def __mul__(self, other: Interval) -> Interval:
        candidates = (
            (self.lo, other.lo),
            (self.lo, other.hi),
            (self.hi, other.lo),
            (self.hi, other.hi),
        )
        products = [a * b for a, b in candidates]
        lo = min(products)
        hi = max(products)
        # A product is exact when one factor is exactly zero.
        i = products.index(lo)
        if not (candidates[i][0] == 0.0 or candidates[i][1] == 0.0):
            lo = _down(lo)
        i = products.index(hi)
        if not (candidates[i][0] == 0.0 or candidates[i][1] == 0.0):
            hi = _up(hi)
        return _enclosure(lo, hi)

    def __truediv__(self, other: Interval) -> Interval:
        if other.lo <= 0.0 <= other.hi:
            raise DomainError(f"division by interval containing zero: {other}")
        quotients = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ]
        return _enclosure(_down(min(quotients)), _up(max(quotients)))

    def power(self, n: int) -> Interval:
        """Integer power, n >= 1, as a single monotone-piecewise operation."""
        if n < 1 or n != int(n):
            raise ValueError(f"exponent must be a positive integer, got {n}")
        if n == 1:
            return self
        if n % 2 == 1:
            return _enclosure(_pow_down(self.lo, n), _pow_up(self.hi, n))
        # even power
        if self.lo >= 0.0:
            return _enclosure(max(0.0, _pow_down(self.lo, n)), _pow_up(self.hi, n))
        if self.hi <= 0.0:
            return _enclosure(max(0.0, _pow_down(self.hi, n)), _pow_up(self.lo, n))
        # straddles zero: the minimum 0 is attained exactly
        return _enclosure(0.0, _pow_up(max(-self.lo, self.hi), n))

    def sin(self) -> Interval:
        if self.width >= _TWO_PI:
            return Interval(-1.0, 1.0)
        lo_v, hi_v = math.sin(self.lo), math.sin(self.hi)
        lo, hi = _down(min(lo_v, hi_v)), _up(max(lo_v, hi_v))
        if _grid_hits(self.lo, self.hi, _HALF_PI):
            hi = 1.0
        if _grid_hits(self.lo, self.hi, -_HALF_PI):
            lo = -1.0
        return Interval(max(lo, -1.0), min(hi, 1.0))

    def cos(self) -> Interval:
        if self.width >= _TWO_PI:
            return Interval(-1.0, 1.0)
        lo_v, hi_v = math.cos(self.lo), math.cos(self.hi)
        lo, hi = _down(min(lo_v, hi_v)), _up(max(lo_v, hi_v))
        if _grid_hits(self.lo, self.hi, 0.0):
            hi = 1.0
        if _grid_hits(self.lo, self.hi, math.pi):
            lo = -1.0
        return Interval(max(lo, -1.0), min(hi, 1.0))


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
    nonempty.  Boxes are immutable: splitting produces fresh boxes.
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

    def __len__(self) -> int:
        return len(self.names)

    def interval(self, name: str) -> Interval:
        return self.intervals[self.names.index(name)]

    def env(self) -> dict[str, Interval]:
        return dict(zip(self.names, self.intervals))

    def widths(self) -> tuple[float, ...]:
        return tuple(iv.width for iv in self.intervals)

    def midpoint(self) -> dict[str, float]:
        return {n: iv.mid for n, iv in zip(self.names, self.intervals)}

    def replace(self, dim: int, iv: Interval) -> Box:
        ivs = list(self.intervals)
        ivs[dim] = iv
        return Box(self.names, tuple(ivs))

    def split(self, dim: int) -> tuple[Box, Box]:
        """Split dimension `dim` at its midpoint.

        The two children partition the box; they share only the split plane.
        Raises SplitDegenerate when the dimension has zero width (or is so
        thin that the midpoint coincides with an endpoint).
        """
        iv = self.intervals[dim]
        if iv.width == 0.0:
            raise SplitDegenerate(f"dimension {self.names[dim]} has zero width")
        cut = iv.mid
        if not (iv.lo < cut < iv.hi):
            raise SplitDegenerate(
                f"cut {cut} not strictly inside [{iv.lo}, {iv.hi}] of {self.names[dim]}"
            )
        return (self.replace(dim, Interval(iv.lo, cut)),
                self.replace(dim, Interval(cut, iv.hi)))

    def sample(self, rng, n: int = 1) -> list[dict[str, float]]:
        """Uniform random points inside the box (for sampling-based checks)."""
        pts = []
        for _ in range(n):
            pts.append({
                name: iv.lo + rng.random() * iv.width if iv.width > 0 else iv.lo
                for name, iv in zip(self.names, self.intervals)
            })
        return pts

    def __repr__(self) -> str:
        dims = ", ".join(f"{n} in {iv!r}" for n, iv in zip(self.names, self.intervals))
        return f"Box({dims})"
