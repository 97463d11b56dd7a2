"""Arithmetic expression trees over named variables, and their interval tapes.

Nodes: Const, Var, Neg, Add, Sub, Mul, Div, Pow (positive integer
exponent), Sin, Cos.  Trees are immutable and hashable.  Each tree has
two evaluators of its own: plain floating point (`evaluate`) and
conservative interval evaluation by a tree walk over `Interval` objects
(`interval`), which returns an enclosure of the true range.

The solver does not walk trees.  `compile_tape` compiles several trees
over one box layout into one flat tape: a straight-line list of
operations on numbered slots (the box dimensions, the constants, then one
slot per operation), in which structurally equal subterms share a slot.
`eval_on_box` runs a tape on plain float endpoints, one box per run, and
every operation calls the float-level rounding helpers of `intervals`,
which the `Interval` operators call as well, so a tape gives bit for bit
the tree walk's enclosure.  The tree walk stays as the test oracle.  Both
are naive (no dependency tracking), so the enclosure generally
overestimates; containment is guaranteed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

from . import intervals as iv
from .errors import DomainError, UndeclaredVariable
from .intervals import Box, Interval

# operator precedence levels used by the printer
_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


class Expr:
    """Base class; use the concrete node types or the operators below."""

    def evaluate(self, env: Mapping[str, float]) -> float:
        raise NotImplementedError

    def interval(self, scope: Mapping[str, Interval]) -> Interval:
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    def _prec(self) -> int:
        raise NotImplementedError

    def __add__(self, other) -> Expr:
        return Add(self, as_expr(other))

    def __radd__(self, other) -> Expr:
        return Add(as_expr(other), self)

    def __sub__(self, other) -> Expr:
        return Sub(self, as_expr(other))

    def __rsub__(self, other) -> Expr:
        return Sub(as_expr(other), self)

    def __mul__(self, other) -> Expr:
        return Mul(self, as_expr(other))

    def __rmul__(self, other) -> Expr:
        return Mul(as_expr(other), self)

    def __truediv__(self, other) -> Expr:
        return Div(self, as_expr(other))

    def __rtruediv__(self, other) -> Expr:
        return Div(as_expr(other), self)

    def __pow__(self, n: int) -> Expr:
        return Pow(self, n)

    def __neg__(self) -> Expr:
        return Neg(self)


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot convert {v!r} to an expression")


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def evaluate(self, env):
        return self.value

    def interval(self, scope):
        return Interval.point(self.value)

    def variables(self):
        return frozenset()

    def _prec(self):
        return _PREC_ATOM if self.value >= 0 else _PREC_UNARY

    def __str__(self):
        return repr(self.value) if self.value != int(self.value) else repr(int(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise UndeclaredVariable(self.name) from None

    def interval(self, scope):
        try:
            return scope[self.name]
        except KeyError:
            raise UndeclaredVariable(self.name) from None

    def variables(self):
        return frozenset((self.name,))

    def _prec(self):
        return _PREC_ATOM

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def evaluate(self, env):
        return -self.arg.evaluate(env)

    def interval(self, scope):
        return -self.arg.interval(scope)

    def variables(self):
        return self.arg.variables()

    def _prec(self):
        return _PREC_UNARY

    def __str__(self):
        return f"-{_wrap(self.arg, _PREC_UNARY)}"


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def evaluate(self, env):
        return self.left.evaluate(env) + self.right.evaluate(env)

    def interval(self, scope):
        return self.left.interval(scope) + self.right.interval(scope)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def _prec(self):
        return _PREC_ADD

    def __str__(self):
        return f"{_wrap(self.left, _PREC_ADD)} + {_wrap(self.right, _PREC_ADD + 1)}"


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def evaluate(self, env):
        return self.left.evaluate(env) - self.right.evaluate(env)

    def interval(self, scope):
        return self.left.interval(scope) - self.right.interval(scope)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def _prec(self):
        return _PREC_ADD

    def __str__(self):
        return f"{_wrap(self.left, _PREC_ADD)} - {_wrap(self.right, _PREC_ADD + 1)}"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def evaluate(self, env):
        return self.left.evaluate(env) * self.right.evaluate(env)

    def interval(self, scope):
        return self.left.interval(scope) * self.right.interval(scope)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def _prec(self):
        return _PREC_MUL

    def __str__(self):
        return f"{_wrap(self.left, _PREC_MUL)}*{_wrap(self.right, _PREC_MUL + 1)}"


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def evaluate(self, env):
        return self.left.evaluate(env) / self.right.evaluate(env)

    def interval(self, scope):
        return self.left.interval(scope) / self.right.interval(scope)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def _prec(self):
        return _PREC_MUL

    def __str__(self):
        return f"{_wrap(self.left, _PREC_MUL)}/{_wrap(self.right, _PREC_MUL + 1)}"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise ValueError(f"exponent must be a positive integer, got {self.exponent!r}")

    def evaluate(self, env):
        return self.base.evaluate(env) ** self.exponent

    def interval(self, scope):
        return self.base.interval(scope).power(self.exponent)

    def variables(self):
        return self.base.variables()

    def _prec(self):
        return _PREC_POW

    def __str__(self):
        return f"{_wrap(self.base, _PREC_POW + 1)}^{self.exponent}"


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr

    def evaluate(self, env):
        return math.sin(self.arg.evaluate(env))

    def interval(self, scope):
        return self.arg.interval(scope).sin()

    def variables(self):
        return self.arg.variables()

    def _prec(self):
        return _PREC_ATOM

    def __str__(self):
        return f"sin({self.arg})"


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr

    def evaluate(self, env):
        return math.cos(self.arg.evaluate(env))

    def interval(self, scope):
        return self.arg.interval(scope).cos()

    def variables(self):
        return self.arg.variables()

    def _prec(self):
        return _PREC_ATOM

    def __str__(self):
        return f"cos({self.arg})"


def _wrap(e: Expr, min_prec: int) -> str:
    s = str(e)
    return f"({s})" if e._prec() < min_prec else s


# -- interval tapes -------------------------------------------------------------

_BINARY = {Add: iv.add, Sub: iv.sub, Mul: iv.mul, Div: iv.div}
_UNARY = {Neg: iv.neg, Sin: iv.sin, Cos: iv.cos}

# One operation: (helper, a, b, dst) sets slot dst to helper(slot a, slot
# b) for a binary helper, or to helper(slot a) when b is None.
Op = tuple[Callable[..., tuple[float, float]], int, int | None, int]


@dataclass(frozen=True)
class Tape:
    """Straight-line interval program for some expressions over one box.

    Slots 0..len(names)-1 hold the box dimensions; each later slot holds a
    constant (its value in `init`) or the result of one operation in
    `ops` (0.0 in `init` until the operation runs).  `roots[k]` is the
    slot of the k-th compiled expression.
    """

    names: tuple[str, ...]
    init: tuple[float, ...]
    ops: tuple[Op, ...]
    roots: tuple[int, ...]

    def restrict(self, slots: Sequence[int]) -> Tape:
        """The tape computing only `slots` and what they depend on, with the
        same slot numbering."""
        need = set(slots)
        kept = []
        for op in reversed(self.ops):
            _, a, b, dst = op
            if dst in need:
                kept.append(op)
                need.update((a,) if b is None else (a, b))
        return Tape(self.names, self.init, tuple(reversed(kept)), tuple(slots))


def compile_tape(exprs: Sequence[Expr], names: Sequence[str]) -> Tape:
    """Compile `exprs` over the box dimensions `names` into one tape.

    A variable outside `names` raises UndeclaredVariable, a constant
    outside the double range DomainError.
    """
    names = tuple(names)
    dims = {name: k for k, name in enumerate(names)}
    slot_of: dict[tuple, int] = {}
    init: list[float] = []
    ops: list[Op] = []

    def slot(e: Expr) -> int:
        kind = type(e)
        if kind is Var:
            try:
                return dims[e.name]
            except KeyError:
                raise UndeclaredVariable(e.name) from None
        if kind is Const:
            # repr keeps 0.0 and -0.0 apart
            key, op = (Const, repr(e.value)), None
        elif kind is Pow:
            a = slot(e.base)
            key, op = (Pow, a, e.exponent), (partial(iv.power, n=e.exponent), a, None)
        elif kind in _UNARY:
            a = slot(e.arg)
            key, op = (kind, a), (_UNARY[kind], a, None)
        elif kind in _BINARY:
            a, b = slot(e.left), slot(e.right)
            key, op = (kind, a, b), (_BINARY[kind], a, b)
        else:
            raise TypeError(f"cannot compile {kind.__name__} node")
        dst = slot_of.get(key)
        if dst is None:
            dst = slot_of[key] = len(names) + len(init)
            if op is None:
                if not math.isfinite(e.value):
                    raise DomainError(f"constant leaves the double range: {e.value}")
                init.append(e.value)
            else:
                init.append(0.0)
                ops.append((*op, dst))
        return dst

    roots = tuple(slot(e) for e in exprs)
    return Tape(names, tuple(init), tuple(ops), roots)


def eval_on_box(tape: Tape, lo: Sequence[float], hi: Sequence[float]
                ) -> tuple[list[float], list[float]]:
    """Run `tape` on the box with endpoints lo, hi (in `tape.names` order).

    Returns the lower and upper endpoint of every slot: the enclosure of
    the k-th compiled expression is (L[s], H[s]) with s = tape.roots[k].
    An overflowing operation raises DomainError.
    """
    L = [*lo, *tape.init]
    H = [*hi, *tape.init]
    for fn, a, b, dst in tape.ops:
        if b is None:
            L[dst], H[dst] = fn(L[a], H[a])
        else:
            L[dst], H[dst] = fn(L[a], H[a], L[b], H[b])
    return L, H


def enclose(t: Expr, box: Box) -> Interval:
    """Interval enclosure of {t(y) : y in box}, through a one-expression tape."""
    tape = compile_tape((t,), box.names)
    L, H = eval_on_box(tape, *box.endpoints())
    s = tape.roots[0]
    return Interval(L[s], H[s])
