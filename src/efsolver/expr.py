"""Arithmetic expression trees over named variables.

Nodes: Const, Var, Neg, Add, Sub, Mul, Div, Pow (positive integer
exponent), Sin, Cos.  Trees are immutable and hashable.  Two evaluators
are provided: plain floating point (`evaluate`) and conservative interval
evaluation over a box (`interval`), which returns an enclosure of the true
range.  The interval evaluator is naive (no dependency tracking), so the
enclosure generally overestimates; containment is guaranteed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import UndeclaredVariable
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


def eval_on_box(t: Expr, box: Box) -> Interval:
    """Interval enclosure of {t(y) : y in box}.

    A variable of t that is not a dimension of the box raises
    UndeclaredVariable (from `Var.interval`).
    """
    return t.interval(box.env())
