"""Arithmetic expression trees over named variables, and their interval tapes.

Nodes: Const, Var, Neg, Add, Sub, Mul, Div, Pow (positive integer
exponent), Sin, Cos.  Trees are immutable and hashable; the parser
builds them, and so can the node constructors.  Each tree has
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

`mean_value_form` derives from a tape the mean-value form of one of its
slots: a second interval tape that propagates forward-mode derivatives
over the slot's operations, from the slot endpoints of a run on the box,
and sums f(c) + sum_j f'_j(Y) (Y_j - c_j).  `mean_value` intersects it
with the natural enclosure, which removes much of the dependency
overestimation on small boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

from . import intervals as iv
from .errors import DomainError, UndeclaredVariable
from .intervals import Box, Interval


class Expr:
    """Base class of the node types below."""

    def evaluate(self, env: Mapping[str, float]) -> float:
        raise NotImplementedError

    def interval(self, scope: Mapping[str, Interval]) -> Interval:
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def evaluate(self, env):
        return self.value

    def interval(self, scope):
        return Interval.point(self.value)

    def variables(self):
        return frozenset()


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


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def evaluate(self, env):
        return -self.arg.evaluate(env)

    def interval(self, scope):
        return -self.arg.interval(scope)

    def variables(self):
        return self.arg.variables()


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


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr

    def evaluate(self, env):
        return math.sin(self.arg.evaluate(env))

    def interval(self, scope):
        return self.arg.interval(scope).sin()

    def variables(self):
        return self.arg.variables()


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr

    def evaluate(self, env):
        return math.cos(self.arg.evaluate(env))

    def interval(self, scope):
        return self.arg.interval(scope).cos()

    def variables(self):
        return self.arg.variables()


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


# -- mean-value forms -----------------------------------------------------------

_ONE = -1  # a structural derivative of one, before it needs a slot


@dataclass(frozen=True)
class MeanValueForm:
    """The mean-value form of slot `slot` of a tape,

        f(c) + sum_j f'_j(Y) * (Y_j - c_j),    c the midpoint of the box Y,

    an enclosure of f = slot `slot` on Y wherever the natural run of the
    tape has one (Moore, Kearfott & Cloud, Introduction to Interval
    Analysis, 2009, sec. 6.4).  `cone` is the slot's cone, run on the
    point box c for f(c).  `program` is an interval tape over 2N inputs:
    the N slot enclosures of a run of the tape on Y, then those of the cone
    run on c.  Its operations propagate forward-mode derivatives over the
    cone and sum the form into its one root.
    """

    slot: int
    cone: Tape
    program: Tape


def mean_value_form(tape: Tape, slot: int) -> MeanValueForm:
    """Derive the mean-value form of slot `slot` of `tape`.

    Each derivative rule calls the `intervals` helpers on the natural
    enclosures of the operands: u'v + uv' for a product, (u' - (u/v) v')/v
    for a quotient, n u^(n-1) u' for a power, cos(u) u' and -sin(u) u' for
    sine and cosine.  Structurally zero derivatives are dropped and
    products with a structural one skipped, so a dimension the slot does
    not depend on costs nothing.
    """
    cone = tape.restrict((slot,))
    n = len(tape.names)
    N = n + len(tape.init)
    init: list[float] = []
    ops: list[Op] = []
    slot_of: dict[tuple, int] = {}

    def new_slot(value: float) -> int:
        init.append(value)
        return 2 * N + len(init) - 1

    def const(value: float) -> int:
        key = ("const", value)
        if key not in slot_of:
            slot_of[key] = new_slot(value)
        return slot_of[key]

    def apply(fn, a, b=None) -> int:
        a, b = (const(1.0) if d == _ONE else d for d in (a, b))
        key = (fn, a, b)
        if key not in slot_of:
            slot_of[key] = dst = new_slot(0.0)
            ops.append((fn, a, b, dst))
        return slot_of[key]

    def times(p, q):
        if p is None or q is None:
            return None
        if p == _ONE or q == _ONE:
            return q if p == _ONE else p
        return apply(iv.mul, p, q)

    def plus(p, q):
        if p is None or q is None:
            return q if p is None else p
        return apply(iv.add, p, q)

    def minus(p, q):
        if q is None:
            return p
        return apply(iv.neg, q) if p is None else apply(iv.sub, p, q)

    zero = (None,) * n
    grad: dict[int, tuple] = {j: tuple(_ONE if k == j else None for k in range(n))
                              for j in range(n)}
    for fn, a, b, dst in cone.ops:
        da = grad.get(a, zero)
        db = grad.get(b, zero) if b is not None else zero
        if da == db == zero:
            continue
        if fn is iv.neg:
            g = [minus(None, p) for p in da]
        elif fn is iv.add:
            g = [plus(p, q) for p, q in zip(da, db)]
        elif fn is iv.sub:
            g = [minus(p, q) for p, q in zip(da, db)]
        elif fn is iv.mul:
            g = [plus(times(p, b), times(a, q)) for p, q in zip(da, db)]
        elif fn is iv.div:
            g = [None if num is None else apply(iv.div, num, b)
                 for num in (minus(p, times(dst, q)) for p, q in zip(da, db))]
        else:
            if fn is iv.sin:
                factor = apply(iv.cos, a)
            elif fn is iv.cos:
                factor = apply(iv.neg, apply(iv.sin, a))
            elif fn.keywords["n"] == 1:  # partial(iv.power, n=k) from here on
                factor = _ONE
            else:
                k = fn.keywords["n"]
                lower = a if k == 2 else apply(partial(iv.power, n=k - 1), a)
                factor = apply(iv.mul, const(float(k)), lower)
            g = [times(factor, p) for p in da]
        grad[dst] = tuple(g)

    form = N + slot  # f(c), from the cone run on the point box
    for j, d in enumerate(grad.get(slot, zero)):
        if d is not None:
            form = apply(iv.add, form, times(d, apply(iv.sub, j, N + j)))
    names = (tuple(f"Y[{s}]" for s in range(N))
             + tuple(f"c[{s}]" for s in range(N)))
    return MeanValueForm(slot, cone, Tape(names, tuple(init), tuple(ops), (form,)))


def mean_value(form: MeanValueForm, mid: Sequence[float], L: Sequence[float],
               H: Sequence[float]) -> tuple[float, float]:
    """The enclosure of the form's slot on the box Y: the natural one, from
    the slot endpoints L, H of a run of the tape on Y, intersected with the
    mean-value form at mid, the midpoint of Y.  Where the form has no
    enclosure (it raises DomainError) the natural one."""
    s = form.slot
    try:
        PL, PH = eval_on_box(form.cone, mid, mid)
        ML, MH = eval_on_box(form.program, [*L, *PL], [*H, *PH])
    except DomainError:
        return L[s], H[s]
    r = form.program.roots[0]
    return max(L[s], ML[r]), min(H[s], MH[r])
