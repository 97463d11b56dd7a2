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
`eval_on_box` runs a tape on plain float endpoints, one box per run, as a
kernel: a Python function generated from the tape's shape (the number of
box dimensions and the operations) as straight-line code over local
variables, one pair per slot, and one call per operation of the
float-level helper of `intervals` that the `Interval` operators call
too.  So a tape gives bit for bit the tree walk's enclosure, which stays
as the test oracle.  The constants come in as an argument, so the source
holds only slot indices, exponents and the helpers' names, and tapes of
one shape share one kernel: kernels are compiled once per shape and
cached (bounded), and a tape keeps its kernel after its first run.
Compiling costs about 30 us per operation, some 100 runs' worth, and a
solve runs most of its kernels hundreds of times.  Both evaluators are
naive (no dependency tracking), so the enclosure generally
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
import textwrap
from dataclasses import dataclass
from functools import cached_property, lru_cache
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

_BINARY = {Add: "add", Sub: "sub", Mul: "mul", Div: "div"}
_UNARY = {Neg: "neg", Sin: "sin", Cos: "cos"}

# One operation: (code, a, b, dst) sets slot dst to the operation `code`
# ("add", "sub", "mul", "div", "neg", "sin", "cos" or ("pow", k)) of slot a
# and slot b, or of slot a alone when b is None.
Op = tuple[str | tuple[str, int], int, int | None, int]


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

    @cached_property
    def kernel(self) -> Callable:
        """The compiled kernel of the tape's shape; see `eval_on_box`."""
        return _kernel((len(self.names), self.ops))


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
            key = op = (("pow", e.exponent), a, None)
        elif kind in _UNARY:
            a = slot(e.arg)
            key = op = (_UNARY[kind], a, None)
        elif kind in _BINARY:
            a, b = slot(e.left), slot(e.right)
            key = op = (_BINARY[kind], a, b)
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


# The names a kernel calls: an operation code (`Op`) names its helper in
# `intervals`, and ("pow", k) calls `power` with k.
_HELPERS = {name: getattr(iv, name)
            for name in ("neg", "add", "sub", "mul", "div", "sin", "cos", "power")}


def _kernel_body(shape: tuple[int, tuple[Op, ...]]) -> str:
    """The statements of the kernel of a tape shape (len(names), ops): a
    function kernel(lo, hi, c) of the box endpoints and the constants
    `init` that returns the endpoints of every slot.  Slot s lives in the
    locals l{s} and h{s}, loaded where an operation first reads it, and
    each operation is one call of its helper in `intervals`."""
    n, ops = shape
    bound = {dst for *_, dst in ops}
    body = []
    for code, a, b, dst in ops:
        for s in (a, b):
            if s is not None and s not in bound:
                bound.add(s)
                body.append(f"l{s} = lo[{s}]\nh{s} = hi[{s}]\n" if s < n
                            else f"l{s} = h{s} = c[{s - n}]\n")
        if isinstance(code, tuple):  # ("pow", k)
            call = f"power(l{a}, h{a}, {code[1]})"
        elif b is None:
            call = f"{code}(l{a}, h{a})"
        else:
            call = f"{code}(l{a}, h{a}, l{b}, h{b})"
        body.append(f"l{dst}, h{dst} = {call}\n")
    body.append("L = [*lo, *c]\nH = [*hi, *c]\n")
    body += [f"L[{dst}] = l{dst}\nH[{dst}] = h{dst}\n" for *_, dst in ops]
    body.append("return L, H\n")
    return "".join(body)


@lru_cache(maxsize=256)
def _kernel(shape: tuple[int, tuple[Op, ...]]) -> Callable:
    """The kernel of a tape shape, compiled once per shape: tapes that differ
    only in their constants share it."""
    source = "def kernel(lo, hi, c):\n" + textwrap.indent(_kernel_body(shape), "    ")
    namespace: dict = {}
    exec(compile(source, "<tape kernel>", "exec"), _HELPERS, namespace)
    return namespace["kernel"]


def eval_on_box(tape: Tape, lo: Sequence[float], hi: Sequence[float]
                ) -> tuple[list[float], list[float]]:
    """Run `tape` on the box with endpoints lo, hi (in `tape.names` order).

    Returns the lower and upper endpoint of every slot: the enclosure of
    the k-th compiled expression is (L[s], H[s]) with s = tape.roots[k].
    An overflowing operation raises DomainError.
    """
    return tape.kernel(lo, hi, tape.init)


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

    Each derivative rule is a few tape operations on the natural
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

    def apply(code, a, b=None) -> int:
        a, b = (const(1.0) if d == _ONE else d for d in (a, b))
        key = (code, a, b)
        if key not in slot_of:
            slot_of[key] = dst = new_slot(0.0)
            ops.append((code, a, b, dst))
        return slot_of[key]

    def times(p, q):
        if p is None or q is None:
            return None
        if p == _ONE or q == _ONE:
            return q if p == _ONE else p
        return apply("mul", p, q)

    def plus(p, q):
        if p is None or q is None:
            return q if p is None else p
        return apply("add", p, q)

    def minus(p, q):
        if q is None:
            return p
        return apply("neg", q) if p is None else apply("sub", p, q)

    zero = (None,) * n
    grad: dict[int, tuple] = {j: tuple(_ONE if k == j else None for k in range(n))
                              for j in range(n)}
    for code, a, b, dst in cone.ops:
        da = grad.get(a, zero)
        db = grad.get(b, zero) if b is not None else zero
        if da == db == zero:
            continue
        if code == "neg":
            g = [minus(None, p) for p in da]
        elif code == "add":
            g = [plus(p, q) for p, q in zip(da, db)]
        elif code == "sub":
            g = [minus(p, q) for p, q in zip(da, db)]
        elif code == "mul":
            g = [plus(times(p, b), times(a, q)) for p, q in zip(da, db)]
        elif code == "div":
            g = [None if num is None else apply("div", num, b)
                 for num in (minus(p, times(dst, q)) for p, q in zip(da, db))]
        else:
            if code == "sin":
                factor = apply("cos", a)
            elif code == "cos":
                factor = apply("neg", apply("sin", a))
            elif code[1] == 1:  # ("pow", k) from here on
                factor = _ONE
            else:
                k = code[1]
                lower = a if k == 2 else apply(("pow", k - 1), a)
                factor = apply("mul", const(float(k)), lower)
            g = [times(factor, p) for p in da]
        grad[dst] = tuple(g)

    form = N + slot  # f(c), from the cone run on the point box
    for j, d in enumerate(grad.get(slot, zero)):
        if d is not None:
            form = apply("add", form, times(d, apply("sub", j, N + j)))
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
