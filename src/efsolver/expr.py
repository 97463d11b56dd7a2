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
slot per operation), in which structurally equal subterms share a slot
and the negation of a constant, which is exact, is a constant.
`eval_on_box` runs a tape on plain float endpoints as a kernel: a Python
function generated from the tape's shape (the number of box dimensions
and the operations) as straight-line code over local variables, one pair
per slot, and one call per operation of the float-level helper of
`intervals` that the `Interval` operators call too.  So a tape gives bit
for bit the tree walk's enclosure, which stays as the test oracle.  There
are three kernels per tape:

- the whole run, `Tape.kernel(lo, hi, init)`, runs every operation on a
  box and returns the endpoint lists L, H of every slot;
- the child run of dimension d, `Tape.child_kernels[d](lo, hi, PL, PH)`,
  takes the lists PL, PH of a run on a box that differs only in
  dimension d (the box a split halved), and returns copies of them with
  slot d and the operations that depend on d re-run: a whole run's lists,
  bit for bit, since every other operation sees the parent's operands;
- the trial run of the first root, `Tape.trial_kernel(lo, hi, PL, PH,
  upper)`, takes the lists of a run on the box itself and returns, for
  each dimension, the root's targeted bound on the two halves that a
  midpoint split would give, re-running only the operations of the root's
  cone that depend on that dimension.

Which operations depend on which dimension comes from one bit mask per
slot (`_dependencies`), the activity analysis of automatic
differentiation (Griewank & Walther, Evaluating Derivatives, 2008).  The
constants come in as an argument (in a whole run) or in the parent's
lists, so the source holds only slot indices, exponents and the helpers'
names, and tapes of one shape share their kernels: each kind is compiled
once per shape (and dimension or root) and cached, bounded, and a tape
keeps each kernel after its first run, the child kernels in a list by
dimension, compiled only for the dimensions a split ever halves.  No run
looks a kernel up by shape, because the key's hash is not kept: a lookup
by the shape of D's 25-operation linear tape takes 1.3 us, a fifth of a
child run on that tape.  Compiling costs about 30 us per
operation, some 100 runs' worth, and a solve runs most of its kernels
hundreds of times.  Both evaluators are naive (they do not track the
dependency between occurrences of a variable), so the enclosure generally
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
# The lower and upper endpoint lists L, H of every slot, from a run of a
# tape on a box
Run = tuple[list[float], list[float]]


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
        return Tape(self.names, self.init, _cone(self.ops, slots), tuple(slots))

    @cached_property
    def kernel(self) -> Callable:
        """The compiled whole-run kernel of the tape's shape; see
        `eval_on_box`."""
        return _kernel((len(self.names), self.ops))

    @cached_property
    def child_kernels(self) -> list[Callable | None]:
        """Per box dimension d, the child-run kernel for d once a run has
        needed it, else None; see `eval_on_box`."""
        return [None] * len(self.names)

    @cached_property
    def trial_kernel(self) -> Callable:
        """The compiled trial kernel of the tape's first root; see
        `eval_on_box`."""
        return _trial_kernel((len(self.names), self.ops), self.roots[0])


def _cone(ops: Sequence[Op], slots) -> tuple[Op, ...]:
    """The operations of `ops` that `slots` depend on, in tape order."""
    need = set(slots)
    kept = []
    for op in reversed(ops):
        _, a, b, dst = op
        if dst in need:
            kept.append(op)
            need.update((a,) if b is None else (a, b))
    return tuple(reversed(kept))


def _dependencies(n: int, ops: Sequence[Op]) -> dict[int, int]:
    """The box dimensions each slot depends on, as a bit mask (bit k for
    dimension k); a constant slot is absent, which reads as 0."""
    deps = {k: 1 << k for k in range(n)}
    for _, a, b, dst in ops:
        deps[dst] = deps.get(a, 0) | deps.get(b, 0)
    return deps


def compile_tape(exprs: Sequence[Expr], names: Sequence[str]) -> Tape:
    """Compile `exprs` over the box dimensions `names` into one tape.

    A variable outside `names` raises UndeclaredVariable, a constant
    outside the double range DomainError.  The negation of a constant
    compiles to a constant slot, the negated value, since negation is
    exact.
    """
    names = tuple(names)
    dims = {name: k for k, name in enumerate(names)}
    slot_of: dict[tuple, int] = {}
    value_of: dict[int, float] = {}  # the constant slots
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
            if kind is Neg and a in value_of:
                return slot(Const(-value_of[a]))
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
                value_of[dst] = e.value
            else:
                init.append(0.0)
                ops.append((*op, dst))
        return dst

    roots = tuple(slot(e) for e in exprs)
    return Tape(names, tuple(init), tuple(ops), roots)


# The names a kernel calls: an operation code (`Op`) names its helper in
# `intervals`, ("pow", k) calls `power` with k, and a trial kernel splits
# each dimension at its `midpoint`.
_HELPERS = {name: getattr(iv, name) for name in (
    "neg", "add", "sub", "mul", "div", "sin", "cos", "power", "midpoint")}


def _local(s: int) -> tuple[str, str]:
    return f"l{s}", f"h{s}"


def _call(op: Op, name=_local) -> str:
    """The statement of one operation, which sets the locals l{dst}, h{dst};
    name(s) gives the pair of names that hold slot s."""
    code, a, b, dst = op
    la, ha = name(a)
    if isinstance(code, tuple):  # ("pow", k)
        call = f"power({la}, {ha}, {code[1]})"
    elif b is None:
        call = f"{code}({la}, {ha})"
    else:
        lb, hb = name(b)
        call = f"{code}({la}, {ha}, {lb}, {hb})"
    return f"l{dst}, h{dst} = {call}\n"


def _kernel_body(shape: tuple[int, tuple[Op, ...]]) -> str:
    """The statements of the whole-run kernel of a tape shape (len(names),
    ops): a function kernel(lo, hi, c) of the box endpoints and the
    constants `init` that returns the endpoints of every slot.  Slot s
    lives in the locals l{s} and h{s}, loaded where an operation first
    reads it, and each operation is one call of its helper in
    `intervals`."""
    n, ops = shape
    bound = {dst for *_, dst in ops}
    body = []
    for op in ops:
        for s in op[1:3]:
            if s is not None and s not in bound:
                bound.add(s)
                body.append(f"l{s} = lo[{s}]\nh{s} = hi[{s}]\n" if s < n
                            else f"l{s} = h{s} = c[{s - n}]\n")
        body.append(_call(op))
    body.append("L = [*lo, *c]\nH = [*hi, *c]\n")
    body += [f"L[{dst}] = l{dst}\nH[{dst}] = h{dst}\n" for *_, dst in ops]
    body.append("return L, H\n")
    return "".join(body)


def _child_body(shape: tuple[int, tuple[Op, ...]], d: int) -> str:
    """The statements of the child-run kernel of dimension d: a function
    kernel(lo, hi, PL, PH) that copies the parent's slot lists PL, PH,
    sets slot d to the box's dimension d and re-runs only the operations
    that depend on d, reading every other slot from the parent."""
    n, ops = shape
    bit = 1 << d
    deps = _dependencies(n, ops)
    active = [op for op in ops if deps[op[3]] & bit]
    bound = {d, *(dst for *_, dst in active)}
    body = [f"L = [*PL]\nH = [*PH]\nl{d} = L[{d}] = lo[{d}]\nh{d} = H[{d}] = hi[{d}]\n"]
    for op in active:
        for s in op[1:3]:
            if s is not None and s not in bound:
                bound.add(s)
                body.append(f"l{s} = PL[{s}]\nh{s} = PH[{s}]\n")
        body.append(_call(op))
    body += [f"L[{dst}] = l{dst}\nH[{dst}] = h{dst}\n" for *_, dst in active]
    body.append("return L, H\n")
    return "".join(body)


def _trial_body(shape: tuple[int, tuple[Op, ...]], root: int) -> str:
    """The statements of the trial kernel of slot `root`: a function
    kernel(lo, hi, PL, PH, upper) that, for every box dimension i with
    lo < mid < hi, encloses the root on the lower half [lo_i, mid] and
    then on the upper half [mid, hi_i], re-running only the operations of
    the root's cone that depend on i and reading every other slot from the
    run PL, PH on the box.  It returns, per dimension and half, the
    root's upper bound (upper true) or lower bound, None for both halves
    of a dimension it cannot split.  The box's dimension k lives in p{k},
    q{k}, the run's slot s in p{s}, q{s}, and a re-run slot in l{s}, h{s}."""
    n, ops = shape
    ops = _cone(ops, (root,))
    deps = _dependencies(n, ops)
    loads: set[int] = set()  # the run's slots that some trial reads
    blocks = []
    for i in range(n):
        bit = 1 << i
        for half, ends in enumerate(((f"p{i}", "m"), ("m", f"q{i}"))):

            def name(s, i=i, bit=bit, ends=ends):
                if s == i:
                    return ends
                if deps.get(s, 0) & bit:
                    return _local(s)
                loads.add(s)
                return f"p{s}", f"q{s}"

            block = [_call(op, name) for op in ops if deps[op[3]] & bit]
            lr, hr = name(root)
            block.append(f"t{2 * i + half} = {hr} if upper else {lr}\n")
            if half == 0:
                blocks.append(f"m = midpoint(p{i}, q{i})\nif p{i} < m < q{i}:\n")
            blocks.append(textwrap.indent("".join(block), "    "))
        blocks.append(f"else:\n    t{2 * i} = t{2 * i + 1} = None\n")
    body = [f"p{k} = lo[{k}]\nq{k} = hi[{k}]\n" for k in range(n)]
    body += [f"p{s} = PL[{s}]\nq{s} = PH[{s}]\n" for s in sorted(loads) if s >= n]
    body += blocks
    body.append("return " + ", ".join(f"t{k}" for k in range(2 * n)) + "\n")
    return "".join(body)


def _compile(params: str, body: str) -> Callable:
    source = f"def kernel({params}):\n" + textwrap.indent(body, "    ")
    namespace: dict = {}
    exec(compile(source, "<tape kernel>", "exec"), _HELPERS, namespace)
    return namespace["kernel"]


# Compiled once per shape (bounded): tapes that differ only in their
# constants share a kernel, and each tape keeps the kernels it ran.

@lru_cache(maxsize=256)
def _kernel(shape: tuple[int, tuple[Op, ...]]) -> Callable:
    return _compile("lo, hi, c", _kernel_body(shape))


@lru_cache(maxsize=256)
def _child_kernel(shape: tuple[int, tuple[Op, ...]], d: int) -> Callable:
    return _compile("lo, hi, PL, PH", _child_body(shape, d))


@lru_cache(maxsize=256)
def _trial_kernel(shape: tuple[int, tuple[Op, ...]], root: int) -> Callable:
    return _compile("lo, hi, PL, PH, upper", _trial_body(shape, root))


def eval_on_box(tape: Tape, lo: Sequence[float], hi: Sequence[float],
                parent: Run | None = None, dim: int | None = None,
                sign: str | None = None) -> Run | tuple[float | None, ...]:
    """Run `tape` on the box with endpoints lo, hi (in `tape.names` order).

    A whole run (no `parent`) returns the lower and upper endpoint of every
    slot, L and H: the enclosure of the k-th compiled expression is (L[s],
    H[s]) with s = tape.roots[k].  The other two runs read `parent`, the
    lists L, H of an earlier run of the tape:
    - a child run (`dim`), where `parent` ran on a box that differs from
      lo, hi only in dimension `dim`, returns the lists of a whole run on
      lo, hi, bit for bit: copies of the parent's with the slots that
      depend on `dim` re-run;
    - a trial run (`sign`), where `parent` ran on lo, hi, returns for each
      dimension i the upper bound (sign '+') or the lower bound (sign '-')
      of the enclosure of tape.roots[0] on the lower and on the upper half
      of the box split at the midpoint of dimension i, as a whole run on
      that half gives it, or None twice where lo_i < mid < hi_i fails.
    An overflowing operation raises DomainError.
    """
    if parent is None:
        return tape.kernel(lo, hi, tape.init)
    if sign is not None:
        return tape.trial_kernel(lo, hi, *parent, sign == "+")
    kernels = tape.child_kernels
    kernel = kernels[dim]
    if kernel is None:
        kernel = kernels[dim] = _child_kernel((len(tape.names), tape.ops), dim)
    return kernel(lo, hi, *parent)


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
