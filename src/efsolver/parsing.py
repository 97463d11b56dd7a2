"""Text format for exists-forall problems.

    # comments run to end of line
    exists x1 x2 ;
    forall-vars y1 y2 ;
    branch y1 in [0,1], y2 in [-1,1] : y1 >= y2 or x1*sin(y1)*y2 + x2*y1^2*y2 <= 0 ;
    eq 1*x1 = 1 ;

A formula is a conjunction ("and") of disjunctions ("or") of inequality
atoms; parentheses group sub-formulas.  Atoms compare two arithmetic
expressions with <=, <, >= or >.  Expressions use + - * / ^ (positive
integer exponents), sin(), cos(), decimal literals and variable names.

Atoms that mention no existential variable become guards, normalised to
"body <= 0" (or "< 0"); the one atom per branch that does mention them
must be linear in x and non-strict, and is decomposed into per-variable
coefficient expressions.  The written sub-expressions are preserved; no
algebraic rewriting happens beyond dropping literal zero terms introduced
by the normalisation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParseError, UndeclaredVariable
from .expr import Add, Const, Cos, Div, Expr, Mul, Neg, Pow, Sin, Sub, Var
from .intervals import Box, Interval
from .model import (And, Branch, Formula, Guard, GuardAtom, Linear,
                    LinearAtom, Or, Problem)

_SYMBOLS = ("<=", ">=", ";", ",", ":", "(", ")", "[", "]", "=", "<", ">",
            "+", "-", "*", "/", "^")
_RELOPS = ("<=", "<", ">=", ">")


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM | NAME | SYM | EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            toks.append(_Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            # the statement keyword 'forall-vars' contains a hyphen
            if word == "forall" and text[j:j + 5] == "-vars":
                word = "forall-vars"
                j += 5
            toks.append(_Token("NAME", word, line, col))
            col += j - i
            i = j
            continue
        two = text[i:i + 2]
        if two in _SYMBOLS:
            toks.append(_Token("SYM", two, line, col))
            i += 2
            col += 2
            continue
        if c in _SYMBOLS:
            toks.append(_Token("SYM", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Token("EOF", "", line, col))
    return toks


# -- normalisation helpers (fold only literal zeros/ones that the
#    normalisation itself introduces; user subtrees pass through) ----------

def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


class _LinearityError(Exception):
    pass


def decompose_linear(e: Expr, x_set: frozenset[str] | set[str]):
    """Split e into (coeffs over x, x-free remainder).

    Returns ({x_name: Expr}, Expr) such that e == sum coeff*x + remainder.
    Raises _LinearityError when e is not linear in the x variables.
    """
    if isinstance(e, Const):
        return {}, e
    if isinstance(e, Var):
        if e.name in x_set:
            return {e.name: Const(1.0)}, Const(0.0)
        return {}, e
    if isinstance(e, Neg):
        cs, const = decompose_linear(e.arg, x_set)
        return {n: Neg(c) for n, c in cs.items()}, _sub(Const(0.0), const)
    if isinstance(e, (Add, Sub)):
        lcs, lconst = decompose_linear(e.left, x_set)
        rcs, rconst = decompose_linear(e.right, x_set)
        out = dict(lcs)
        for n, c in rcs.items():
            if n in out:
                out[n] = _add(out[n], c) if isinstance(e, Add) else _sub(out[n], c)
            else:
                out[n] = c if isinstance(e, Add) else Neg(c)
        const = _add(lconst, rconst) if isinstance(e, Add) else _sub(lconst, rconst)
        return out, const
    if isinstance(e, Mul):
        lcs, lconst = decompose_linear(e.left, x_set)
        rcs, rconst = decompose_linear(e.right, x_set)
        if lcs and rcs:
            raise _LinearityError("product of two x-dependent factors")
        if lcs:
            return {n: _mul(c, rconst) for n, c in lcs.items()}, _mul(lconst, rconst)
        return {n: _mul(lconst, c) for n, c in rcs.items()}, _mul(lconst, rconst)
    if isinstance(e, Div):
        lcs, lconst = decompose_linear(e.left, x_set)
        if e.right.variables() & set(x_set):
            raise _LinearityError("x in a denominator")
        return {n: _div(c, e.right) for n, c in lcs.items()}, _div(lconst, e.right)
    if isinstance(e, Pow):
        if e.base.variables() & set(x_set):
            if e.exponent == 1:
                return decompose_linear(e.base, x_set)
            raise _LinearityError("x under a power")
        return {}, e
    if isinstance(e, (Sin, Cos)):
        if e.arg.variables() & set(x_set):
            raise _LinearityError("x inside sin/cos")
        return {}, e
    raise _LinearityError(f"unsupported node {type(e).__name__}")


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.x_vars: tuple[str, ...] = ()
        self.y_vars: tuple[str, ...] = ()

    def peek(self, k: int = 0) -> _Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def error(self, msg: str, tok: _Token | None = None):
        t = tok or self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, text: str) -> _Token:
        t = self.peek()
        if t.text != text:
            self.error(f"expected {text!r}, found {t.text!r}" if t.text else
                       f"expected {text!r}, found end of input")
        return self.advance()

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.advance()
            return True
        return False

    # -- statements ---------------------------------------------------------

    def parse(self) -> Problem:
        self.expect("exists")
        self.x_vars = self._name_list()
        self.expect("forall-vars")
        self.y_vars = self._name_list()
        if set(self.x_vars) & set(self.y_vars):
            self.error("a variable cannot be both existential and universal")
        branches: list[Branch] = []
        eq_rows: list[tuple[float, ...]] = []
        eq_rhs: list[float] = []
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.text == "branch":
                branches.append(self._branch())
            elif t.text == "eq":
                row, d = self._equality()
                eq_rows.append(row)
                eq_rhs.append(d)
            else:
                self.error(f"expected 'branch' or 'eq', found {t.text!r}")
        return Problem(self.x_vars, self.y_vars, tuple(branches),
                       tuple(eq_rows), tuple(eq_rhs))

    def _name_list(self) -> tuple[str, ...]:
        names: list[str] = []
        while self.peek().kind == "NAME" and self.peek().text not in (
                "branch", "eq", "in", "and", "or", "sin", "cos"):
            names.append(self.advance().text)
        self.expect(";")
        if not names:
            self.error("expected at least one variable name")
        if len(set(names)) != len(names):
            self.error("duplicate variable name")
        return tuple(names)

    def _branch(self) -> Branch:
        self.expect("branch")
        dims: dict[str, Interval] = {}
        while True:
            name_tok = self.advance()
            if name_tok.kind != "NAME":
                self.error("expected a variable name", name_tok)
            if name_tok.text not in self.y_vars:
                raise UndeclaredVariable(name_tok.text, name_tok.line, name_tok.col)
            if name_tok.text in dims:
                self.error(f"duplicate box dimension {name_tok.text!r}", name_tok)
            self.expect("in")
            self.expect("[")
            lo = self._signed_number()
            self.expect(",")
            hi = self._signed_number()
            self.expect("]")
            if lo > hi:
                self.error(f"empty interval [{lo}, {hi}]", name_tok)
            dims[name_tok.text] = Interval(lo, hi)
            if not self.accept(","):
                break
        self.expect(":")
        formula = self._formula()
        self.expect(";")
        missing = [y for y in self.y_vars if y not in dims]
        if missing:
            self.error(f"branch box does not bound {missing}")
        box = Box(self.y_vars, tuple(dims[y] for y in self.y_vars))
        return Branch(box, formula)

    def _equality(self) -> tuple[tuple[float, ...], float]:
        self.expect("eq")
        start = self.peek()
        lhs = self._expr()
        self.expect("=")
        rhs = self._expr()
        self.expect(";")
        self._check_declared(lhs, start)
        self._check_declared(rhs, start)
        try:
            lcs, lconst = decompose_linear(lhs, set(self.x_vars))
            rcs, rconst = decompose_linear(rhs, set(self.x_vars))
        except _LinearityError as exc:
            self.error(f"equality is not linear in x: {exc}", start)
        row = []
        for x in self.x_vars:
            c = 0.0
            if x in lcs:
                c += self._const_value(lcs[x], start)
            if x in rcs:
                c -= self._const_value(rcs[x], start)
            row.append(c)
        d = self._const_value(rconst, start) - self._const_value(lconst, start)
        if not all(math.isfinite(v) for v in (*row, d)):
            self.error("equality constants must be finite", start)
        return tuple(row), d

    def _const_value(self, e: Expr, tok: _Token) -> float:
        if e.variables():
            self.error("equality coefficients must be constants", tok)
        try:
            return e.evaluate({})
        except (ArithmeticError, ValueError):  # 1/0, 1e200^2, sin(1e300*1e300)
            return math.nan

    def _signed_number(self) -> float:
        sign = 1.0
        if self.accept("-"):
            sign = -1.0
        elif self.accept("+"):
            pass
        t = self.advance()
        if t.kind != "NUM":
            self.error("expected a number", t)
        return sign * self._number(t)

    def _number(self, t: _Token) -> float:
        v = float(t.text)
        if not math.isfinite(v):
            self.error(f"number {t.text} leaves the double range", t)
        return v

    # -- formulas -----------------------------------------------------------

    def _formula(self) -> Formula:
        items = [self._disjunction()]
        while self.accept("and"):
            items.append(self._disjunction())
        return items[0] if len(items) == 1 else And(tuple(items))

    def _disjunction(self) -> Formula:
        items = [self._operand()]
        while self.accept("or"):
            items.append(self._operand())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def _operand(self) -> Formula:
        if self.peek().text == "(" and self._paren_group_is_formula():
            self.expect("(")
            f = self._formula()
            self.expect(")")
            return f
        return self._atom()

    def _paren_group_is_formula(self) -> bool:
        # A parenthesised group is a sub-formula iff a relational operator
        # occurs inside it; otherwise it is an arithmetic sub-expression.
        depth = 0
        k = 0
        while True:
            t = self.peek(k)
            if t.kind == "EOF":
                return False
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif t.text in _RELOPS and depth >= 1:
                return True
            k += 1

    def _atom(self) -> Formula:
        start = self.peek()
        lhs = self._expr()
        op_tok = self.peek()
        if op_tok.text not in _RELOPS:
            self.error(f"expected a comparison operator, found {op_tok.text!r}")
        op = self.advance().text
        rhs = self._expr()
        self._check_declared(lhs, start)
        self._check_declared(rhs, start)

        x_set = set(self.x_vars)
        has_x = bool((lhs.variables() | rhs.variables()) & x_set)
        if op in (">=", ">"):
            lhs, rhs = rhs, lhs
            op = "<=" if op == ">=" else "<"
        if not has_x:
            return Guard(GuardAtom(_sub(lhs, rhs), strict=(op == "<")))
        if op == "<":
            self.error("the inequality containing existential variables "
                       "must be non-strict", start)
        try:
            lcs, lconst = decompose_linear(lhs, x_set)
            rcs, rconst = decompose_linear(rhs, x_set)
        except _LinearityError as exc:
            self.error(f"inequality is not linear in existential variables: {exc}",
                       start)
        merged: dict[str, Expr] = dict(lcs)
        for n, c in rcs.items():
            merged[n] = _sub(merged[n], c) if n in merged else Neg(c)
        coeffs = tuple((x, merged[x]) for x in self.x_vars if x in merged)
        return Linear(LinearAtom(coeffs, _sub(rconst, lconst)))

    def _check_declared(self, e: Expr, tok: _Token):
        unknown = e.variables() - set(self.x_vars) - set(self.y_vars)
        if unknown:
            raise UndeclaredVariable(sorted(unknown)[0], tok.line, tok.col)

    # -- expressions --------------------------------------------------------

    def _expr(self) -> Expr:
        e = self._term()
        while True:
            if self.accept("+"):
                e = Add(e, self._term())
            elif self.accept("-"):
                e = Sub(e, self._term())
            else:
                return e

    def _term(self) -> Expr:
        e = self._factor()
        while True:
            if self.accept("*"):
                e = Mul(e, self._factor())
            elif self.accept("/"):
                e = Div(e, self._factor())
            else:
                return e

    def _factor(self) -> Expr:
        if self.accept("-"):
            return Neg(self._factor())
        return self._power()

    def _power(self) -> Expr:
        base = self._unit()
        if self.accept("^"):
            t = self.advance()
            if t.kind != "NUM" or not t.text.isdigit() or int(t.text) < 1:
                self.error("exponent must be a positive integer literal", t)
            return Pow(base, int(t.text))
        return base

    def _unit(self) -> Expr:
        t = self.peek()
        if t.kind == "NUM":
            self.advance()
            return Const(self._number(t))
        if t.text in ("sin", "cos"):
            self.advance()
            self.expect("(")
            arg = self._expr()
            self.expect(")")
            return Sin(arg) if t.text == "sin" else Cos(arg)
        if t.text == "(":
            self.advance()
            e = self._expr()
            self.expect(")")
            return e
        if t.kind == "NAME":
            self.advance()
            return Var(t.text)
        self.error(f"expected an expression, found {t.text!r}" if t.text else
                   "unexpected end of input")


def parse_problem(text: str) -> Problem:
    """Parse problem text into a Problem.

    Raises ParseError (with line/column) on malformed input, on a literal
    outside the double range and on an equality whose folded coefficients
    are not finite, and UndeclaredVariable when a name is not declared.
    """
    return _Parser(text).parse()


def parse_expression(text: str) -> Expr:
    """Parse a standalone arithmetic expression (test/tooling helper)."""
    p = _Parser(text)
    e = p._expr()
    if p.peek().kind != "EOF":
        p.error("trailing input after expression")
    return e

