"""A small arithmetic-expression language for CLI arguments.

Grammar (standard precedence, ^ right-associative and tighter than unary
minus):

    expr  := term  (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'

Functions: sin cos tan exp log tanh cosh sinh sqrt abs.  Evaluation follows
IEEE double semantics elementwise on numpy arrays; x^k with a non-negative
integer literal k is formed by repeated squaring, so that it has the parity
of k bit for bit.  Genuine domain errors (log of a non-positive value,
division by zero, sqrt of a negative) raise EvalError rather than
propagating non-finite values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParseError",
    "EvalError",
    "Num",
    "Var",
    "Const",
    "Unary",
    "Bin",
    "Call",
    "parse",
    "evaluate",
    "compile_function",
    "FUNCTIONS",
    "CONSTANTS",
]

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

CONSTANTS = {"pi": np.pi, "e": np.e}


class ParseError(ValueError):
    """Syntax error with the byte offset and the tokens that were expected."""

    def __init__(self, message: str, position: int, expected=()):
        self.position = position
        self.expected = tuple(expected)
        tail = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {position}{tail}")


class EvalError(ValueError):
    """Domain error during evaluation (log of non-positive, division by zero)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None or m.lastgroup is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, value, pos = self.peek()
        if value != text:
            shown = value if kind != "end" else "end of input"
            raise ParseError(f"unexpected {shown!r}", pos, expected=(repr(text),))
        return self.take()

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos,
                             expected=("operator", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.take()
            return Unary("-", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.take()
            return Bin("^", node, self.unary())
        return node

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return Num(float(value))
        if kind == "name":
            if value in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(value, arg)
            if value in CONSTANTS:
                return Const(value)
            if value == "x":
                return Var(value)
            raise ParseError(f"unknown identifier {value!r}", pos,
                             expected=("x", *sorted(FUNCTIONS), *sorted(CONSTANTS)))
        if value == "(":
            node = self.expr()
            self.expect(")")
            return node
        shown = value if kind != "end" else "end of input"
        raise ParseError(f"unexpected {shown!r}", pos,
                         expected=("number", "name", "'('", "'-'"))


def parse(src: str):
    """Parse ``src`` into an expression tree; raises ParseError with position."""
    return _Parser(src).parse()


def _check(values, what: str):
    if not np.all(np.isfinite(values)):
        raise EvalError(f"{what} produced a non-finite value")
    return values


def evaluate(node, x):
    """Evaluate a tree at ``x`` (scalar or array), IEEE double semantics."""
    xs = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _eval(node, xs)
    out = np.asarray(out, dtype=float)
    return out if xs.ndim else float(out)


def _eval(node, x):
    if isinstance(node, Num):
        return np.full_like(x, node.value) if x.ndim else node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return np.full_like(x, CONSTANTS[node.name]) if x.ndim else CONSTANTS[node.name]
    if isinstance(node, Unary):
        return -_eval(node.arg, x)
    if isinstance(node, Call):
        arg = _eval(node.arg, x)
        return _check(FUNCTIONS[node.fn](arg), node.fn)
    if isinstance(node, Bin):
        lhs = _eval(node.lhs, x)
        if (node.op == "^" and isinstance(node.rhs, Num) and node.rhs.value >= 0
                and float(node.rhs.value).is_integer()):
            return _check(_int_power(lhs, int(node.rhs.value)), "power")
        rhs = _eval(node.rhs, x)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            return _check(lhs / rhs, "division")
        return _check(np.power(lhs, rhs), "power")
    raise TypeError(f"not an expression node: {node!r}")


def _int_power(base, k: int):
    """base^k for an integer k >= 0 by repeated squaring: (-x)^k is exactly
    +-x^k and x^2 is x*x, which np.power with an array exponent misses."""
    out = None
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return np.ones_like(base) if out is None else out


def compile_function(src: str):
    """Parse once and return a vectorized numeric function of x."""
    tree = parse(src)
    return lambda x: evaluate(tree, x)
