"""A small arithmetic-expression language for CLI arguments.

Grammar (standard precedence, ^ right-associative and tighter than unary
minus):

    expr  := term  (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'

Functions: sin cos tan exp log tanh cosh sinh sqrt abs.  Parsing builds NumPy
closures, one ufunc call per operation, with IEEE double semantics elementwise;
x^k with a non-negative integer literal k is formed by repeated squaring, so
that it has the parity of k bit for bit.  A step may overflow on the way
(1/cosh(x) is 0 where cosh does): only the value is checked, once, and where it
is not finite (log of a non-positive value, division by zero, a literal past
the double range) EvalError names the expression and the x.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = [
    "ParseError",
    "EvalError",
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
    """An expression whose value is not finite at some x; ``values`` holds it at every x."""


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
            node = _arithmetic(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            node = _arithmetic(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.take()
            arg = _closure(self.unary())
            return lambda x: np.negative(arg(x))
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.take()
            return _power(node, self.unary())
        return node

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return float(value)
        if kind == "name":
            if value in FUNCTIONS:
                self.expect("(")
                fn, arg = FUNCTIONS[value], _closure(self.expr())
                self.expect(")")
                return lambda x: fn(arg(x))
            if value in CONSTANTS:
                return CONSTANTS[value]
            if value == "x":
                return lambda x: x
            raise ParseError(f"unknown identifier {value!r}", pos,
                             expected=("x", *sorted(FUNCTIONS), *sorted(CONSTANTS)))
        if value == "(":
            node = self.expr()
            self.expect(")")
            return node
        shown = value if kind != "end" else "end of input"
        raise ParseError(f"unexpected {shown!r}", pos,
                         expected=("number", "name", "'('", "'-'"))


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _closure(node):
    """A parsed node as a function of x: a number is itself at every x."""
    if callable(node):
        return node
    return lambda x: np.full_like(x, node) if x.ndim else node


def _arithmetic(op: str, lhs, rhs):
    """lhs op rhs; a number on either side enters the ufunc as a scalar, which
    + - * / round as they would the number at every x."""
    ufunc = _ARITHMETIC[op]
    if not callable(rhs):
        lhs = _closure(lhs)
        return lambda x: ufunc(lhs(x), rhs)
    if not callable(lhs):
        return lambda x: ufunc(lhs, rhs(x))
    return lambda x: ufunc(lhs(x), rhs(x))


def _power(base, exponent):
    """base^exponent: repeated squaring for an integer literal >= 0, else np.power with
    the exponent at every x (a scalar one takes shortcuts that round differently)."""
    base = _closure(base)
    if not callable(exponent) and exponent >= 0 and exponent.is_integer():
        k = int(exponent)
        return lambda x: _int_power(base(x), k)
    exponent = _closure(exponent)
    return lambda x: np.power(base(x), exponent(x))


def parse(src: str):
    """Parse ``src`` into a NumPy function of x; raises ParseError with position."""
    node = _closure(_Parser(src).parse())
    node.source = src
    return node


def evaluate(node, x):
    """The parsed ``node`` at ``x`` (scalar or array), IEEE double semantics;
    EvalError names the expression and the first x where it is not finite."""
    xs = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = node(xs)
    if not np.isfinite(out).all():
        error = EvalError(f"{node.source!r} is not finite at x = {xs[~np.isfinite(out)][0]:.17g}")
        error.values = out
        raise error
    return out if xs.ndim else float(out)


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
    node = parse(src)
    return lambda x: evaluate(node, x)
