"""Expression parser/evaluator: precedence, errors, round-trip
stability, and differential testing against an independent
shunting-yard evaluator."""

import math

import numpy as np
import pytest

from favard import expr as ex


# ---------------------------------------------------------------------------
# reference evaluator: a separate shunting-yard implementation, shared
# grammar, used only as an oracle
# ---------------------------------------------------------------------------

_REF_FN = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "log": math.log, "tanh": math.tanh, "cosh": math.cosh,
    "sinh": math.sinh, "sqrt": math.sqrt, "abs": abs,
}
_REF_CONST = {"pi": math.pi, "e": math.e}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "u-": 3, "^": 4}
_RIGHT = {"^", "u-"}


def _ref_tokens(src):
    out, i = [], 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(src) and (src[j].isdigit() or src[j] in ".eE"
                                    or (src[j] in "+-" and src[j - 1] in "eE")):
                j += 1
            out.append(("num", float(src[i:j])))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(src) and src[j].isalnum():
                j += 1
            out.append(("name", src[i:j]))
            i = j
        else:
            out.append(("op", ch))
            i += 1
    return out


def ref_eval(src, x):
    # shunting-yard to RPN, then stack evaluation
    tokens = _ref_tokens(src)
    output, ops = [], []
    prev = None
    for kind, val in tokens:
        if kind == "num":
            output.append(("num", val))
        elif kind == "name":
            if val in _REF_FN:
                ops.append(("fn", val))
            elif val in _REF_CONST:
                output.append(("num", _REF_CONST[val]))
            else:
                output.append(("var", val))
        elif val == "(":
            ops.append(("op", "("))
        elif val == ")":
            while ops and ops[-1][1] != "(":
                output.append(ops.pop())
            ops.pop()
            if ops and ops[-1][0] == "fn":
                output.append(ops.pop())
        else:
            op = val
            if op == "-" and (prev is None or prev == ("op", "(")
                              or (prev[0] == "op" and prev[1] not in ")")):
                op = "u-"
            while (ops and ops[-1][0] == "op" and ops[-1][1] != "("
                   and (_PREC[ops[-1][1]] > _PREC[op]
                        or (_PREC[ops[-1][1]] == _PREC[op] and op not in _RIGHT))):
                output.append(ops.pop())
            ops.append(("op", op))
        prev = (kind if kind != "op" else "op", val)
    while ops:
        output.append(ops.pop())
    stack = []
    for kind, val in output:
        if kind == "num":
            stack.append(val)
        elif kind == "var":
            stack.append(x)
        elif kind == "fn":
            stack.append(_REF_FN[val](stack.pop()))
        elif val == "u-":
            stack.append(-stack.pop())
        else:
            b, a = stack.pop(), stack.pop()
            if val == "+":
                stack.append(a + b)
            elif val == "-":
                stack.append(a - b)
            elif val == "*":
                stack.append(a * b)
            elif val == "/":
                stack.append(a / b)
            else:
                stack.append(a ** b)
    assert len(stack) == 1
    return stack[0]


# ---------------------------------------------------------------------------
# random expression generator (always well-formed)
# ---------------------------------------------------------------------------

def random_expr(rng, depth=0):
    roll = rng.random()
    if depth > 4 or roll < 0.25:
        leaf = rng.random()
        if leaf < 0.4:
            return "x"
        if leaf < 0.5:
            return rng.choice(["pi", "e"])
        return f"{rng.uniform(0.1, 4.0):.3f}"
    if roll < 0.45:
        fn = rng.choice(["sin", "cos", "exp", "tanh", "cosh", "sinh", "abs"])
        return f"{fn}({random_expr(rng, depth + 1)})"
    if roll < 0.55:
        return f"-({random_expr(rng, depth + 1)})"
    op = rng.choice(["+", "-", "*", "/"])
    lhs = random_expr(rng, depth + 1)
    rhs = random_expr(rng, depth + 1)
    if rng.random() < 0.15:
        return f"({lhs}){op}({rhs})^2"
    return f"({lhs}){op}({rhs})"


def test_spec_precedence_examples():
    assert ex.evaluate(ex.parse("1/(1+x^4)"), 1.0) == 0.5
    assert ex.evaluate(ex.parse("sin(x)/(1+x^4)"), 0.0) == 0.0
    assert ex.evaluate(ex.parse("exp(-x^2)"), 0.0) == 1.0
    assert ex.evaluate(ex.parse("2^3^2"), 0.0) == 512.0  # right-assoc
    assert ex.evaluate(ex.parse("-x^2"), 2.0) == -4.0  # unary binds looser
    assert ex.evaluate(ex.parse("1/cosh(x)"), 0.0) == 1.0


def test_constants_and_names():
    assert abs(ex.evaluate(ex.parse("pi"), 0.0) - math.pi) < 1e-16
    assert abs(ex.evaluate(ex.parse("e^2"), 0.0) - math.e**2) < 1e-14
    assert ex.evaluate(ex.parse("abs(-3.5)"), 0.0) == 3.5


def test_vectorized_evaluation():
    f = ex.compile_function("x*exp(-x^2)")
    x = np.linspace(-2.0, 2.0, 9)
    assert np.max(np.abs(f(x) - x * np.exp(-(x**2)))) < 1e-16
    assert f.expression == "x*exp(-x^2)"


def test_differential_vs_shunting_yard():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 1000:
        src = random_expr(rng)
        x = float(rng.uniform(-2.0, 2.0))
        try:
            want = ref_eval(src, x)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        if not math.isfinite(want):
            continue
        got = ex.evaluate(ex.parse(src), x)
        scale = max(1.0, abs(want))
        assert abs(got - want) < 1e-12 * scale, src
        checked += 1


def test_parse_error_reports_position():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("1 + @")
    assert "offset 4" in str(err.value)
    with pytest.raises(ex.ParseError):
        ex.parse("sin(x")
    with pytest.raises(ex.ParseError):
        ex.parse("")
    with pytest.raises(ex.ParseError):
        ex.parse("nope(x)")


def test_domain_errors_are_structured():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse("log(0-1)"), 0.0)
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse("1/x"), 0.0)
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.parse("sqrt(0-x)"), 4.0)


def test_fuzz_no_crashes():
    rng = np.random.default_rng(13)
    alphabet = list("xe1230.+-*/^()spinqrtcoabh ")
    for _ in range(3000):
        length = int(rng.integers(1, 24))
        junk = "".join(rng.choice(alphabet) for _ in range(length))
        try:
            tree = ex.parse(junk)
            ex.evaluate(tree, 0.7)
        except (ex.ParseError, ex.EvalError, OverflowError):
            pass  # structured failures only


def test_integer_powers_keep_parity_bit_for_bit():
    # x^k with a literal integer k is formed by repeated squaring: an even
    # expression is even bit for bit on a mirrored grid, and x^2 is x*x
    x = np.linspace(-30.0, 30.0, 8193)
    assert np.array_equal(x[::-1], -x)
    v = ex.compile_function("exp(-x^2)/(1+x^4)")(x)
    assert np.array_equal(v, v[::-1])
    assert np.array_equal(ex.compile_function("x^2")(x), x * x)
    assert np.array_equal(ex.compile_function("x^7")(x), -ex.compile_function("x^7")(x[::-1]))
    assert np.array_equal(ex.compile_function("x^0")(x), np.ones_like(x))
    assert ex.compile_function("x^3")(2.0) == 8.0
    # any other exponent keeps np.power
    assert ex.compile_function("x^2.5")(4.0) == 32.0
    assert ex.compile_function("x^-1")(4.0) == 0.25


def test_even_function_has_exactly_zero_odd_coefficients():
    from favard.basis import make_basis
    from favard.coeffs import coeffs_xspace

    f = ex.compile_function("exp(-x^2)/(1+x^4)")
    values = coeffs_xspace(f, make_basis("hermite", N=8), 4).values
    assert np.all(values[1::2] == 0.0)
    assert np.all(values[0::2] != 0.0)
