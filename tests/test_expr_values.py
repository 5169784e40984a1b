"""Expression values: the NumPy operations an expression evaluates to, in
their order, pinned bit for bit, and the one finiteness check on the value."""

import re

import numpy as np
import pytest

from favard import expr as ex

# each expression against the NumPy formula it is, operation for operation:
# x^k with a literal integer k >= 0 is repeated squaring, any other power
# is np.power, a bare number or constant is that number at every x
ORDER = [
    ("exp(-x^4)", lambda x: np.exp(-((x * x) * (x * x)))),
    ("1/(1+(2*x)^4)", lambda x: 1.0 / (1.0 + ((2.0 * x) * (2.0 * x)) * ((2.0 * x) * (2.0 * x)))),
    ("x^2+x", lambda x: x * x + x),
    ("-x^2", lambda x: -(x * x)),
    ("2^3^2", lambda x: np.power(2.0, 3.0 * 3.0) + 0.0 * x),
    ("sin(x)/(1+x^4)", lambda x: np.sin(x) / (1.0 + (x * x) * (x * x))),
    ("pi*x", lambda x: np.pi * x),
    ("e^2", lambda x: np.e * np.e + 0.0 * x),
    ("x^(3)", lambda x: x * (x * x)),
    ("(1+x^2)^-2", lambda x: np.power(1.0 + x * x, np.full_like(x, -2.0))),
    # a scalar exponent 0.5 would take np.power's sqrt shortcut, which rounds apart
    ("(1+x^2)^0.5", lambda x: np.power(1.0 + x * x, np.full_like(x, 0.5))),
]


@pytest.mark.parametrize("src, formula", ORDER, ids=[src for src, _ in ORDER])
def test_evaluation_order_is_pinned_bit_for_bit(src, formula):
    x = np.linspace(-4.0, 4.0, 1025)  # step 2^-7: every point exact
    assert np.array_equal(x[::-1], -x)
    f = ex.compile_function(src)
    got = f(x)
    assert got.shape == x.shape and np.array_equal(got, formula(x)), src
    scalar = f(0.7)
    assert type(scalar) is float and scalar == formula(np.asarray(0.7)), src


@pytest.mark.parametrize("src, x, want", [
    ("1/cosh(x)", 1e9, 0.0),  # cosh overflows, its reciprocal does not
    ("exp(-1/x^2)", 0.0, 0.0),  # 1/0 = inf feeds exp(-inf)
    ("log(0-x)^0", 1.0, 1.0),  # NaN^0 is 1, as np.power has it
])
def test_an_infinite_or_nan_step_with_a_finite_value_is_accepted(src, x, want):
    assert ex.evaluate(ex.parse(src), x) == want
    assert np.array_equal(ex.compile_function(src)(np.array([x, x])), [want, want])


@pytest.mark.parametrize("src", ["1/0", "2*3/(1-1)", "1e400", "-1e400", "log(0)"])
def test_a_non_finite_value_names_the_expression(src):
    with pytest.raises(ex.EvalError, match="^" + re.escape(repr(src))):
        ex.evaluate(ex.parse(src), 0.0)


def test_the_first_non_finite_point_is_named():
    with pytest.raises(ex.EvalError, match="at x = 0$"):
        ex.compile_function("1/x")(np.linspace(-1.0, 1.0, 5))
    with pytest.raises(ex.EvalError, match="at x = -1000000000$"):
        ex.compile_function("exp(-x^2)*cosh(x)")(np.array([0.0, -1e9, 1e9]))
