"""Properties every family keeps at any size: D is skew-Hermitian, the flows
e^{tau P(D)} of translation, the free flow and Airy are unitary and heat
contracts, the Gauss weights are a probability vector, and nothing warns.

Hypothesis draws the family, its parameters, N up to 1024 (64 for the
Charlier lattice, whose cutoff search refuses much larger sizes at small a)
and the symbol P.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard import diffop
from favard.basis import make_basis
from favard.quadrature import golub_welsch


def _param(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(repr)


def _pair(lo, hi):
    return st.tuples(_param(lo, hi), _param(lo, hi)).map(",".join)


# family -> (its names, the largest N drawn)
FAMILIES = {
    "hermite": (st.just("hermite"), 1024),
    "legendre": (st.just("legendre"), 1024),
    "laguerre": (_param(-0.5, 4.0).map("laguerre:{}".format), 1024),
    "jacobi": (_pair(-0.5, 3.0).map("jacobi:{}".format), 1024),
    "conthahn": (_pair(0.25, 3.0).map("conthahn:{}".format), 1024),
    "charlier": (_param(0.5, 5.0).map("charlier:{}".format), 64),
}


# P(z) by its coefficients, and whether e^{tau P(D)} is unitary; heat runs
# forward only (tau >= 0), where it contracts
SYMBOLS = {"translation": ((0, 1), True), "free": ((0, 0, 1j), True),
           "heat": ((0, 0, 1), False), "airy": ((0, 0, 0, -1), True)}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_operators_and_rules_of_any_family(kind, data):
    names, largest = FAMILIES[kind]
    family = data.draw(names)
    N = data.draw(st.integers(1, largest))
    tau = data.draw(st.floats(-2.0, 2.0))
    symbol = data.draw(st.sampled_from(sorted(SYMBOLS)))
    P, unitary = SYMBOLS[symbol]
    tau = tau if unitary else abs(tau)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    v /= np.linalg.norm(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        basis = make_basis(family, N=N)
        D = diffop.build(basis.jacobi, N)
        moved = diffop.flow(D, tau, P, v)
        rule = golub_welsch(basis.jacobi, N)
    dense = D.dense()
    assert np.array_equal(dense, -dense.conj().T), family
    if unitary:
        assert abs(np.linalg.norm(moved) - 1.0) <= 1e-12, (family, N, symbol, tau)
    else:
        assert np.linalg.norm(moved) <= 1.0 + 1e-12, (family, N, symbol, tau)
    assert np.all(rule.weights >= 0.0), (family, N)
    assert abs(np.sum(rule.weights) - 1.0) <= 1e-13, (family, N)
