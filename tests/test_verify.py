"""Diagnostic checks: report structure, Gram strategies, the exact
Legendre tail integrals, Cramer, Ramanujan, identity, and support."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.fft
import scipy.special

from favard import basis as basis_mod
from favard import verify as ver
from favard.basis import make_basis
from favard.periodic import charlier_basis


def test_report_shape_and_schema():
    rep = ver.check_cramer(N=10, samples=501)
    assert rep.passed
    d = rep.as_dict()
    assert d["schema"] == "favard.report/1"
    assert set(d) >= {"name", "max_abs_error", "tolerance", "pass", "metadata"}
    assert d["pass"] is True


def test_gram_all_closed_form_families():
    for family in ("hermite", "mt", "legendre", "tanhjacobi:0.75,0.75"):
        rep = ver.check_gram(make_basis(family, N=14), N=12)
        assert rep.passed, family
        assert rep.max_abs_error < 1e-10, family


def test_gram_periodic_branch():
    rep = ver.check_gram(charlier_basis(0.5, N=10), N=8)
    assert rep.passed
    assert rep.metadata["strategy"] == "trapezoid"
    assert rep.max_abs_error < 1e-12


def test_recurrence_all_closed_form_families():
    for family in ("hermite", "mt", "legendre", "tanhjacobi:0.75,0.75"):
        rep = ver.check_recurrence(make_basis(family, N=14), N=10)
        assert rep.passed, family
        assert rep.max_abs_error < 1e-8, family


def test_recurrence_periodic_branch():
    rep = ver.check_recurrence(charlier_basis(0.5, N=12), N=10)
    assert rep.passed
    assert rep.metadata["strategy"] == "fourier-exact"
    assert rep.max_abs_error < 1e-12


def test_legendre_tail_hand_formula():
    # the n = m = 0 tail has the closed form
    # (sin^2 X / X + pi/2 - Si(2X)) / pi; mpmath value at X = 30 frozen
    X = 30.0
    si, _ = scipy.special.sici(2.0 * X)
    hand = (np.sin(X) ** 2 / X + np.pi / 2.0 - si) / np.pi
    assert abs(hand - 0.0052810560453290825) < 1e-17
    got = ver._legendre_tail(0, 0, X, *ver._sph_coeffs(0))
    assert abs(got - hand) < 1e-16


def test_legendre_tail_window_additivity():
    # T(X) = int_X^Y + T(Y): the exact tails must agree with a dense
    # trapezoid over the finite strip
    import scipy.integrate
    X, Y = 30.0, 90.0
    s, c = ver._sph_coeffs(4)
    x = np.linspace(X, Y, 240001)
    from favard.basis import transformed_legendre
    for m, n in ((0, 0), (1, 3), (2, 4)):
        strip = scipy.integrate.simpson(
            transformed_legendre(m, x) * transformed_legendre(n, x), x=x)
        got = ver._legendre_tail(m, n, X, s, c) - ver._legendre_tail(m, n, Y, s, c)
        assert abs(got - strip) < 1e-13, (m, n)


def test_cramer_bound_attained_at_origin():
    rep = ver.check_cramer(N=50)
    assert rep.passed
    assert rep.metadata["argmax_n"] == 0
    assert abs(rep.metadata["argmax_x"]) < 1e-12


def test_ramanujan_each_a():
    for a in (0.5, 1.0, 1.5):
        rep = ver.check_ramanujan(a)
        assert rep.passed, a
        assert rep.max_abs_error < 1e-10, a


def test_ramanujan_hand_values():
    # right side sqrt(pi) Gamma(a) Gamma(a+1/2) / cosh^{2a}(x/2):
    # a = 1/2, x = 0 -> pi;  a = 1, x = 0 -> pi/2
    assert abs(np.sqrt(np.pi) * scipy.special.gamma(0.5) * scipy.special.gamma(1.0) - np.pi) < 1e-14
    assert abs(np.sqrt(np.pi) * scipy.special.gamma(1.0) * scipy.special.gamma(1.5) - np.pi / 2.0) < 1e-14


def test_tanh_jacobi_identity_symmetric():
    rep = ver.check_tanh_jacobi_identity(0.75, 0.75)
    assert rep.passed
    assert rep.max_abs_error < 1e-10


def test_tanh_jacobi_identity_asymmetric_gate():
    with pytest.raises(ValueError):
        ver.check_tanh_jacobi_identity(0.5, 1.0)
    rep = ver.check_tanh_jacobi_identity(0.5, 1.0, N=3, experimental=True)
    assert rep.passed


def test_pw_support_legendre_inside_band():
    rep = ver.check_pw_support(make_basis("legendre", N=8), n=0)
    assert rep.passed
    assert rep.max_abs_error < 1e-6


def test_pw_support_hermite_expected_fail(monkeypatch):
    # Hermite functions are not bandlimited; the check must fail loudly
    # and flag itself as an expected failure, without sampling anything
    def refuse(*args, **kwargs):
        raise AssertionError("a non-compact support needs no samples")

    monkeypatch.setattr(basis_mod, "phi", refuse)
    monkeypatch.setattr(basis_mod, "phi_grid", refuse)
    rep = ver.check_pw_support(make_basis("hermite", N=8), n=2)
    assert rep.as_dict() == {
        "schema": "favard.report/1", "name": "pw-support", "max_abs_error": 1.0,
        "tolerance": 1e-6, "pass": False,
        "metadata": {"family": "hermite", "n": 2, "support": (-np.inf, np.inf),
                     "M": 2**23, "dx": 3.0, "expected_fail": True},
    }
    assert list(rep.metadata) == ["family", "n", "support", "M", "dx", "expected_fail"]


def _pw_ratio_full_grid(basis, n, M, dx=3.0, taper=3.5):
    # every row 0..n on the whole grid, as the check was first written
    x = (np.arange(M) - M / 2 + 0.5) * dx
    vals = basis_mod.phi_grid(basis, n, x)[n]
    g = vals * np.exp(-0.5 * (x / ((0.5 * M * dx) / taper)) ** 2)
    assert np.max(np.abs(g.imag)) < 1e-14 * np.max(np.abs(g.real))
    energy = np.abs(scipy.fft.rfft(g.real)) ** 2
    energy[1:] *= 2.0
    k = 2.0 * math.pi * np.fft.rfftfreq(M, d=dx)
    return float(energy[k > 1.0].sum()) / float(energy.sum())


@pytest.mark.parametrize("M", [2**16, 2**16 + 1])
@pytest.mark.parametrize("symmetric", [True, False])
def test_pw_support_one_row_matches_full_grid_exactly(M, symmetric):
    # the half grid mirrored by parity (symmetric measure) and the plain
    # full grid must both reproduce the all-rows full-grid ratio bit for bit
    basis = make_basis("legendre", N=8)
    if not symmetric:
        basis.measure = dataclasses.replace(basis.measure, symmetric=False)
    for n in range(6):
        rep = ver.check_pw_support(basis, n=n, M=M)
        assert rep.max_abs_error == _pw_ratio_full_grid(basis, n, M), n
        assert rep.metadata == {"family": "legendre", "n": n, "support": (-1.0, 1.0),
                                "M": M, "dx": 3.0}


def test_pw_support_rejects_negative_index():
    for family in ("legendre", "hermite"):
        with pytest.raises(ValueError):
            ver.check_pw_support(make_basis(family, N=8), n=-1, M=2**10)
