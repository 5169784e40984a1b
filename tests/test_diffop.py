"""Tridiagonal skew-Hermitian differentiation matrices: structure,
application, exponential unitarity, spectral radius growth."""

import numpy as np
import pytest

from favard import diffop
from favard import recurrence as rec
from favard.quadrature import golub_welsch

FAMILIES = {
    "hermite": rec.hermite_coeffs,
    "legendre": lambda n: rec.ultraspherical_coeffs(0.0, n),
    "laguerre": lambda n: rec.laguerre_coeffs(0.0, n),
}


def build_for(coeff_fn, N):
    J = rec.build_jacobi(coeff_fn, N + 1)
    return diffop.build(J, N)


def test_bands_follow_recurrence_coefficients():
    N = 10
    D = build_for(rec.hermite_coeffs, N)
    for n in range(N - 1):
        b = np.sqrt((n + 1) / 2.0)
        assert abs(D.sub[n] - b) < 1e-15
        assert abs(D.super[n] + b) < 1e-15
    assert np.max(np.abs(D.diag)) == 0.0


def test_dense_is_skew_hermitian():
    for coeff in (rec.hermite_coeffs, lambda n: rec.laguerre_coeffs(1.0, n)):
        M = build_for(coeff, 12).dense()
        assert np.max(np.abs(M + M.conj().T)) < 1e-15


def test_apply_matches_dense():
    rng = np.random.default_rng(3)
    N = 16
    D = build_for(rec.hermite_coeffs, N)
    a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    assert np.max(np.abs(diffop.apply(D, a) - D.dense() @ a)) < 1e-14


def test_apply_differentiates_hermite_expansion():
    # coefficient map of d/dx: synthesize, differentiate, compare
    from favard.basis import hermite_function_table, make_basis
    from favard.coeffs import coeffs_xspace
    basis = make_basis("hermite", N=40)
    f = lambda x: np.exp(-0.5 * x**2) * np.sin(x)
    a = coeffs_xspace(f, basis, 40)
    D = diffop.build(basis.jacobi, 40)
    da = diffop.apply(D, a.values)
    x = np.linspace(-5.0, 5.0, 101)
    table = hermite_function_table(39, x)
    fprime = np.exp(-0.5 * x**2) * (np.cos(x) - x * np.sin(x))
    assert np.max(np.abs(da @ table - fprime)) < 1e-10


def test_expm_apply_is_unitary():
    rng = np.random.default_rng(5)
    for coeff in (rec.hermite_coeffs, lambda n: rec.laguerre_coeffs(0.0, n)):
        D = build_for(coeff, 64)
        a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = diffop.expm_apply(D, 1.0, a)
        assert abs(np.linalg.norm(out) - np.linalg.norm(a)) < 1e-12


def test_expm_apply_matches_scipy_expm():
    import scipy.linalg
    rng = np.random.default_rng(7)
    D = build_for(rec.hermite_coeffs, 24)
    a = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    ref = scipy.linalg.expm(0.7 * D.dense()) @ a
    assert np.max(np.abs(diffop.expm_apply(D, 0.7, a) - ref)) < 1e-11


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_expm_apply_round_trip_large_n(family):
    # e^{-tau D} e^{tau D} = I and e^{tau D} unitary, at a size where the
    # largest node phase tau x_k is far beyond 2 pi
    rng = np.random.default_rng(11)
    N = 1024
    D = build_for(FAMILIES[family], N)
    a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    a /= np.linalg.norm(a)
    out = diffop.expm_apply(D, 1.3, a)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    assert np.max(np.abs(diffop.expm_apply(D, -1.3, out) - a)) < 1e-12


def test_eigensystem_computed_once(monkeypatch):
    calls = []
    solve = diffop.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(kwargs.get("lapack_driver"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(diffop, "eigh_tridiagonal", counting)
    D = build_for(rec.hermite_coeffs, 32)
    a = np.ones(32, dtype=complex)
    for tau in (0.5, -0.25, 2.0):
        diffop.expm_apply(D, tau, a)
    diffop.spectral_radius(D)
    assert calls == ["stemr"]


def test_expm_apply_translates_hermite_functions():
    # e^{tau D} is translation by tau in x-space
    from favard.basis import hermite_function_table, make_basis
    from favard.coeffs import coeffs_xspace
    basis = make_basis("hermite", N=48)
    f = lambda x: np.exp(-((x - 0.3) ** 2))
    a = coeffs_xspace(f, basis, 48)
    D = diffop.build(basis.jacobi, 48)
    tau = 0.9
    b = diffop.expm_apply(D, tau, a.values)
    x = np.linspace(-4.0, 4.0, 81)
    table = hermite_function_table(47, x)
    assert np.max(np.abs(b @ table - f(x + tau))) < 1e-9


def test_spectral_radius_growth_ordering():
    # Hermite radius grows like sqrt(N), Laguerre like N
    rh = [diffop.spectral_radius(build_for(rec.hermite_coeffs, N))
          for N in (16, 64, 256)]
    rl = [diffop.spectral_radius(
        build_for(lambda n: rec.laguerre_coeffs(0.0, n), N))
        for N in (16, 64, 256)]
    assert rh[0] < rh[1] < rh[2]
    assert rl[0] < rl[1] < rl[2]
    # ratio across a 4x size step: sqrt(4) = 2 vs 4
    assert rh[2] / rh[1] < 2.5
    assert rl[2] / rl[1] > 3.0
    # Laguerre dominates Hermite at every size
    for a, c in zip(rh, rl):
        assert a < c


def test_spectral_radius_hermite_value():
    # Hermite D_N has purely imaginary eigenvalues; radius equals the
    # largest |eigenvalue| of the dense matrix
    D = build_for(rec.hermite_coeffs, 32)
    ev = np.linalg.eigvals(D.dense())
    assert abs(diffop.spectral_radius(D) - np.max(np.abs(ev))) < 1e-10


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_spectral_radius_is_largest_gauss_node(family):
    J = rec.build_jacobi(FAMILIES[family], 513)
    nodes = golub_welsch(J, 512).nodes
    ref = float(np.max(np.abs(nodes)))
    assert abs(diffop.spectral_radius(diffop.build(J, 512)) - ref) < 1e-12 * ref


def test_spectral_radius_single_mode():
    J = rec.build_jacobi(lambda n: rec.laguerre_coeffs(0.0, n), 2)
    D = diffop.build(J, 1)
    assert diffop.spectral_radius(D) == abs(float(J.c[0]))
    assert np.allclose(diffop.expm_apply(D, 0.5, np.array([1.0 + 0j])),
                       np.exp(0.5j * J.c[0]), rtol=0.0, atol=1e-15)
