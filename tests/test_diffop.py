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


def test_eigensystem_computed_once(solves):
    D = build_for(rec.hermite_coeffs, 32)
    a = np.ones(32, dtype=complex)
    for tau in (0.5, -0.25, 2.0):
        diffop.expm_apply(D, tau, a)
    diffop.spectral_radius(D)
    assert solves == ["dbdsdc"]


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


SYMMETRIC = ("hermite", "legendre", "ultraspherical:1.5", "conthahn:1,1", "tanhjacobi:0.75,0.75")


@pytest.mark.parametrize("family", SYMMETRIC)
@pytest.mark.parametrize("N", [1, 2, 3, 63, 64])
def test_folded_operators_match_dense_expm(family, N):
    # a zero diagonal folds the eigensystem by parity, odd N included;
    # exp(tau D) and the free flow exp(i t D^2) must equal the dense ones
    import scipy.linalg
    from favard.basis import make_basis
    from favard.schrodinger import free_coeff_step
    D = diffop.build(make_basis(family, N=N).jacobi, N)
    assert isinstance(D.eigensystem, diffop.FoldedEigensystem)
    rng = np.random.default_rng(N)
    a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    dense = D.dense()
    ref = scipy.linalg.expm(0.7 * dense) @ a
    assert np.max(np.abs(diffop.expm_apply(D, 0.7, a) - ref)) < 1e-12
    ref = scipy.linalg.expm(0.3j * (dense @ dense)) @ a
    # the phase 0.3 x^2 turns a node's rounding (a few ulps of x) into about
    # 0.6 x^2 eps: 1e-12 up to radius 18, more for the continuous Hahn
    # families (radius 29 and 57 at N = 64), exact nodes or not
    tol = 1e-14 * max(100.0, 0.3 * diffop.spectral_radius(D) ** 2)
    assert np.max(np.abs(free_coeff_step(D, 0.3, a) - ref)) < tol


@pytest.mark.parametrize("family", ["laguerre", "mt", "custom-weight:exp(-x^4)"])
def test_nonzero_diagonal_does_not_fold(family):
    # the symmetric custom weight's Stieltjes-built c is about 2e-16, not 0:
    # only an exactly zero diagonal proves the +-x node pairing
    from favard.basis import make_basis
    D = diffop.build(make_basis(family, N=16).jacobi, 16)
    assert np.any(D.diag)
    assert not isinstance(D.eigensystem, diffop.FoldedEigensystem)


def test_i_powers_table_is_the_complex_powers_bitwise():
    # the lookup that replaces 1j ** (n % 4) and (-1j) ** (n % 4) in the
    # basis, coefficient, periodic and Strang code, signed zeros included
    n = np.arange(-9, 40)
    assert np.array_equal(diffop._I_POWERS[n % 4].view(np.int64),
                          (1j ** (n % 4)).view(np.int64))
    assert np.array_equal(diffop._I_POWERS[-n % 4].view(np.int64),
                          ((-1j) ** (n % 4)).view(np.int64))


def _stemr_blocks(b, N):
    """The folded blocks cut from stemr's full eigenvectors, signed by the last row."""
    import scipy.linalg
    x, V = scipy.linalg.eigh_tridiagonal(np.zeros(N), b[:N - 1], lapack_driver="stemr")
    V = diffop._sign_columns(V)
    h, r = N // 2, N % 2
    return x, V[0::2, h:], V[1::2, h + r:]


@pytest.mark.parametrize("family", ["hermite", "legendre"])
@pytest.mark.parametrize("N", [1, 2, 3, 7, 63, 64, 512, 513, 1024])
def test_folded_blocks_match_stemr(family, N):
    # the half-size solve gives stemr's blocks, signs included, and the
    # Gauss rule's nodes bit for bit
    J = rec.build_jacobi(FAMILIES[family], N + 1)
    eig = diffop.build(J, N).eigensystem
    x, U, W = _stemr_blocks(J.b, N)
    assert U.shape == eig.U.shape and W.shape == eig.W.shape
    assert np.max(np.abs(eig.U - U), initial=0.0) < 1e-12
    assert np.max(np.abs(eig.W - W), initial=0.0) < 1e-12
    assert np.max(np.abs(eig.x - x)) < 1e-12 * max(1.0, x[-1])
    assert np.array_equal(eig.x, golub_welsch(J, N).nodes)
    if N % 2:
        assert eig.x[N // 2] == 0.0


def test_folded_blocks_are_orthogonal():
    # U^T U = W^T W = I/2 (the centre column of odd N has norm 1); stemr's
    # blocks miss this by about 1e-13 at N = 1024
    for N in (1023, 1024):
        eig = diffop.build(rec.build_jacobi(rec.hermite_coeffs, N), N).eigensystem
        h, r = N // 2, N % 2
        half = np.full(h + r, 0.5)
        half[:r] = 1.0
        assert np.max(np.abs(eig.U.T @ eig.U - np.diag(half))) < 1e-14
        assert np.max(np.abs(eig.W.T @ eig.W - 0.5 * np.eye(h))) < 1e-14
        assert np.max(np.abs(eig.U[:, r:].T @ eig.U[:, r:] - eig.W.T @ eig.W)) < 1e-14


@pytest.mark.parametrize("name", ["dlasq1", "dbdsdc"])
def test_lapack_failure_raises_eigen_error(monkeypatch, name):
    # a nonzero info from either routine surfaces as EigenError at the solve
    from favard import _lapack
    from favard.errors import EigenError
    routine = _lapack._routine

    def failing(*args):
        args[-1]._obj.value = 3  # info

    monkeypatch.setattr(_lapack, "_routine", lambda n: failing if n == name else routine(n))
    with pytest.raises(EigenError, match=f"{name} failed .* order 4: info=3"):
        diffop.build(rec.build_jacobi(rec.hermite_coeffs, 9), 8).eigensystem
    if name == "dlasq1":
        with pytest.raises(EigenError, match="dlasq1"):
            golub_welsch(rec.build_jacobi(rec.hermite_coeffs, 8), 8)
