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


@pytest.mark.parametrize("diag", [[0.0, 0.0, 0.0], [0.5, 1.0, 2.0]])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_bands_are_rejected(diag, bad):
    # LAPACK is never handed a band it would turn into nodes without an error
    with pytest.raises(ValueError, match="finite"):
        diffop.DiffMatrix(np.array([1.0, bad]), np.array(diag))
    with pytest.raises(ValueError, match="finite"):
        diffop.DiffMatrix(np.array([1.0, 1.0]), np.array(diag[:2] + [bad]))


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
def test_spectral_radius_is_largest_gauss_node(family, solves):
    # the radius reads the rule's nodes alone: a cold D solves for no vector
    J = rec.build_jacobi(FAMILIES[family], 513)
    nodes = golub_welsch(J, 512).nodes
    assert diffop.spectral_radius(diffop.build(J, 512)) == float(np.max(np.abs(nodes)))
    assert solves == []


@pytest.mark.parametrize("family,N", [("hermite", 63), ("hermite", 64), ("legendre", 64),
                                      ("mt", 64), ("laguerre:1", 64), ("jacobi:0.5,1.5", 64),
                                      ("custom-weight:exp(-abs(x-0.3))", 64)])
def test_operator_spectrum_is_the_gauss_rule_bitwise(family, N):
    # one node solve serves the rule, D's nodes, its eigensystem and its
    # spectral radius, whichever LAPACK route the diagonal takes
    from favard.basis import make_basis
    J = make_basis(family, N=N).jacobi
    nodes = golub_welsch(J, N).nodes
    D = diffop.build(J, N)
    assert np.array_equal(D.nodes, nodes)
    assert np.array_equal(D.eigensystem.x, nodes)
    assert diffop.spectral_radius(diffop.build(J, N)) == float(np.max(np.abs(nodes)))


@pytest.mark.parametrize("family,N", [("mt", 128), ("mt", 256), ("laguerre:1", 128),
                                      ("jacobi:0.5,1.5", 128), ("laguerre:1", 1)])
def test_lapack_tridiagonal_routines_match_scipy(family, N):
    # dsterf and dstemr through the capsule route give SciPy's sterf and
    # stemr bits: the same LAPACK, called with the same arguments
    import scipy.linalg
    from favard import _lapack
    from favard.basis import make_basis
    J = make_basis(family, N=N).jacobi
    c, b = np.asarray(J.c[:N]), np.asarray(J.b[:N - 1])
    x = scipy.linalg.eigvalsh_tridiagonal(c, b, lapack_driver="sterf")
    _, V = scipy.linalg.eigh_tridiagonal(c, b, lapack_driver="stemr")
    assert np.array_equal(_lapack.gauss_nodes(c, b), x)
    assert np.array_equal(_lapack.eigenvectors(c, b), V)


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


def _dense_pair(family, N):
    """D for the family at size N, and the dense e^{0.7 D} and e^{0.3 i D^2}."""
    import scipy.linalg
    from favard.basis import make_basis
    D = diffop.build(make_basis(family, N=N).jacobi, N)
    dense = D.dense()
    return D, scipy.linalg.expm(0.7 * dense), scipy.linalg.expm(0.3j * (dense @ dense))


@pytest.mark.parametrize("family", ["hermite", "legendre", "mt"])
@pytest.mark.parametrize("N", [1, 2, 5, 6, 63, 64])
def test_functions_of_d_match_dense_expm_for_every_occupancy(family, N):
    # the real Schur rotation (hermite, legendre; odd N has the centre node)
    # and the stemr phase (mt), on vectors with 0, 1, 2, N/3 and N leading
    # nonzero coefficients, which enter reads and no further
    from favard.schrodinger import free_coeff_step
    D, translate, flow = _dense_pair(family, N)
    radius = diffop.spectral_radius(D)
    rng = np.random.default_rng(N)
    for k in sorted({0, 1, 2, N // 3, N} & set(range(N + 1))):
        a = np.zeros(N, dtype=complex)
        a[:k] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        got = diffop.expm_apply(D, 0.7, a)
        assert np.max(np.abs(got - translate @ a)) < 1e-13 * max(10.0, 0.7 * radius)
        # the phase 0.3 x^2 turns a node's rounding into about 0.6 x^2 eps
        got = free_coeff_step(D, 0.3, a)
        assert np.max(np.abs(got - flow @ a)) < 1e-14 * max(100.0, 0.3 * radius ** 2)
        if k == 0:
            assert not np.any(diffop.expm_apply(D, 0.7, a))


@pytest.mark.parametrize("family", ["hermite", "legendre", "mt"])
def test_translation_group_law_and_unitarity_large_n(family):
    # e^{tau D} e^{sigma D} = e^{(tau + sigma) D}; tau, sigma and their sum
    # scale the nodes exactly, so only the products and cos, sin round
    from favard.basis import make_basis
    N = 1024
    D = diffop.build(make_basis(family, N=N).jacobi, N)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    a /= np.linalg.norm(a)
    once = diffop.expm_apply(D, 0.25, a)
    twice = diffop.expm_apply(D, -0.25, diffop.expm_apply(D, 0.5, a))
    assert np.max(np.abs(twice - once)) < 1e-13
    assert abs(np.linalg.norm(once) - 1.0) < 1e-13
    assert abs(np.linalg.norm(diffop.expm_apply(D, 1.3, a)) - 1.0) < 1e-13


@pytest.mark.parametrize("family", ["hermite", "laguerre"])
def test_coordinate_maps_take_one_product_per_block(monkeypatch, family):
    # a dense vector costs one product per block each way; a zero-padded one
    # enters through its leading rows only
    N = 64
    D = build_for(FAMILIES[family], N)
    eig = D.eigensystem
    folded = isinstance(eig, diffop.FoldedEigensystem)
    shapes, matmul = [], np.matmul

    def counted(A, B, *args, **kwargs):
        shapes.append(A.shape)
        return matmul(A, B, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    rng = np.random.default_rng(4)
    for k in (N, 21, 2, 1, 0):
        a = np.zeros(N, dtype=complex)
        a[:k] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        shapes.clear()
        f = eig.enter(a)
        assert shapes == ([(N // 2, (k + 1) // 2), (N // 2, k // 2)] if folded else [(N, k)])
        shapes.clear()
        back = eig.leave(f)
        assert shapes == ([(N // 2, N // 2)] * 2 if folded else [(N, N)])
        assert np.max(np.abs(back - a)) < 1e-13


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
    """The real Schur blocks cut from stemr's full eigenvectors, signed by the
    last row: the columns of x >= 0 by row parity, scaled to unit norm (sqrt2,
    1 at the centre), with the row sign (-1)^(k//2) of S."""
    import scipy.linalg
    x, V = scipy.linalg.eigh_tridiagonal(np.zeros(N), b[:N - 1], lapack_driver="stemr")
    h, r = N // 2, N % 2
    scale = np.full(N, np.sqrt(2.0))
    scale[h:h + r] = 1.0
    V = diffop._row_signs(N)[:, None] * diffop._sign_columns(V) * scale
    return x, V[0::2, h:], V[1::2, h + r:]


@pytest.mark.parametrize("family", ["hermite", "legendre"])
@pytest.mark.parametrize("N", [1, 2, 3, 7, 63, 64, 512, 513, 1024])
def test_folded_blocks_match_stemr(family, N):
    # the half-size solve gives stemr's blocks, signs included, and the
    # Gauss rule's nodes bit for bit
    J = rec.build_jacobi(FAMILIES[family], N + 1)
    eig = diffop.build(J, N).eigensystem
    x, Q, P = _stemr_blocks(J.b, N)
    assert Q.shape == eig.Q.shape and P.shape == eig.P.shape
    assert np.max(np.abs(eig.Q - Q), initial=0.0) < 2e-12
    assert np.max(np.abs(eig.P - P), initial=0.0) < 2e-12
    assert np.max(np.abs(eig.x - x)) < 1e-12 * max(1.0, x[-1])
    assert np.array_equal(eig.x, golub_welsch(J, N).nodes)
    if N % 2:
        assert eig.x[N // 2] == 0.0


def test_folded_blocks_are_orthogonal():
    # Q^T Q = P^T P = I, the real Schur vectors; stemr's blocks miss this by
    # about 1e-13 at N = 1024
    for N in (1023, 1024):
        eig = diffop.build(rec.build_jacobi(rec.hermite_coeffs, N), N).eigensystem
        h, r = N // 2, N % 2
        assert np.max(np.abs(eig.Q.T @ eig.Q - np.eye(h + r))) < 2e-14
        assert np.max(np.abs(eig.P.T @ eig.P - np.eye(h))) < 2e-14


@pytest.mark.parametrize("name", ["dlasq1", "dbdsdc", "dsterf", "dstemr"])
def test_lapack_failure_raises_eigen_error(monkeypatch, name):
    # a nonzero info from any routine surfaces as EigenError at the solve:
    # the bidiagonal of order 4 for a zero diagonal, the section of order 8
    # for any other
    from favard import _lapack
    from favard.errors import EigenError
    routine = _lapack._routine

    def failing(*args):
        args[-1]._obj.value = 3  # info

    monkeypatch.setattr(_lapack, "_routine", lambda n: failing if n == name else routine(n))
    coeffs, order = ((rec.hermite_coeffs, 4) if name in ("dlasq1", "dbdsdc")
                     else (FAMILIES["laguerre"], 8))
    with pytest.raises(EigenError, match=f"{name} failed .* order {order}: info=3"):
        diffop.build(rec.build_jacobi(coeffs, 9), 8).eigensystem
    if name in ("dlasq1", "dsterf"):
        with pytest.raises(EigenError, match=name):
            golub_welsch(rec.build_jacobi(coeffs, 8), 8)


# P(z) by its coefficients: translation, the free flow, heat, Airy and a mixed
# symbol whose even part damps and whose odd part turns
SYMBOLS = {"translation": (0, 1), "free": (0, 0, 1j), "heat": (0, 0, 1), "airy": (0, 0, 0, -1),
           "mixed": (0, 1, 0.5, -0.25)}


@pytest.mark.parametrize("symbol", sorted(SYMBOLS))
@pytest.mark.parametrize("family", ["hermite", "legendre", "laguerre:0", "jacobi:0.5,1.5", "mt"])
@pytest.mark.parametrize("N", [1, 2, 15, 16])
def test_flow_matches_dense_expm(symbol, family, N):
    # e^{t P(D)} on the eigensystem against scipy's expm of t P(D.dense()):
    # the factor's phase t P(i x) rounds to about t |x|^deg(P) eps (3.7 times
    # that at worst, on jacobi:0.5,1.5)
    import scipy.linalg
    from favard.basis import make_basis
    P, t = SYMBOLS[symbol], 0.3
    D = diffop.build(make_basis(family, N=N).jacobi, N)
    dense = D.dense()
    rng = np.random.default_rng(N)
    a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    ref = scipy.linalg.expm(t * sum(c * np.linalg.matrix_power(dense, k)
                                    for k, c in enumerate(P))) @ a
    scale = max(1.0, t * diffop.spectral_radius(D) ** (len(P) - 1)) * np.finfo(float).eps
    assert np.max(np.abs(diffop.flow(D, t, P, a) - ref)) <= 16.0 * scale * np.linalg.norm(a)


def test_expm_apply_and_free_coeff_step_are_flows():
    # the two named flows are flow's symbols z and i z^2, bit for bit
    from favard.basis import make_basis
    from favard.schrodinger import free_coeff_step
    rng = np.random.default_rng(4)
    for family, N in (("hermite", 63), ("hermite", 64), ("laguerre:0", 64)):
        D = diffop.build(make_basis(family, N=N).jacobi, N)
        a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        assert np.array_equal(diffop.expm_apply(D, -0.7, a), diffop.flow(D, -0.7, (0, 1), a))
        assert np.array_equal(free_coeff_step(D, 0.25, a), diffop.flow(D, 0.25, (0, 0, 1j), a))


@pytest.mark.parametrize("N", [64, 128, 256])
def test_heat_flow_matches_the_exact_solution(N):
    # u_t = u_xx from e^{-x^2}: u(x, T) = (1 + 4T)^{-1/2} e^{-x^2 / (1 + 4T)},
    # compared as coefficients in the Hermite basis
    from favard.basis import make_basis
    from favard.coeffs import coeffs_xspace
    T = 0.5
    basis = make_basis("hermite", N=N)
    D = diffop.build(basis.jacobi, N)
    a = coeffs_xspace(lambda x: np.exp(-x * x), basis, N)
    exact = coeffs_xspace(lambda x: np.exp(-x * x / (1 + 4 * T)) / np.sqrt(1 + 4 * T), basis, N)
    out = diffop.flow(D, T, (0, 0, 1), a)
    assert out.n_start == 0
    assert np.max(np.abs(out.values - exact.values)) <= 1e-14
    assert np.linalg.norm(out.values) <= np.linalg.norm(a.values)


@pytest.mark.parametrize("family", ["hermite", "laguerre:0"])
def test_flow_refuses_an_overflowing_factor_and_a_complex_odd_coefficient(family):
    # backward heat grows as e^{x^2}: past exp's range it raises, with no
    # warning, and so does an angle t P[k] x^k that overflows, in the odd
    # part (translation) or the even one (the free flow)
    import warnings
    from favard.basis import make_basis
    N = 512
    D = diffop.build(make_basis(family, N=N).jacobi, N)
    a = np.ones(N, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, P in ((-1.0, (0, 0, 1)), (1e308, (0, 10)), (1e308, (0, 0, 1j))):
            with pytest.raises(ValueError, match="overflows"):
                diffop.flow(D, t, P, a)
        with pytest.raises(ValueError, match="odd coefficients must be real"):
            diffop.flow(D, 0.5, (0, 1j), a)
    # a refused (t, P) leaves no factors behind for the next call
    assert np.array_equal(diffop.flow(D, 0.5, (0, 1), a), diffop.expm_apply(D, 0.5, a))
