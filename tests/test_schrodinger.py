"""Free and potential Schrodinger evolution: phase-modulated transforms,
unitary coefficient flow, Strang splitting, grid pairs."""

import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from favard import basis as basis_mod
from favard import coeffs as co
from favard import diffop
from favard import recurrence as rec
from favard import schrodinger as sch
from favard.basis import (TransformedBasis, hermite_function_table,
                          make_basis, malmquist_takenaka, transformed_legendre)
from favard.errors import AccuracyError, TruncationLossWarning


def F_gaussian(xi):
    return np.exp(-(xi**2) / 4.0) / np.sqrt(2.0)


def test_free_psi_legendre_frozen_value():
    # frozen from a dense FFT grid reference on window (-960, 960), M = 65536;
    # the 1/x tails of the bandlimited system need that window to converge
    leg = make_basis("legendre", N=8)
    got = sch.free_psi(leg, 0, np.array([0.0]), 1.0)[0]
    ref = 0.51032315308236553 - 0.17505014394633628j
    assert abs(got - ref) < 5e-11


def test_free_psi_t_zero_is_phi():
    leg = make_basis("legendre", N=8)
    x = np.linspace(-6.0, 6.0, 13)
    got = sch.free_psi(leg, 2, x, 0.0)
    assert np.max(np.abs(got - transformed_legendre(2, x))) < 1e-12


def test_free_psi_unitarity_in_time():
    # |psi_n(.,t)| keeps unit L2 norm
    leg = make_basis("legendre", N=6)
    x = np.linspace(-80.0, 80.0, 4001)
    w = x[1] - x[0]
    v = sch.free_psi(leg, 0, x, 0.7)
    norm2 = np.sum(np.abs(v) ** 2) * w
    # window misses only the 1/x^2 energy tails beyond |x| = 80
    assert abs(norm2 - 1.0) < 5e-3


def test_free_coeff_step_unitary_and_reversible():
    rng = np.random.default_rng(2)
    basis = make_basis("hermite", N=64)
    D = diffop.build(basis.jacobi, 64)
    a = co.CoefficientVector(
        rng.standard_normal(64) + 1j * rng.standard_normal(64), 0)
    b = sch.free_coeff_step(D, 0.9, a)
    assert abs(np.linalg.norm(b.values) - np.linalg.norm(a.values)) < 1e-12
    back = sch.free_coeff_step(D, -0.9, b)
    assert np.max(np.abs(back.values - a.values)) < 1e-10


@pytest.mark.parametrize("family", ["hermite", "laguerre:0"])
def test_free_coeff_step_matches_dense_expm(family):
    # pins the sign of S = diag((-i)^n) and of the -t x^2 phase against an
    # independent dense exponential of i t D^2
    import scipy.linalg
    rng = np.random.default_rng(8)
    basis = make_basis(family, N=24)
    D = diffop.build(basis.jacobi, 24)
    dense = D.dense()
    a = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    for t in (0.3, -1.1):
        ref = scipy.linalg.expm(1j * t * dense @ dense) @ a
        # rounding in both grows with the largest phase |t| max x^2
        # (about 7.7e3 for Laguerre); a wrong sign errs by O(|a|)
        scale = max(1.0, abs(t) * diffop.spectral_radius(D) ** 2) * np.linalg.norm(a)
        assert np.max(np.abs(sch.free_coeff_step(D, t, a) - ref)) < 1e-14 * scale


def test_gaussian_free_evolution_matches_fft_reference():
    basis = make_basis("hermite", N=64)
    a = co.coeffs_fourier_side(F_gaussian, basis, 64)
    state = sch.PropagatedState(coeffs=a, basis=basis)
    u = sch.free_propagate(state, 1.0)
    xg, ref = sch.fft_grid_reference(lambda x: np.exp(-(x**2)), 1.0)
    keep = np.abs(xg) <= 8.0
    assert np.max(np.abs(u(xg[keep]) - ref[keep])) < 1e-9


def test_strang_zero_potential_degenerates_to_free_flow():
    basis = make_basis("hermite", N=32)
    a = co.coeffs_fourier_side(F_gaussian, basis, 32)
    D = diffop.build(basis.jacobi, 32)
    free = sch.free_coeff_step(D, 0.25, a)
    split = sch.strang_step(a, 0.25, None, basis)
    assert np.max(np.abs(split.values - free.values)) < 1e-12


def test_strang_harmonic_norm_conserved():
    basis = make_basis("hermite", N=48)
    a = co.coeffs_fourier_side(F_gaussian, basis, 48)
    out = sch.strang_propagate(a, 0.05, 40, lambda x: x**2, basis)
    # the norm after every step, read as the schrodinger command reads it
    path = sch._strang_setup(basis, 48)
    norms = np.asarray(sch._run(path, 0.05, a.values, lambda x: x**2, 40, np.linalg.norm)[1])
    assert len(norms) == 40
    assert np.max(np.abs(norms - norms[0])) < 1e-12
    assert abs(np.linalg.norm(out.values) - np.linalg.norm(a.values)) < 1e-12


def test_strang_self_convergence_second_order():
    # ||S_tau - S_{tau/2}|| drops by ~4 when tau halves
    basis = make_basis("hermite", N=48)
    a = co.coeffs_fourier_side(F_gaussian, basis, 48)
    V = lambda x: x**2

    def solve(tau, steps):
        return sch.strang_propagate(a, tau, steps, V, basis).values

    T = 0.5
    u1 = solve(T / 8, 8)
    u2 = solve(T / 16, 16)
    u3 = solve(T / 32, 32)
    d1 = np.linalg.norm(u1 - u2)
    d2 = np.linalg.norm(u2 - u3)
    assert 3.5 < d1 / d2 < 4.5


def test_hermite_grid_pair_roundtrip():
    basis = make_basis("hermite", N=32)
    path = sch._strang_setup(basis, 32)
    nodes, synthesize, analyze = path.nodes, path.synthesize, path.analyze
    rng = np.random.default_rng(4)
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.max(np.abs(analyze(synthesize(a)) - a)) < 1e-12
    # square unitary pair: grid values carry the exact coefficient norm
    u = synthesize(a)
    table = hermite_function_table(31, nodes)
    assert np.max(np.abs(u - a @ table)) < 1e-13
    omega = 1.0 / np.sum(table * table, axis=0)
    assert abs(np.sum(omega * np.abs(u) ** 2) - np.sum(np.abs(a) ** 2)) < 1e-10


def _mp_hermite_scale(x, N):
    """sqrt(sum_{k<N} phi_k(x)^2) = sqrt(w(x) / lambda) at each double x, in 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        up = [mpmath.sqrt(mpmath.mpf(2) / (k + 1)) for k in range(N)]
        down = [mpmath.sqrt(mpmath.mpf(k) / (k + 1)) for k in range(N)]
        out = []
        for xv in x:
            xm = mpmath.mpf(float(xv))
            prev, cur = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-xm * xm / 2)
            total = cur * cur
            for k in range(N - 1):
                prev, cur = cur, up[k] * xm * cur - down[k] * prev
                total += cur * cur
            out.append(float(mpmath.sqrt(total)))
    return np.array(out)


@pytest.mark.parametrize("N,outer,tol", [(63, None, 2e-13), (64, None, 2e-13),
                                         (512, None, 2e-13), (2048, 16, 5e-13)])
def test_hermite_scale_matches_50_digits(N, outer, tol):
    # c = sqrt(w / lambda) from the Gauss rule's Christoffel sums, at every
    # nonnegative node (the scale is even) or at the outermost ones
    D = sch._strang_setup(make_basis("hermite", N=N), N).D
    x = D.eigensystem.coord_nodes
    pick = slice(-outer if outer else None, None)
    c = sch._hermite_scale(D)[pick]
    assert np.max(np.abs(c / _mp_hermite_scale(x[pick], N) - 1.0)) < tol


@pytest.mark.parametrize("N", [63, 64, 511, 512, 1023, 2048])
def test_hermite_pair_synthesizes_the_closed_table(N):
    # odd N puts the centre node 0 alone in its pair slot, scaled by c, not c / sqrt2
    path = sch._strang_setup(make_basis("hermite", N=N), N)
    table = hermite_function_table(N - 1, path.nodes)
    rng = np.random.default_rng(N)
    for _ in range(5):
        a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        a /= np.linalg.norm(a)
        u = path.synthesize(a)
        assert np.max(np.abs(u - a @ table)) < (1e-13 if N <= 1023 else 5e-13)
        assert np.max(np.abs(path.analyze(u) - a)) < 1e-14


def test_hermite_pair_sweeps_the_table_on_the_print_grid_only(monkeypatch):
    calls = []
    table = basis_mod.hermite_function_table

    def counted(nmax, x):
        calls.append(np.size(x))
        return table(nmax, x)

    monkeypatch.setattr(basis_mod, "hermite_function_table", counted)
    grid = np.arange(-8.0, 8.5, 0.5)
    for N in (63, 512):
        path = sch._strang_setup(make_basis("hermite", N=N), N)
        path.analyze(path.synthesize(np.ones(N, dtype=complex)))
        assert np.array_equal(path.rows(grid), table(N - 1, grid))
    assert calls == [grid.size, grid.size]


@pytest.mark.parametrize("N", [512, 63])
def test_folded_blocks_keep_the_norm_over_100_steps(N):
    # the kick blocks I - 2 (Y c)^T (Y c) are orthogonal to rounding
    basis = make_basis("hermite", N=N)
    rng = np.random.default_rng(21)
    a = np.zeros(N, dtype=complex)
    a[:40] = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    a /= np.linalg.norm(a)
    path = sch._strang_setup(basis, N)
    for V in (lambda x: x * x, lambda x: x * x + x):
        norms = np.asarray(sch._run(path, 0.01, a, V, 100, np.linalg.norm)[1])
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_mt_grid_pair_roundtrip():
    # the square N-point theta pair on the window n = -N/2..N/2-1: synthesis
    # is the closed form, analysis inverts it, and the pair is unitary; at
    # N = 6 and 10 the window length is 2 mod 4
    for N in (6, 10, 64, 256, 1024):
        path = sch._strang_setup(make_basis("mt", N=N), N)
        nodes, synthesize, analyze = path.nodes, path.synthesize, path.analyze
        assert nodes.size == N
        table = malmquist_takenaka(np.arange(-N // 2, N // 2)[:, None], nodes)
        each = np.stack([synthesize(e) for e in np.eye(N, dtype=complex)])
        assert np.max(np.abs(each - table)) < 1e-15 * N
        rng = np.random.default_rng(N)
        a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        assert np.max(np.abs(analyze(synthesize(a)) - a)) < 1e-14
        h = 2.0 * np.pi / N
        weights = 0.25 * h / np.cos(np.arctan(2.0 * nodes)) ** 2  # h dx/dtheta
        energy = np.sum(weights * np.abs(synthesize(a)) ** 2)
        assert abs(energy / np.sum(np.abs(a) ** 2) - 1.0) < 1e-13


@pytest.mark.parametrize("N", [64, 256])
def test_mt_windows_agree_where_they_overlap(N):
    # both windows read one coefficient map: on the overlap
    # n = -N/2+1..N/2-1 each returns the coefficients of f, and 0 at the
    # index only its own window has (N/2 for the FFT, -N/2 for Strang)
    rng = np.random.default_rng(N)
    ns = np.arange(-N // 2 + 1, N // 2)
    a = rng.standard_normal(ns.size) + 1j * rng.standard_normal(ns.size)
    f = lambda x: a @ malmquist_takenaka(ns[:, None], x)
    fft = co.mt_coeffs_fft(f, N)
    path = sch._strang_setup(make_basis("mt", N=N), N)
    strang = path.analyze(f(path.nodes))
    tol = 1e-13 * np.max(np.abs(a))
    assert fft.n_start == -N // 2 + 1
    assert np.max(np.abs(fft.values[:-1] - a)) < tol and abs(fft.values[-1]) < tol
    assert np.max(np.abs(strang[1:] - a)) < tol and abs(strang[0]) < tol


def test_mt_strang_setup_needs_an_even_size():
    with pytest.raises(ValueError, match="even N"):
        sch._strang_setup(make_basis("mt", N=33), 33)


@pytest.mark.parametrize("N", [256, 1024])
def test_mt_strang_harmonic_phases(N):
    # e^{-x^2/2} and x e^{-x^2/2} are eigenstates of -d^2/dx^2 + x^2 with
    # energies 1 and 3; the bilateral window holds both halves of their spectra
    basis = make_basis("mt", N=N)
    path = sch._strang_setup(basis, N)
    T = 0.5
    for f0, energy in ((lambda x: np.exp(-0.5 * x * x), 1.0),
                       (lambda x: x * np.exp(-0.5 * x * x), 3.0)):
        a = path.analyze(f0(path.nodes).astype(complex))
        a /= np.linalg.norm(a)
        for tau in (1 / 16, 1 / 64):
            steps = round(T / tau)
            out, norms = sch._run(path, tau, a, lambda x: x * x, steps, np.linalg.norm)
            # perfbench's Strang bound 2 (1 + s^2) T tau^2 at s = 0
            assert np.max(np.abs(out - np.exp(-1j * energy * T) * a)) < 2.0 * T * tau * tau
            assert np.max(np.abs(np.asarray(norms) - 1.0)) < 1e-12


@pytest.fixture
def grids(monkeypatch):
    """Every grid-pair build of a Strang path, by size."""
    sizes = []
    for family, build in list(sch._GRIDS.items()):
        def counted_build(D, _build=build):
            sizes.append(D.N)
            return _build(D)
        monkeypatch.setitem(sch._GRIDS, family, counted_build)
    return sizes


def test_strang_setup_built_once_per_basis_and_size(solves, grids):
    basis = make_basis("hermite", N=32)
    a = co.coeffs_fourier_side(F_gaussian, basis, 32)
    V = lambda x: x**2
    sch.strang_propagate(a, 0.1, 3, V, basis)
    sch.strang_step(a, 0.2, V, basis)
    sch.strang_propagate(a, -0.05, 2, None, basis)
    assert solves == ["dbdsdc"] and grids == [32]
    b = co.coeffs_fourier_side(F_gaussian, basis, 16)
    sch.strang_step(b, 0.2, V, basis)
    sch.strang_propagate(a, 0.1, 1, V, basis)
    assert solves == ["dbdsdc", "dbdsdc"] and grids == [32, 16]


def test_strang_setup_rebuilt_when_jacobi_is_replaced(solves, grids):
    # a Stieltjes-built table is recomputed by ensure(), and its leading
    # coefficients move at rounding level, so the old D must not survive.
    # The measure is symmetric, so its diagonal is exactly zero and every
    # D folds
    measure = rec.hermite_measure()
    source = lambda M: rec.stieltjes(measure, M)
    basis = TransformedBasis("hermite", measure, source(16), coeff_source=source,
                             closed_table=hermite_function_table)
    rng = np.random.default_rng(11)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    V = lambda x: x**2
    sch.strang_propagate(a, 0.1, 3, V, basis)
    basis.ensure(40)
    got = sch.strang_propagate(a, 0.1, 3, V, basis).values
    assert solves == ["dbdsdc"] * 2 and grids == [16, 16]
    fresh = TransformedBasis("hermite", measure, basis.jacobi, closed_table=hermite_function_table)
    assert np.array_equal(got, sch.strang_propagate(a, 0.1, 3, V, fresh).values)

    basis.jacobi = rec.build_jacobi(rec.hermite_coeffs, 16)
    sch.strang_step(a, 0.1, V, basis)
    assert solves == ["dbdsdc"] * 4 and grids == [16] * 4


@pytest.mark.parametrize("family", ["hermite", "mt"])
def test_strang_warm_call_bitwise_equals_cold(family):
    rng = np.random.default_rng(12)
    a = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    V = lambda x: 0.5 * x**2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationLossWarning)
        for run in (lambda b: sch.strang_propagate(a, 0.05, 5, V, b),
                    lambda b: sch.strang_step(a, 0.05, V, b)):
            basis = make_basis(family, N=24)
            cold = run(basis).values
            warm = run(basis).values
            assert np.array_equal(cold, warm)


def test_strang_cached_entry_serves_every_tau():
    basis = make_basis("hermite", N=32)
    rng = np.random.default_rng(13)
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    V = lambda x: x**2
    for tau in (0.1, -0.3, 0.7):
        got = sch.strang_propagate(a, tau, 4, V, basis).values
        ref, _ = sch._run(sch._strang_setup(make_basis("hermite", N=32), 32), tau, a, V, 4)
        assert np.array_equal(got, ref)


def _table_route_strang(jacobi, N, a, tau, steps, V):
    """Strang steps on the Hermite function table and its Christoffel weights,
    with the full eigenvector matrix: the unfolded reference."""
    x, vecs = eigh_tridiagonal(jacobi.c[:N], jacobi.b[:N - 1], lapack_driver="stemr")
    table = hermite_function_table(N - 1, x).astype(complex)
    omega = 1.0 / np.sum(table.real**2, axis=0)
    vecs = vecs.astype(complex)
    S = (-1j) ** (np.arange(N) % 4)
    half, phase = np.exp(-0.5j * tau * x * x), np.exp(-1j * tau * V(x))
    z = vecs.T @ (a / S)
    for _ in range(steps):
        u = phase * (table.T @ (S * (vecs @ (half * z))))
        z = half * (vecs.T @ ((table @ (omega * u)) / S))
    return S * (vecs @ z)


def _hermite_with_diag(N, diag):
    exact = rec.build_jacobi(rec.hermite_coeffs, N)
    return TransformedBasis("hermite", rec.hermite_measure(),
                            rec.JacobiMatrix(exact.b, np.full(N, diag)),
                            closed_table=hermite_function_table)


@pytest.mark.parametrize("make,N", [
    (lambda N: make_basis("hermite", N=N), 63),
    (lambda N: _hermite_with_diag(N, 1e-300), 64),
    (lambda N: make_basis("mt", N=N), 64),
], ids=["folded-63", "eigenbasis-64", "bilateral-64"])
def test_a_stack_of_states_leaves_as_its_rows(make, N):
    # every path's leave takes a stack of states to the stack of their
    # coefficient vectors in one product
    basis = make(N)
    path = sch._strang_setup(basis, N)
    rng = np.random.default_rng(7)
    states = []
    for _ in range(3):
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        states.append(path.enter(v))
    stack = path.leave(np.stack(states))
    assert stack.shape == (3, N)
    for z, row in zip(states, stack):
        assert np.max(np.abs(row - path.leave(z))) <= 1e-14


@pytest.mark.parametrize("N,diag", [(512, 0.0), (63, 0.0), (64, 1e-300)])
def test_strang_matches_table_route(N, diag):
    # a zero diagonal takes the folded step, any nonzero one (here far below
    # rounding) the grid-pair step; both reproduce the unfolded route, for an
    # even potential and for one that couples the even and odd rows
    basis = _hermite_with_diag(N, diag)
    jacobi = basis.jacobi
    rng = np.random.default_rng(N)
    a = np.zeros(N, dtype=complex)
    a[:40] = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    D = sch._strang_setup(basis, N).D
    assert isinstance(D.eigensystem, diffop.FoldedEigensystem) == (diag == 0.0)
    for V in (lambda x: x * x, lambda x: x * x + x):
        got = sch.strang_propagate(a, 0.01, 100, V, basis).values
        ref = _table_route_strang(jacobi, N, a, 0.01, 100, V)
        assert np.max(np.abs(got - ref)) < 1e-11


@pytest.mark.parametrize("make,N", [
    (lambda N: make_basis("hermite", N=N), 63),
    (lambda N: make_basis("hermite", N=N), 64),
    (lambda N: _hermite_with_diag(N, 1e-300), 64),
    (lambda N: make_basis("mt", N=N), 32),
], ids=["hermite-63", "hermite-64", "hermite-diag-64", "mt-32"])
@pytest.mark.parametrize("V", [None, lambda x: x * x, lambda x: x * x + x],
                         ids=["free", "x2", "x2+x"])
def test_strang_step_is_one_propagate_step(make, N, V):
    basis = make(N)
    rng = np.random.default_rng(N)
    values = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    vec = co.CoefficientVector(values, -(N // 2) if basis.bilateral else 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationLossWarning)
        for a in (values, vec):
            step = sch.strang_step(a, 0.05, V, basis)
            ref = sch.strang_propagate(a, 0.05, 1, V, basis)
            assert np.array_equal(step.values, ref.values)
            assert step.meta == ref.meta
        assert sch.strang_step(values, 0.05, V, basis).meta["steps"] == 1
    # a drift warning names the caller's line, not the library's
    assert all(w.filename == __file__ for w in caught)


@pytest.mark.parametrize("N", [512, 63])
def test_folded_strang_stays_folded(monkeypatch, N):
    # a folded run changes coordinates on entry and exit only (its kick is two
    # products with the blocks), and its recorded norms are those of the same
    # coordinates stepped through the grid pair
    basis = make_basis("hermite", N=N)
    rng = np.random.default_rng(15)
    a = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    a /= np.linalg.norm(a)
    tau, steps = 0.005, 100
    path = sch._strang_setup(basis, N)
    ref_path = sch._EigenbasisPath(path.D, path.nodes, path.synthesize, path.analyze, path.rows)
    half = np.exp(-0.5j * tau * ref_path.x ** 2)
    for V in (lambda x: x * x, lambda x: x * x + x):
        calls = {"enter": 0, "leave": 0}
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(diffop.FoldedEigensystem, name)):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(diffop.FoldedEigensystem, name, counted)
        out, norms = sch._run(path, tau, a, V, steps, np.linalg.norm)
        assert calls == {"enter": 1, "leave": 1}
        monkeypatch.undo()

        kick = ref_path.kick(np.exp(-1j * tau * V(path.nodes)))
        z, ref = ref_path.enter(a), []
        for _ in range(steps):
            z = half * kick(half * z)
            ref.append(np.linalg.norm(z))
        assert len(norms) == steps
        # relative, |a| = 1: each path drifts 3e-14 to 5e-14 from 1 over the run
        # at rounding, the blocks from the rows of Q and P and the reference
        # from the grid pair, so their drifts differ at that level
        assert np.max(np.abs(np.array(norms) - np.array(ref))) < 5e-14
        assert np.max(np.abs(out - ref_path.leave(z))) < 1e-13


def test_results_independent_of_eigenvector_signs(monkeypatch):
    # the singular vector pairs (u_i, w_i) of the folded solve come with
    # arbitrary signs, and the row of p_1 is exactly 0 at tail nodes; the grid
    # pair relies on V[k, i] = p_k(x_i) sqrt(lambda_i), so flipping pairs,
    # tail ones included, must change nothing
    N = 512
    rng = np.random.default_rng(14)
    u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    V = lambda x: x * x

    def run():
        path = sch._strang_setup(make_basis("hermite", N=N), N)
        a = path.analyze(u)
        D = diffop.build(make_basis("legendre", N=N).jacobi, N)
        return (a, path.synthesize(a[::-1]), sch._run(path, 0.05, a, V, 10)[0],
                diffop.expm_apply(D, 0.7, a))

    before = run()
    solve, flipped = diffop.singular_vectors, []

    def flipping(*args):
        U, W = solve(*args)
        flip = (W[0] == 0.0) | (np.arange(W.shape[1]) % 3 == 0)
        U[:, flip] *= -1.0
        W[:, flip] *= -1.0
        flipped.append(np.count_nonzero(flip & (W[0] == 0.0)))
        return U, W

    monkeypatch.setattr(diffop, "singular_vectors", flipping)
    after = run()
    assert len(flipped) == 2 and flipped[0] > 0
    for got, ref in zip(after, before):
        assert np.max(np.abs(got - ref)) < 1e-14


def test_hermite_strang_never_warns():
    # the square analysis/synthesis pair is unitary, so no truncation drift
    basis = make_basis("hermite", N=32)
    a = co.coeffs_fourier_side(F_gaussian, basis, 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationLossWarning)
        sch.strang_propagate(a, 0.5, 4, lambda x: 8.0 * x**2, basis)


def test_mt_strang_never_warns():
    # the square MT pair is unitary on the bilateral window, so a strong
    # potential loses no norm to analysis
    basis = make_basis("mt", N=32)
    path = sch._strang_setup(basis, 32)
    a = path.analyze(np.exp(-path.nodes.astype(complex) ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationLossWarning)
        out = sch.strang_propagate(a, 0.5, 2, lambda x: 8.0 * x**2, basis)
    assert abs(np.linalg.norm(out.values) - np.linalg.norm(a)) < 1e-13


def test_mt_strang_refuses_the_coefficient_window():
    # mt_coeffs_fft indexes n = -N/2+1..N/2, Strang n = -N/2..N/2-1: a vector
    # on the first window would be read shifted by one index
    basis = make_basis("mt", N=32)
    a = co.mt_coeffs_fft(lambda x: np.exp(-x * x), 32)
    assert a.n_start == -15
    with pytest.raises(ValueError, match=r"n = -16\.\.15.*n = -15\.\.16"):
        sch.strang_propagate(a, 0.1, 2, lambda x: x * x, basis)
    # the Strang window itself, and a plain array, keep their meaning
    on_window = co.CoefficientVector(a.values, -16)
    out = sch.strang_propagate(on_window, 0.1, 2, lambda x: x * x, basis)
    assert out.n_start == -16
    plain = sch.strang_propagate(a.values, 0.1, 2, lambda x: x * x, basis)
    assert np.array_equal(plain.values, out.values)


def test_fft_grid_reference_self_consistency():
    # halving the step and doubling the window leaves the solution fixed
    f0 = lambda x: np.exp(-(x**2))
    x1, u1 = sch.fft_grid_reference(f0, 1.0, window=(-40.0, 40.0), M=8192)
    x2, u2 = sch.fft_grid_reference(f0, 1.0, window=(-80.0, 80.0), M=32768)
    keep1 = np.abs(x1) <= 8.0
    keep2 = np.isin(np.round(x2, 9), np.round(x1[keep1], 9))
    assert np.count_nonzero(keep2) == np.count_nonzero(keep1)
    assert np.max(np.abs(u1[keep1] - u2[keep2])) < 1e-12


@pytest.mark.parametrize("family", ["jacobi:0.5,1.5", "conthahn:1,0.5"])
def test_free_psi_is_a_row_of_phi_grid(family):
    # t != 0: row n of one phase-carrying transform, bit for bit, its rule
    # sized by max|x| alone (conthahn:1,0.5 with its own gamma-pair phase);
    # t = 0: row n of phi_grid without a phase, conthahn's closed table
    basis = make_basis(family, N=16)
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    t = 0.3
    sigma = lambda xi: sch.free_multiplier(xi, t)
    for n in (2, 12):
        for point in (x, 0.7):
            row = basis_mod.phi_grid(basis, n, point, sigma=sigma)[n]
            got = sch.free_psi(basis, n, point, t)
            assert np.array_equal(got, row.reshape(np.shape(point)))
        assert type(got) is complex
        still = basis_mod.phi_grid(basis, n, x.ravel())[n]
        assert np.array_equal(sch.free_psi(basis, n, x, 0.0), still.reshape(3, 4))


@pytest.mark.parametrize("family", ["hermite", "jacobi:0.5,1.5", "conthahn:1,0.5"])
def test_free_propagate_sums_the_rows_of_one_phi_grid_call(family):
    # u(x) = values @ phi_grid(basis, nmax, x, sigma=...), with no phase at
    # t = 0, where hermite and conthahn take their closed tables; a scalar
    # x gives a Python complex
    basis = make_basis(family, N=8)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    state = sch.PropagatedState(co.CoefficientVector(values, 0), basis)
    x = np.linspace(-4.0, 4.0, 9)
    for t in (0.0, 0.25, 1.0):
        sigma = None if t == 0.0 else (lambda xi, t=t: sch.free_multiplier(xi, t))
        want = values @ basis_mod.phi_grid(basis, 5, x, sigma=sigma)
        assert np.array_equal(sch.free_propagate(state, t)(x), want)
        one = sch.free_propagate(state, t)(0.5)
        assert type(one) is complex
        assert one == (values @ basis_mod.phi_grid(basis, 5, 0.5, sigma=sigma))[0]


def test_free_psi_past_the_phase_reach_raises():
    # the free-flow phase -t xi^2 is resolved by the transform's six
    # doublings alone: hermite row 23 on |x| <= 12 is reached at t = 64,
    # while at t = 256 the two finest levels still differ by about 2e-4,
    # so the route raises rather than return a value it cannot vouch for
    basis = make_basis("hermite", N=32)
    x = np.linspace(-12.0, 12.0, 49)
    assert np.all(np.isfinite(sch.free_psi(basis, 23, x, 64.0)))
    with pytest.raises(AccuracyError) as info:
        sch.free_psi(basis, 23, x, 256.0)
    assert info.value.estimate > 1e-10
