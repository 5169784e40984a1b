"""Free and potential Schrodinger evolution: phase-modulated transforms,
unitary coefficient flow, Strang splitting, grid pairs."""

import warnings

import numpy as np
import pytest

from favard import coeffs as co
from favard import diffop
from favard import schrodinger as sch
from favard.basis import hermite_function_table, make_basis, transformed_legendre
from favard.errors import TruncationLossWarning


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


def test_free_psi_printed_form_is_translation():
    # the alternative multiplier e^{i xi t^2} only translates by t^2; the
    # free flow is the e^{-i xi^2 t} path
    basis = make_basis("hermite", N=8)
    t = 0.8
    x = np.linspace(-2.0, 2.0, 9)
    alt = sch.free_psi(basis, 1, x, t, printed_form=True)
    ref = sch.free_psi(basis, 1, x + t * t, 0.0)
    assert np.max(np.abs(alt - ref)) < 1e-9


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
        rng.standard_normal(64) + 1j * rng.standard_normal(64), 0, basis, {})
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
    out, norms = sch.strang_propagate(
        a, 0.05, 40, lambda x: x**2, basis, record=True)
    norms = np.asarray(norms)
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
    nodes, synth, analyze = sch._grid_pair(basis, 32)
    rng = np.random.default_rng(4)
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.max(np.abs(analyze(synth @ a) - a)) < 1e-12
    # square unitary pair: grid values carry the exact coefficient norm
    u = synth @ a
    table = hermite_function_table(31, nodes)
    omega = 1.0 / np.sum(table * table, axis=0)
    assert abs(np.sum(omega * np.abs(u) ** 2) - np.sum(np.abs(a) ** 2)) < 1e-10


def test_mt_grid_pair_roundtrip():
    basis = make_basis("mt", N=32)
    nodes, synth, analyze = sch._grid_pair(basis, 32)
    rng = np.random.default_rng(6)
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.max(np.abs(analyze(synth @ a) - a)) < 1e-12


def test_hermite_strang_never_warns():
    # the square analysis/synthesis pair is unitary, so no truncation drift
    basis = make_basis("hermite", N=32)
    a = co.coeffs_fourier_side(F_gaussian, basis, 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationLossWarning)
        sch.strang_propagate(a, 0.5, 4, lambda x: 8.0 * x**2, basis)


def test_mt_strang_warns_on_truncation_loss():
    # rectangular MT analysis drops out-of-span energy created by a strong
    # potential, and the norm drift check must report it
    basis = make_basis("mt", N=32)
    a = co.mt_coeffs_fft(lambda x: np.exp(-(x**2)), 32, basis)
    with pytest.warns(TruncationLossWarning):
        sch.strang_propagate(a, 0.5, 2, lambda x: 8.0 * x**2, basis)


def test_fft_grid_reference_self_consistency():
    # halving the step and doubling the window leaves the solution fixed
    f0 = lambda x: np.exp(-(x**2))
    x1, u1 = sch.fft_grid_reference(f0, 1.0, window=(-40.0, 40.0), M=8192)
    x2, u2 = sch.fft_grid_reference(f0, 1.0, window=(-80.0, 80.0), M=32768)
    keep1 = np.abs(x1) <= 8.0
    keep2 = np.isin(np.round(x2, 9), np.round(x1[keep1], 9))
    assert np.count_nonzero(keep2) == np.count_nonzero(keep1)
    assert np.max(np.abs(u1[keep1] - u2[keep2])) < 1e-12
