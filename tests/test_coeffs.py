"""Expansion coefficients: x-space vs Fourier-side paths, MT fast
transform, tanh-Chebyshev fast transform, decay fitting."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from favard import coeffs as co
from favard import specfun
from favard.basis import make_basis, malmquist_takenaka, phi, phi_grid
from favard.errors import AccuracyError


def F_gaussian(xi):
    # Fourier transform of e^{-x^2} under (1/sqrt(2pi)) Int f e^{-ix xi} dx
    return np.exp(-(xi**2) / 4.0) / np.sqrt(2.0)


def test_xspace_vs_fourier_side_hermite():
    basis = make_basis("hermite", N=32)
    f = lambda x: np.exp(-(x**2))
    a = co.coeffs_xspace(f, basis, 32)
    b = co.coeffs_fourier_side(F_gaussian, basis, 32)
    assert a.n_start == 0 and b.n_start == 0
    assert np.max(np.abs(a.values - b.values)) < 1e-9


@pytest.mark.parametrize("family", ["hermite", "legendre", "tanhjacobi:0.75,0.75",
                                    "laguerre:1", "conthahn:1,0.5"])
def test_fourier_side_is_the_gauss_sum_over_its_rows(family):
    # the rows from the rule's own sweep, folded by parity on a symmetric
    # measure, give the plain Gauss sum of F e^{-i sigma} p_n / sqrt(w) over
    # the same rule (conthahn:1,0.5 has a phase sigma)
    from favard import recurrence as rec
    from favard.quadrature import golub_welsch

    N = 48
    basis = make_basis(family, N=8)
    F = lambda xi: F_gaussian(xi) * (1.0 + 0.3j * xi)
    got = co.coeffs_fourier_side(F, basis, N).values
    rule = golub_welsch(basis.jacobi, 2 * N + 32)
    sqw = np.sqrt(basis.measure.weight(rule.nodes))
    live = (rule.weights > 0.0) & (sqw > 0.0)
    table = rec.eval_poly_table(basis.jacobi, N - 1, rule.nodes[live])
    samples = F(rule.nodes[live])
    if basis.sigma is not None:
        samples = samples * np.exp(-1j * basis.sigma(rule.nodes[live]))
    want = table @ (rule.weights[live] * samples / sqw[live])
    want *= (-1j) ** np.arange(N)
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_fourier_side_refuses_bilateral_basis():
    # rows n >= 0 of the MT system capture half a Gaussian's energy; the
    # bilateral window is mt_coeffs_fft's, and the message names it
    with pytest.raises(ValueError, match="mt_coeffs_fft"):
        co.coeffs_fourier_side(F_gaussian, make_basis("mt", N=16), 16)


def test_reconstruction_from_coeffs():
    basis = make_basis("hermite", N=40)
    f = lambda x: np.exp(-(x**2)) * (1.0 + 0.5 * x)
    a = co.coeffs_xspace(f, basis, 40)
    x = np.linspace(-4.0, 4.0, 41)
    table = phi_grid(basis, 39, x)
    rec = a.values @ table
    assert np.max(np.abs(rec - f(x))) < 1e-9


def test_mt_xspace_rows_match_phi_bitwise():
    # the bilateral rows come from one broadcast malmquist_takenaka call;
    # each equals phi's row bit for bit, so the coefficients equal those of
    # the per-row stack
    basis = make_basis("mt", N=16)
    f = lambda x: 1.0 / (1.0 + (2.0 * x) ** 4)
    N, M, window = 16, 1025, (-40.0, 40.0)
    got = co.coeffs_xspace(f, basis, N, window=window, M=M)
    ns = np.arange(-N // 2 + 1, N // 2 + 1)
    x = np.linspace(*window, M)
    rows = np.stack([np.asarray(phi(basis, int(n), x), dtype=complex) for n in ns])
    assert np.array_equal(malmquist_takenaka(ns[:, None], x), rows)
    w = np.full(M, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    assert got.n_start == ns[0]
    assert np.array_equal(got.values, (np.conj(rows) * f(x).astype(complex)) @ w)


def _xspace_general(f, basis, N, window=(-30.0, 30.0), M=8193):
    # the unfolded trapezoid rule over the whole grid: values, tail
    # estimate, and the largest integrand magnitude
    x = np.linspace(*window, M)
    w = np.full(M, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    if basis.bilateral:
        V = malmquist_takenaka(np.arange(-N // 2 + 1, N // 2 + 1)[:, None], x)
    else:
        V = phi_grid(basis, N - 1, x)
    integrand = np.conj(V) * np.asarray(f(x), dtype=complex)
    return (integrand @ w, float(np.max(np.abs(integrand[:, [0, -1]]))),
            float(np.max(np.abs(integrand))))


def _coherent(s, kick=0.0):
    return lambda x: math.pi ** -0.25 * np.exp(-0.5 * (x - s) ** 2 + 1j * kick * x)


@pytest.mark.parametrize("family, M", [("hermite", 8193), ("legendre", 8193),
                                       ("jacobi:1,1", 1025)])
@pytest.mark.parametrize("N", [1, 2, 7, 8, 64])
def test_xspace_fold_matches_general_rule(family, M, N):
    # the parity fold sums the same terms in another order: it agrees with
    # the whole-grid rule to rounding (each sits a few ulps of the largest
    # coefficient from the exact sum), and so does its tail metadata
    basis = make_basis(family, N=70)
    for f in (_coherent(0.9), _coherent(-0.6, kick=0.3), lambda x: 0.5 / (1.0 + x * x)):
        got = co.coeffs_xspace(f, basis, N, M=M)
        ref, edge, peak = _xspace_general(f, basis, N, M=M)
        assert got.n_start == 0
        assert np.max(np.abs(got.values - ref)) <= 16 * np.spacing(np.max(np.abs(ref)))
        assert got.meta["tail_estimate"] == pytest.approx(edge, rel=1e-14, abs=1e-300)
        assert ("warning" in got.meta) == (edge > 1e-10 * max(peak, 1e-300))


@pytest.mark.parametrize("family", ["hermite", "legendre", "tanhjacobi:0.75,0.75"])
def test_xspace_fold_odd_coefficients_of_even_f_vanish(family):
    basis = make_basis(family, N=40)
    # f(-x) == f(x) bit for bit (x ** 4 would not be: NumPy's power rounds
    # differently for negative bases)
    vals = co.coeffs_xspace(lambda x: np.exp(-x * x) / (1.0 + x * x), basis, 33).values
    assert np.all(vals[1::2] == 0.0)
    assert np.all(vals[0:8:2] != 0.0)


@pytest.mark.parametrize("family, window, M", [
    ("hermite", (-30.0, 31.0), 8193),      # asymmetric window
    ("hermite", (-30.0, 30.0), 8192),      # even M: no centre point
    ("mt", (-30.0, 30.0), 8193),           # bilateral
    ("tanhjacobi:0.25,0.75", (-30.0, 30.0), 8193),  # phase sigma
    ("laguerre", (-30.0, 30.0), 1025),     # asymmetric measure
])
def test_xspace_unfolded_inputs_keep_general_rule(family, window, M):
    basis = make_basis(family, N=24)
    f = _coherent(0.4, kick=0.2)
    got = co.coeffs_xspace(f, basis, 16, window=window, M=M)
    ref, edge, peak = _xspace_general(f, basis, 16, window=window, M=M)
    assert np.array_equal(got.values, ref)
    assert got.meta["tail_estimate"] == edge
    assert ("warning" in got.meta) == (edge > 1e-10 * max(peak, 1e-300))


def test_xspace_records_the_coarse_gap():
    # the gap is |full rule - rule on every other sample, its weights doubled|
    basis = make_basis("hermite", N=24)
    f = _coherent(0.4, kick=0.2)
    for window, M in (((-30.0, 30.0), 8193), ((-30.0, 31.0), 1024), ((-3.0, 3.0), 65)):
        got = co.coeffs_xspace(f, basis, 16, window=window, M=M)
        x = np.linspace(*window, M)
        g = np.conj(phi_grid(basis, 15, x)) * f(x)
        w = np.full(M, x[1] - x[0])
        w[[0, -1]] *= 0.5
        gap = np.max(np.abs(g @ w - 2.0 * g[:, ::2] @ w[::2]))
        assert got.meta["coarse_gap"] == pytest.approx(gap, rel=1e-6, abs=1e-15)
        assert (got.meta["coarse_gap"] < 1e-12) == (M > 65)


def test_xspace_coarse_gap_of_aliasing_rows_is_recorded_not_raised():
    # mt's rows alias on every other of 1025 points of [-40, 40], not on all of
    # them: the gap is 0.17 of the largest coefficient, the values are right
    # to 2e-7, and f itself is resolved on both grids
    basis = make_basis("mt", N=16)
    f = lambda x: 1.0 / (1.0 + (2.0 * x) ** 4)
    got = co.coeffs_xspace(f, basis, 16, window=(-40.0, 40.0), M=1025)
    ref = co.coeffs_xspace(f, basis, 16, window=(-40.0, 40.0), M=8193)
    largest = np.max(np.abs(got.values))
    assert got.meta["coarse_gap"] > 0.1 * largest and got.meta["coarse_norm_gap"] < 1e-3
    assert np.max(np.abs(got.values - ref.values)) < 1e-6 * largest


def test_xspace_grid_that_steps_over_f_raises():
    basis = make_basis("hermite", N=8)
    with pytest.raises(AccuracyError, match="does not resolve f") as err:
        co.coeffs_xspace(lambda x: np.exp(-x * x), basis, 3, window=(-1e150, 1e150))
    assert err.value.estimate > 1e146


def test_coefficient_vector_meta_is_keyword_only():
    # a third positional argument is refused rather than taken as meta
    with pytest.raises(TypeError):
        co.CoefficientVector(np.ones(4), 0, make_basis("hermite", N=4))
    assert co.CoefficientVector(np.ones(4), 0, meta={"method": "x"}).meta == {"method": "x"}


def test_mt_fft_matches_direct_projection():
    f = lambda x: np.exp(-(x**2))
    fast = co.mt_coeffs_fft(f, 64)
    assert fast.n_start == -31  # window is n in {-(N/2-1), ..., N/2}
    # direct projection oracle: <f, phi_n> by wide high-order quadrature
    import scipy.integrate
    x = np.linspace(-60.0, 60.0, 20001)
    fx = f(x)
    for n in (-5, -1, 0, 1, 6):
        ref = scipy.integrate.simpson(fx * np.conj(malmquist_takenaka(n, x)), x=x)
        got = fast.values[n - fast.n_start]
        assert abs(got - ref) < 1e-8, n


def test_mt_fft_bilateral_indexing():
    f = lambda x: 1.0 / (1.0 + 4.0 * x**2)
    a = co.mt_coeffs_fft(f, 16)
    assert a.values.shape == (16,)
    assert a.n_start == -7
    # partial fractions: f = (sqrt(2 pi)/4) (phi_0 + i phi_{-1}) exactly
    expect = np.sqrt(2.0 * np.pi) / 4.0
    i0 = 0 - a.n_start
    im1 = -1 - a.n_start
    assert abs(a.values[i0] - expect) < 1e-12
    assert abs(a.values[im1] - 1j * expect) < 1e-12
    others = np.abs(np.delete(a.values, (im1, i0)))
    assert np.max(others) < 1e-12


def test_tanh_chebyshev_fast_matches_xspace():
    kind = (0.75, 0.75)
    basis = make_basis("tanhjacobi:0.75,0.75", N=24)
    f = lambda x: 1.0 / np.cosh(2.0 * x)
    fast = co.tanh_chebyshev_coeffs(f, kind, 24)
    slow = co.coeffs_xspace(f, basis, 24, window=(-20.0, 20.0), M=16385)
    # f ~ e^{-2|x|} puts a theta^{3/2} endpoint factor in the transform
    # integrand, so the fast path is algebraically, not spectrally, accurate
    assert np.max(np.abs(fast.values - slow.values)) < 1e-9


def test_tanh_cheb_kind_detection():
    assert co.tanh_cheb_kind(make_basis("tanhjacobi:0.75,0.75")) == (0.75, 0.75)
    assert co.tanh_cheb_kind(make_basis("tanhjacobi:0.25,0.75")) == (0.25, 0.75)
    assert co.tanh_cheb_kind(make_basis("tanhjacobi:1.0,1.5")) is None
    assert co.tanh_cheb_kind(make_basis("hermite")) is None


def test_parseval_for_decaying_function():
    # sum |f_hat_n|^2 -> ||f||^2 = sqrt(pi/2) for f = e^{-x^2}
    a = co.mt_coeffs_fft(lambda x: np.exp(-(x**2)), 256)
    assert abs(np.sum(np.abs(a.values) ** 2) - np.sqrt(np.pi / 2.0)) < 1e-6


def test_mt_real_function_conjugation_symmetry():
    # phi_{-n-1} = -i conj(phi_n) on the real line, so real f has
    # a_{-n-1} = i conj(a_n)
    a = co.mt_coeffs_fft(lambda x: np.exp(-(x**2)) * (1 + x), 64)
    for n in range(0, 20):
        lhs = a.values[(-n - 1) - a.n_start]
        rhs = 1j * np.conj(a.values[n - a.n_start])
        assert abs(lhs - rhs) < 1e-12, n


def _peak_bytes(call):
    call()  # FFT plans and other one-time set-up
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("f, samples, grids", [
    (lambda x: 1.0 / (1.0 + x * x), 2, 1.75),
    (lambda x: (1.0 + 0.5j) / (1.0 + x * x), 2, 2.0),
    (lambda x: np.exp(-np.abs(x)), 4, 2.25),
    (lambda x: (1.0 + 0.5j) * np.exp(-np.abs(x)), 4, 2.5),
], ids=["2N-real", "2N-complex", "4N-real", "4N-complex"])
def test_mt_fft_memory(f, samples, grids):
    # the measured peak, in float arrays of M = 4N samples.  2N branch: the
    # even grid t (one half), its g (one) and the temporaries of f on one
    # block; t is freed before the window is copied out.  4N branch: t, the
    # N even window bins (one half each) and the odd g; the even spectrum is
    # freed before the odd grid is sampled
    N = 2**14
    assert co.mt_coeffs_fft(f, N).meta["samples"] == samples * N
    peak = _peak_bytes(lambda: co.mt_coeffs_fft(f, N))
    assert peak <= 1.25 * grids * (4 * N) * 8


def _mt_midpoint_4n(f, N):
    """The 4N-point midpoint rule for <f, phi_n>, n = -N/2+1 .. N/2, in one
    shot: with x = tan(theta/2)/2, <f, phi_n> = (-i)^n / (2 sqrt(2 pi))
    Int_{-pi}^{pi} (1 - i tan(theta/2)) f(x) e^{-i n theta} d theta, on
    theta_j = -pi + (j + 1/2) h."""
    M = 4 * N
    h = 2.0 * np.pi / M
    # theta_{M/2+m} = (m + 1/2) h and theta_{M/2-1-m} = -theta_{M/2+m}: taking
    # tan of the small angles keeps the points exact to rounding in theta,
    # which a phi_n with n near N/2 needs
    upper = np.tan((np.arange(M // 2) + 0.5) * (h / 2.0))
    t = np.concatenate((-upper[::-1], upper))
    g = (1.0 - 1j * t) * f(t / 2.0)
    n = np.arange(-N // 2 + 1, N // 2 + 1)
    # e^{-i n theta_j} = (-1)^n e^{-i n h/2} e^{-2 pi i j n / M}
    sums = (-1.0) ** n * np.exp(-0.5j * n * h) * np.fft.fft(g)[n % M]
    return h / (2.0 * np.sqrt(2.0 * np.pi)) * (-1j) ** (n % 4) * sums


_SPAN_COEFFS = np.array([1.0, 1j]) @ np.random.default_rng(25).standard_normal((2, 13))
_MT_TEST_FUNCTIONS = {
    # sum of c_n phi_n for n = -6 .. 6
    "span": lambda N: lambda x: sum(c * malmquist_takenaka(n, x)
                                    for n, c in zip(range(-6, 7), _SPAN_COEFFS)),
    "gauss": lambda N: lambda x: np.exp(-(x**2)),
    "readme": lambda N: lambda x: 1.0 / (1.0 + (2.0 * x) ** 4),
    "abs": lambda N: lambda x: np.exp(-np.abs(x)),
    # phi_{N/2+1} sits just outside the window
    "planted": lambda N: lambda x: (malmquist_takenaka(0, x)
                                    + malmquist_takenaka(N // 2 + 1, x)),
}


@pytest.mark.parametrize("N", [16, 256, 4096])
@pytest.mark.parametrize("name", sorted(_MT_TEST_FUNCTIONS))
def test_mt_fft_matches_one_shot_midpoint_rule(name, N):
    f = _MT_TEST_FUNCTIONS[name](N)
    got = co.mt_coeffs_fft(f, N)
    ref = _mt_midpoint_4n(f, N)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got.values - ref)) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("name, N, half", [
    ("span", 16, True), ("span", 256, True), ("span", 4096, True),
    ("gauss", 4096, True), ("readme", 256, True), ("readme", 4096, True),
    ("gauss", 256, False), ("readme", 64, False),
    ("abs", 16, False), ("abs", 256, False), ("abs", 4096, False),
    ("planted", 16, False), ("planted", 256, False), ("planted", 4096, False),
])
def test_mt_fft_branch_rule(name, N, half):
    # the even grid stands alone only when its out-of-window bins, which
    # estimate |a_n| for N/2 < |n| < 3N/2, are at rounding level
    meta = co.mt_coeffs_fft(_MT_TEST_FUNCTIONS[name](N), N).meta
    assert meta["samples"] == (2 * N if half else 4 * N)
    assert (meta["out_of_window"] <= 1e-14) == half
    if name == "planted":
        assert meta["out_of_window"] > 0.5


def test_mt_fft_zero_function_takes_the_half_grid():
    a = co.mt_coeffs_fft(lambda x: np.zeros_like(x), 64)
    assert a.meta["samples"] == 128 and a.meta["out_of_window"] == 0.0
    assert not np.any(a.values)


def _mt_blocks(f, t):
    """g = (1 - i t) f(t/2) and max |g|, f called on each block of 4096
    points alone, each block formed as the transform forms it."""
    g = np.empty(t.size, dtype=complex)
    for start in range(0, t.size, 4096):
        tb, gb = t[start:start + 4096], g[start:start + 4096]
        fx = np.asarray(f(0.5 * tb))
        if np.iscomplexobj(fx):
            gb.real = tb * fx.imag + fx.real
            gb.imag = fx.imag - tb * fx.real
        else:
            gb.real = fx
            gb.imag = -(tb * fx)
    return g, float(np.abs(g).max())


def _mt_with_probe_calls(f, N):
    """mt_coeffs_fft with f called once for each of the four probe points
    and once per block of each grid, the grids, FFTs, branch rule and
    coefficient map as the transform takes them: a CoefficientVector, or
    ValueError on a jump."""
    from favard.basis import _mt_coefficients

    M = 4 * N
    h = 2.0 * math.pi / M
    t = co._mt_even_grid(N)
    g, top = _mt_blocks(f, t)
    probe = 4.0 / math.tan(0.25 * h)

    def tail_limit(sign):
        m1 = sign * probe * complex(np.asarray(f(np.array([sign * probe])), dtype=complex)[0])
        m2 = 2.0 * sign * probe * complex(
            np.asarray(f(np.array([2.0 * sign * probe])), dtype=complex)[0])
        return 2.0 * m2 - m1

    if abs(tail_limit(1.0) - tail_limit(-1.0)) > 1e-2 * max(top, 1e-300):
        raise ValueError("f decays too slowly for the Malmquist-Takenaka FFT path: "
                         "the substituted integrand jumps at theta = pi")
    spectrum = scipy.fft.fft(g)
    ratio = co._out_of_window(spectrum, N // 2 + 1, 3 * N // 2 + 1)
    n0 = 1 - N // 2
    vals = _mt_coefficients(spectrum, 0.25, n0, N)
    samples = 2 * N
    if ratio > 1e-14:
        odd = scipy.fft.fft(_mt_blocks(f, -t[::-1])[0])
        vals += _mt_coefficients(odd, 0.75, n0, N)
        vals *= 0.5
        samples = M
    return co.CoefficientVector(vals, n0, meta={"method": "mt-fft", "samples": samples,
                                                "out_of_window": ratio})


def _counted(f):
    """f, and the sizes of the arrays it was called on, in order."""
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return f(x)

    return counted, sizes


_MT_SLOW = {
    # x f(x) -> +1 and -1 at +-inf: the substituted integrand jumps at pi
    "reciprocal": lambda x: 1.0 / (1.0 + np.abs(x)),
    # x f(x) -> 1 and 0: a jump too
    "one-sided": lambda x: np.where(x > 0.0, 1.0 / (1.0 + np.abs(x)), 0.0),
    # x f(x) -> 1 at both ends: no jump, the transform goes ahead
    "even-limit": lambda x: x / (1.0 + x * x),
    "lorentz": lambda x: 1.0 / (1.0 + x * x),
}


@pytest.mark.parametrize("name, N", [
    ("span", 16), ("span", 256), ("gauss", 4096), ("readme", 64), ("readme", 4096),
    ("abs", 16), ("abs", 256), ("abs", 4096), ("planted", 16), ("planted", 4096),
    ("gauss", 8192), ("abs", 8192),
])
def test_mt_fft_probe_in_the_first_block_keeps_every_bit(name, N):
    # the probe points ride in the first block's call of f: on either
    # branch the values and meta are those of separate calls, bit for bit
    f = _MT_TEST_FUNCTIONS[name](N)
    got = co.mt_coeffs_fft(f, N)
    want = _mt_with_probe_calls(f, N)
    assert got.n_start == want.n_start and got.meta == want.meta
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("N", [16, 1024, 8192])
@pytest.mark.parametrize("name", sorted(_MT_SLOW))
def test_mt_fft_slow_decay_raises_for_the_same_f(name, N):
    f = _MT_SLOW[name]
    try:
        want = _mt_with_probe_calls(f, N)
    except ValueError:
        with pytest.raises(ValueError, match="jumps at theta = pi"):
            co.mt_coeffs_fft(f, N)
        assert name in ("reciprocal", "one-sided")
        return
    got = co.mt_coeffs_fft(f, N)
    assert got.meta == want.meta and np.array_equal(got.values, want.values)
    assert name in ("even-limit", "lorentz")


@pytest.mark.parametrize("name, N, calls", [
    ("span", 16, [2 * 16 + 4]), ("span", 256, [2 * 256 + 4]), ("gauss", 2048, [4096 + 4]),
    ("span", 4, [2 * 4 + 4, 2 * 4]),
    ("abs", 256, [2 * 256 + 4, 2 * 256]), ("abs", 2048, [4096 + 4, 4096]),
    ("gauss", 8192, [4096 + 4, 4096, 4096, 4096]),
])
def test_mt_fft_calls_f_once_per_block(name, N, calls):
    # for N <= 2048 each grid is one block: one call on the 2N branch, one
    # more for the odd grid on the 4N branch
    f, sizes = _counted(_MT_TEST_FUNCTIONS[name](N))
    co.mt_coeffs_fft(f, N)
    assert sizes == calls


# (a, b) -> (s, trig): phi_n = (-1)^n sqrt(2/pi) sqrt(sech x) trig((n + s) theta)
# with cos theta = tanh x, and phi_0 of (1/4, 1/4) halved in square
_TANH_KINDS = {(0.75, 0.75): (1.0, np.sin), (0.25, 0.25): (0.0, np.cos),
               (0.25, 0.75): (0.5, np.cos), (0.75, 0.25): (0.5, np.sin)}


def _tanh_phi(kind, n, x):
    s, trig = _TANH_KINDS[kind]
    theta = 2.0 * np.arctan(np.exp(-x))  # tan(theta/2) = e^{-x}
    c = math.sqrt(0.5) if s == 0.0 and n == 0 else 1.0
    return (-1.0) ** n * c * math.sqrt(2.0 / math.pi) * np.sqrt(np.sin(theta)) * trig((n + s) * theta)


def _tanh_midpoint(f, kind, N, M):
    """The M-point midpoint rule for <f, phi_n>, n < N, in one shot: with
    tanh x = cos theta, <f, phi_n> = (-1)^n sqrt(2/pi) Int_0^pi H(theta)
    trig((n + s) theta) d theta, H = f(x) / sqrt(sin theta), on
    theta_j = (j + 1/2) h, h = pi / M; the sums are taken by FFT."""
    s, trig = _TANH_KINDS[kind]
    h = np.pi / M
    # theta_{M-1-j} = pi - theta_j mirrors x; tan of the small angles keeps
    # the points exact to rounding in theta
    lower = (np.arange(M // 2) + 0.5) * h
    xl = -np.log(np.tan(lower / 2.0))
    x = np.concatenate((xl, -xl[::-1]))
    sin = np.sqrt(np.sin(lower))
    H = f(x) / np.concatenate((sin, sin[::-1]))
    # e^{-+i (n+s) theta_j} = e^{-+i (n+s) h/2} e^{-+i s h j} e^{-+2 pi i n j / 2M}
    j, n = np.arange(M), np.arange(N)
    nu = n + s
    minus = np.exp(-0.5j * nu * h) * np.fft.fft(H * np.exp(-1j * s * h * j), 2 * M)[:N]
    plus = np.exp(0.5j * nu * h) * (2 * M) * np.fft.ifft(H * np.exp(1j * s * h * j), 2 * M)[:N]
    sums = (plus + minus) / 2.0 if trig is np.cos else (plus - minus) / 2.0j
    if s == 0.0:
        sums[0] *= math.sqrt(0.5)
    return (-1.0) ** n * math.sqrt(2.0 / math.pi) * h * sums


def _tanh_grid(f, kind, M):
    """max |H| and the whole spectrum of the single-grid rule on M points,
    operation for operation as the transform takes them."""
    a, b = kind
    theta = (np.arange(M // 2) + 0.5) * (math.pi / M)
    x = np.empty(M)
    x[:M // 2] = -np.log(np.tan(0.5 * theta))
    x[M // 2:] = -x[M // 2 - 1::-1]
    H = np.empty(M)
    H[:M // 2] = np.sqrt(np.sin(theta))
    H[M // 2:] = H[M // 2 - 1::-1]
    fx = np.asarray(f(x))
    if np.iscomplexobj(fx) and not np.any(fx.imag):
        fx = fx.real
    H = fx / H
    transform = scipy.fft.dst if _TANH_KINDS[kind][1] is np.sin else scipy.fft.dct
    return float(np.abs(H).max()), transform(H, type=2 if a == b else 4)


def _tanh_one_grid(f, kind, N, M):
    """The single-grid rule as the transform takes it on M points, operation
    for operation: the values the N <= 256 and fallback branches must
    return bit for bit."""
    return _tanh_scaled(_tanh_grid(f, kind, M)[1], kind, N, M)


def _tanh_scaled(spectrum, kind, N, M):
    a, b = kind
    vals = spectrum[:N]
    scale = math.pi / (2.0 * M) / math.sqrt(2.0 ** (2 * a + 2 * b - 1) * specfun.beta(2 * a, 2 * b))
    vals = vals * (scale if kind == (0.75, 0.75) else scale * math.sqrt(2.0))
    if kind == (0.25, 0.25):
        vals[0] /= math.sqrt(2.0)
    vals[1::2] *= -1.0
    return vals


def _tanh_with_probe_calls(f, kind, N):
    """The transform with f called once for each probe point and once per
    grid, the grids and the branch rule as the transform takes them:
    (values, meta), or ValueError when H blows up."""
    M = max(4 * N, 1024)
    th0 = 0.25 * (0.5 * (math.pi / M))
    probe = 0.0
    for th in (th0, math.pi - th0):
        xq = -math.log(math.tan(0.5 * th))
        hq = complex(np.asarray(f(np.array([xq])), dtype=complex)[0]) / math.sqrt(math.sin(th))
        probe = max(probe, abs(hq))
    for size in (max(2 * N, 1024), M):
        top, spectrum = _tanh_grid(f, kind, size)
        blows_up = probe > 1.2 * max(top, 1e-300)
        if size == M and blows_up:
            raise ValueError("f decays too slowly for the tanh-Chebyshev transform path")
        ratio = co._out_of_window(spectrum, N, size)
        if size == M or (ratio <= 1e-14 and not blows_up):
            break
    return _tanh_scaled(spectrum, kind, N, size), {
        "method": "tanh-chebyshev", "kind": kind, "samples": size, "out_of_window": ratio}


_TANH_SPAN = np.array([1.0, 1j]) @ np.random.default_rng(27).standard_normal((2, 3))
_TANH_TEST_FUNCTIONS = {
    # c_1 phi_1 + c_5 phi_5 + c_11 phi_11
    "span": lambda kind, N: lambda x: sum(c * _tanh_phi(kind, n, x)
                                          for n, c in zip((1, 5, 11), _TANH_SPAN)),
    "gauss": lambda kind, N: lambda x: np.exp(-(x**2)),
    "sech2": lambda kind, N: lambda x: 1.0 / np.cosh(x) ** 2,
    "abs": lambda kind, N: lambda x: np.exp(-np.abs(x)),
    # phi_N and phi_{N+1} sit just past the window n = 0 .. N-1
    "edge": lambda kind, N: lambda x: _tanh_phi(kind, 0, x) + _tanh_phi(kind, N, x),
    "planted": lambda kind, N: lambda x: _tanh_phi(kind, 0, x) + _tanh_phi(kind, N + 1, x),
}
_TANH_KIND_IDS = [f"{a},{b}" for a, b in _TANH_KINDS]


@pytest.mark.parametrize("kind", list(_TANH_KINDS), ids=_TANH_KIND_IDS)
@pytest.mark.parametrize("N", [16, 256, 4096])
@pytest.mark.parametrize("name", sorted(_TANH_TEST_FUNCTIONS))
def test_tanh_chebyshev_matches_one_shot_midpoint_rule(name, N, kind):
    f = _TANH_TEST_FUNCTIONS[name](kind, N)
    got = co.tanh_chebyshev_coeffs(f, kind, N)
    ref = _tanh_midpoint(f, kind, N, max(4 * N, 1024))
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got.values - ref)) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("kind", list(_TANH_KINDS), ids=_TANH_KIND_IDS)
@pytest.mark.parametrize("name, N, half", [
    ("span", 512, True), ("span", 4096, True), ("gauss", 1024, True), ("gauss", 4096, True),
    ("sech2", 4096, False), ("abs", 512, False), ("abs", 4096, False),
    ("edge", 512, False), ("edge", 4096, False), ("planted", 512, False), ("planted", 4096, False),
])
def test_tanh_chebyshev_branch_rule(name, N, half, kind):
    # the 2N rule stands alone only when its bins past the window, which
    # estimate |a_n| for N <= n < 2N, are at rounding level; a fallback is
    # the 4N rule itself, bit for bit
    f = _TANH_TEST_FUNCTIONS[name](kind, N)
    got = co.tanh_chebyshev_coeffs(f, kind, N)
    assert got.meta["samples"] == (2 * N if half else 4 * N)
    assert (got.meta["out_of_window"] <= 1e-14) == half
    if name in ("edge", "planted"):
        assert got.meta["out_of_window"] > 0.5
    if not half:
        assert np.array_equal(got.values, _tanh_one_grid(f, kind, N, 4 * N))


@pytest.mark.parametrize("kind", list(_TANH_KINDS), ids=_TANH_KIND_IDS)
@pytest.mark.parametrize("N", [4, 256])
@pytest.mark.parametrize("name", sorted(_TANH_TEST_FUNCTIONS))
def test_tanh_chebyshev_small_n_samples_one_grid(name, N, kind):
    # max(2N, 1024) = max(4N, 1024) = 1024: f is sampled once
    f = _TANH_TEST_FUNCTIONS[name](kind, N)
    got = co.tanh_chebyshev_coeffs(f, kind, N)
    assert got.meta["samples"] == 1024
    assert np.array_equal(got.values, _tanh_one_grid(f, kind, N, 1024))
    if name in ("edge", "planted"):
        assert got.meta["out_of_window"] > 0.5


@pytest.mark.parametrize("kind", list(_TANH_KINDS), ids=_TANH_KIND_IDS)
@pytest.mark.parametrize("f, N, raises", [
    (lambda x: np.exp(-np.abs(x) / 4.0), 64, True),
    (lambda x: np.exp(-np.abs(x) / 4.0), 4096, True),
    # H = f / sqrt(sin theta) still peaks inside the 1024-point grid, so the
    # probe passes below N = 2048 (it reads 0.69 of the grid maximum at
    # N = 256 and 1.26 at N = 2048)
    (lambda x: 1.0 / (1.0 + x * x), 64, False),
    (lambda x: 1.0 / (1.0 + x * x), 4096, True),
], ids=["exp(-|x|/4)-64", "exp(-|x|/4)-4096", "1/(1+x^2)-64", "1/(1+x^2)-4096"])
def test_tanh_chebyshev_slow_decay_raises(f, N, raises, kind):
    # H grows toward theta = 0, pi when f decays more slowly than
    # e^{-|x|/2}; the probe beyond the 4N grid sees it on either branch
    if raises:
        with pytest.raises(ValueError, match="decays too slowly"):
            co.tanh_chebyshev_coeffs(f, kind, N)
    else:
        assert co.tanh_chebyshev_coeffs(f, kind, N).meta["samples"] == 1024


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22: a 1/x^2 tail at N = 64 returns "
                   "2.0e-5 off with out_of_window 6.7e-3 and no error")
def test_tanh_chebyshev_slow_tail_raises_or_matches_xspace():
    # the x-space rule on [-40, 40] agrees with [-80, 80] to 2e-15
    f = lambda x: 1.0 / (1.0 + x * x)
    try:
        got = co.tanh_chebyshev_coeffs(f, (0.75, 0.75), 64)
    except AccuracyError:
        return
    ref = co.coeffs_xspace(f, make_basis("tanhjacobi:0.75,0.75", N=64), 64,
                           window=(-40.0, 40.0), M=16385)
    assert np.max(np.abs(got.values - ref.values)) < 1e-9


def test_tanh_chebyshev_probe_decides_when_the_2n_grid_sees_nothing():
    # f is 0 on every point of the 2N grid and 1 past its outermost x: the
    # 2N bins read 0 / 0, but H = f / sqrt(sin theta) blows up between the
    # 4N grid's end and the probe, and the 4N rule raises as it does alone
    N = 4096
    reach = -math.log(math.tan(0.25 * math.pi / (2 * N)))  # x at theta_0 of 2N points
    f = lambda x: (np.abs(x) > reach + 0.3).astype(float)
    assert not np.any(f(-np.log(np.tan(0.5 * (np.arange(N) + 0.5) * (math.pi / (2 * N))))))
    with pytest.raises(ValueError, match="decays too slowly"):
        co.tanh_chebyshev_coeffs(f, (0.25, 0.75), N)


def test_tanh_chebyshev_zero_function_takes_the_half_grid():
    a = co.tanh_chebyshev_coeffs(lambda x: np.zeros_like(x), (0.25, 0.75), 512)
    assert a.meta["samples"] == 1024 and a.meta["out_of_window"] == 0.0
    assert not np.any(a.values)


@pytest.mark.parametrize("kind", list(_TANH_KINDS), ids=_TANH_KIND_IDS)
@pytest.mark.parametrize("name, N", [
    ("span", 16), ("span", 512), ("gauss", 256), ("gauss", 4096),
    ("sech2", 512), ("sech2", 4096), ("abs", 512), ("abs", 4096),
    ("planted", 512), ("planted", 4096), ("edge", 512),
])
def test_tanh_chebyshev_probe_in_the_first_grid_keeps_every_bit(name, N, kind):
    # the two probe points ride in the first grid's call of f: the accepted
    # 2N pass, the 4N fallback (sech^2, exp(-|x|), phi_0 + phi_{N+1}) and
    # the one 1024-point grid of N <= 256 keep the values and meta of
    # separate calls, bit for bit
    f = _TANH_TEST_FUNCTIONS[name](kind, N)
    got = co.tanh_chebyshev_coeffs(f, kind, N)
    want, meta = _tanh_with_probe_calls(f, kind, N)
    assert got.meta == meta
    assert np.array_equal(got.values, want)


_TANH_SLOW = {
    "exp(-|x|/4)": lambda x: np.exp(-np.abs(x) / 4.0),
    "1/(1+x^2)": lambda x: 1.0 / (1.0 + x * x),
    "exp(-|x|/2)": lambda x: np.exp(-np.abs(x) / 2.0),
}


@pytest.mark.parametrize("kind", [(0.25, 0.75), (0.75, 0.75)], ids=["0.25,0.75", "0.75,0.75"])
@pytest.mark.parametrize("N", [64, 512, 4096])
@pytest.mark.parametrize("name", sorted(_TANH_SLOW))
def test_tanh_chebyshev_slow_decay_raises_for_the_same_f(name, N, kind):
    f = _TANH_SLOW[name]
    try:
        want, meta = _tanh_with_probe_calls(f, kind, N)
    except ValueError:
        with pytest.raises(ValueError, match="decays too slowly"):
            co.tanh_chebyshev_coeffs(f, kind, N)
        return
    got = co.tanh_chebyshev_coeffs(f, kind, N)
    assert got.meta == meta and np.array_equal(got.values, want)


@pytest.mark.parametrize("name, N, calls", [
    ("gauss", 4, [1024 + 2]), ("abs", 256, [1024 + 2]), ("span", 512, [1024 + 2]),
    ("gauss", 4096, [8192 + 2]), ("sech2", 4096, [8192 + 2, 16384]),
    ("abs", 512, [1024 + 2, 2048]),
])
def test_tanh_chebyshev_calls_f_once_per_grid(name, N, calls):
    # one call for a result on the first grid, two for a fallback
    f, sizes = _counted(_TANH_TEST_FUNCTIONS[name]((0.75, 0.25), N))
    co.tanh_chebyshev_coeffs(f, (0.75, 0.25), N)
    assert sizes == calls


@pytest.mark.parametrize("f, samples, grids", [
    (lambda x: np.exp(-(x**2)), 2, 2.25),
    (lambda x: 1.0 / np.cosh(x), 4, 4.5),
], ids=["2N", "4N"])
def test_tanh_chebyshev_memory(f, samples, grids):
    # the peak, in float arrays of M = 4N samples, measured at 2.0 (2N
    # branch) and 4.0 (4N): x, H (divided in place and transformed in place)
    # and f's two temporaries on the grid sampled last.  The 4N bound fails
    # if a 2N-point array of the first pass (half a grid) outlives it
    N = 2**14
    assert co.tanh_chebyshev_coeffs(f, (0.75, 0.75), N).meta["samples"] == samples * N
    peak = _peak_bytes(lambda: co.tanh_chebyshev_coeffs(f, (0.75, 0.75), N))
    assert peak <= grids * (4 * N) * 8


def test_decay_fit_exponential_recovers_planted_rate():
    # planted |a_n| = 3 * rho^{-n}
    rho = 2.5
    n = np.arange(64)
    vals = 3.0 * rho ** (-n.astype(float))
    a = co.CoefficientVector(values=vals, n_start=0)
    fit = co.decay_fit(a, "exponential", skip=4)
    assert fit.model == "exponential"
    assert abs(fit.param - rho) < 1e-10
    assert abs(fit.amplitude - 3.0) < 1e-9
    assert fit.r2 > 1.0 - 1e-12


def test_decay_fit_algebraic_recovers_planted_exponent():
    n = np.arange(1, 400)
    vals = 2.0 * n.astype(float) ** (-2.25)
    a = co.CoefficientVector(values=vals, n_start=1)
    fit = co.decay_fit(a, "algebraic", skip=8)
    assert abs(fit.param - 2.25) < 1e-8


def test_decay_fit_stretched_recovers_planted_coefficient():
    n = np.arange(128)
    vals = 1.7 * np.exp(-1.5 * n.astype(float) ** (2.0 / 3.0))
    a = co.CoefficientVector(values=vals, n_start=0)
    fit = co.decay_fit(a, "stretched:0.6666666666666666", skip=4)
    assert abs(fit.param - 1.5) < 1e-8
    assert abs(fit.p - 2.0 / 3.0) < 1e-15


def test_decay_fit_bilateral_folds_sides():
    rho = 3.0
    n = np.arange(-32, 32)
    vals = rho ** (-np.abs(n).astype(float))
    a = co.CoefficientVector(values=vals, n_start=-32)
    fit = co.decay_fit(a, "exponential", skip=4)
    assert abs(fit.param - rho) < 1e-8


def test_decay_fit_floor_excludes_noise():
    rng = np.random.default_rng(11)
    n = np.arange(200)
    vals = 2.0 ** (-n.astype(float))
    vals = np.maximum(vals, 1e-15) + 1e-16 * rng.random(200)
    a = co.CoefficientVector(values=vals, n_start=0)
    fit = co.decay_fit(a, "exponential", skip=2)
    assert abs(fit.param - 2.0) < 1e-3
    assert fit.n_used < 60


def _decay_envelope_by_loop(k, m):
    """The envelope as a loop over the 48 log-spaced bins: the reference."""
    edges = np.geomspace(k[0], k[-1] + 1.0, 49)
    ks, logs = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (k >= lo) & (k < hi)
        if np.any(inside):
            j = int(np.argmax(m[inside]))
            ks.append(k[inside][j])
            logs.append(math.log(m[inside][j]))
    return np.array(ks), np.array(logs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k0=st.integers(1, 40), size=st.integers(1, 3000), levels=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_decay_envelope_is_bit_identical_to_the_bin_loop(k0, size, levels, seed):
    # runs found by searchsorted and peaks by maximum.reduceat give the loop's
    # points bit for bit; few levels force ties, where the first largest wins
    rng = np.random.default_rng(seed)
    k = (k0 + np.arange(size)).astype(float)
    m = (1.0 + rng.integers(0, levels, size)) * np.exp(-0.01 * k)
    for got, want in zip(co._log_bin_envelope(k, m), _decay_envelope_by_loop(k, m)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("left,right", [(32, 32), (5, 60), (60, 5), (40, 1)])
def test_decay_fit_bilateral_fold_keeps_the_larger_side(left, right):
    # the sliced fold equals np.maximum.at onto |n|, so the fit is that of the
    # one-sided vector of the larger magnitudes
    rng = np.random.default_rng(left)
    n = np.arange(-left, right)
    vals = (1.0 + rng.random(n.size)) * 1.3 ** (-np.abs(n).astype(float))
    folded = np.zeros(np.max(np.abs(n)) + 1)
    np.maximum.at(folded, np.abs(n), np.abs(vals))
    two = co.CoefficientVector(values=vals, n_start=-left)
    one = co.CoefficientVector(values=folded, n_start=0)
    assert co.decay_fit(two, "exponential", skip=2) == co.decay_fit(one, "exponential", skip=2)


def test_decay_fit_unknown_model():
    a = co.CoefficientVector(values=np.ones(8), n_start=0)
    with pytest.raises(ValueError):
        co.decay_fit(a, "cubic")
