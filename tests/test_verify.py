"""Diagnostic checks: report structure, Gram strategies, the exact
Legendre tail integrals, Cramer, Ramanujan, identity, and support."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from favard import _panels
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


def test_recurrence_reports_its_rounding_floor():
    # the Richardson difference divides the rounding of phi by h; the report
    # carries eps max|phi| / h over the table it differences, and for these
    # closed forms the residual is within a small multiple of it
    eps = np.finfo(float).eps
    xs = np.linspace(-3.3, 3.3, 23)
    shifts = np.array([-2e-3, -1e-3, -5e-4, 0.0, 5e-4, 1e-3, 2e-3])
    for family in ("hermite", "legendre", "tanhjacobi:0.75,0.75"):
        basis = make_basis(family, N=12)
        rep = ver.check_recurrence(basis, N=10)
        table = basis_mod.phi_grid(basis, 10, (xs[None, :] + shifts[:, None]).ravel())
        floor = eps * np.max(np.abs(table)) / 1e-3
        assert rep.tolerance == 1e-6 and rep.passed, family
        assert rep.metadata["rounding_floor"] == pytest.approx(floor, rel=1e-12), family
        assert rep.max_abs_error <= 16.0 * floor, family


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


@pytest.mark.parametrize("M", [2**16, 2**16 + 1, 2**16 + 2])
@pytest.mark.parametrize("symmetric", [True, False])
def test_pw_support_one_row_matches_full_grid_exactly(M, symmetric):
    # odd M and an asymmetric measure take the plain full grid and must
    # reproduce the full-grid rfft ratio bit for bit; the folded check
    # (symmetric measure, even M: the half-length DCT-II/DST-II energies from
    # a complex FFT of length M/4, or M/2 when M/2 is odd) moves it at
    # rounding level only
    basis = make_basis("legendre", N=8)
    if not symmetric:
        basis.measure = dataclasses.replace(basis.measure, symmetric=False)
    folded = symmetric and M % 2 == 0
    for n in range(6):
        rep = ver.check_pw_support(basis, n=n, M=M)
        want = _pw_ratio_full_grid(basis, n, M)
        if folded:
            assert abs(rep.max_abs_error - want) <= 1e-12 * want, n
        else:
            assert rep.max_abs_error == want, n
        assert rep.metadata == {"family": "legendre", "n": n, "support": (-1.0, 1.0),
                                "M": M, "dx": 3.0}


def test_pw_support_reports_fold_one_table(monkeypatch):
    # one list call evaluates the Legendre table block by block, on half the
    # grid, each point once, and no single row; a lone row takes the
    # single-row sweep and no table; each ratio matches the full-grid rfft
    tables, singles = [], []

    def table(nmax, x, sincos=None):
        tables.append((nmax, len(x)))
        return basis_mod._legendre_scan(nmax, x, collect=True)

    def single(n, x, sincos=None):
        singles.append((n, len(x)))
        return basis_mod._legendre_scan(n, x, collect=False)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("the folded check evaluates no row through phi")

    monkeypatch.setattr(basis_mod, "transformed_legendre_table", table)
    monkeypatch.setattr(basis_mod, "transformed_legendre", single)
    monkeypatch.setattr(basis_mod, "phi", refuse)
    monkeypatch.setattr(ver, "_PW_BLOCK", 2**10)
    basis = make_basis("legendre", N=8)
    M = 2**16
    reps = ver.pw_support_reports(basis, range(6), M=M)
    assert singles == [] and len(tables) == M // 2 // 2**10
    assert all(nmax == 5 for nmax, _ in tables)
    assert sum(size for _, size in tables) == M // 2
    tables.clear()
    lone = ver.check_pw_support(basis, n=5, M=M)
    assert tables == [] and all(n == 5 for n, _ in singles)
    assert sum(size for _, size in singles) == M // 2
    monkeypatch.undo()
    assert [r.metadata["n"] for r in reps] == list(range(6))
    for n, rep in enumerate(reps):
        want = _pw_ratio_full_grid(basis, n, M)
        assert abs(rep.max_abs_error - want) <= 1e-12 * want, n
    assert abs(lone.max_abs_error - reps[5].max_abs_error) <= 1e-12 * lone.max_abs_error


@pytest.mark.parametrize("family", ["legendre", "ultraspherical:0"])
def test_pw_support_blocks_match_one_block_bitwise(monkeypatch, family):
    # every sweep is elementwise, so the ratios do not depend on where the
    # half grid is cut: blocks of 1 and 2 points start in the Miller branch
    # (x = 1.5 and 4.5 lie below nmax = 5), and 3 and 100 do not divide M/2
    basis = make_basis(family, N=8)
    M = 2**10

    def ratios():
        table = [r.max_abs_error for r in ver.pw_support_reports(basis, range(6), M=M)]
        return table, ver.check_pw_support(basis, 5, M=M).max_abs_error

    monkeypatch.setattr(ver, "_PW_BLOCK", M // 2)
    want = ratios()
    for block in (1, 2, 3, 100, 2**7):
        monkeypatch.setattr(ver, "_PW_BLOCK", block)
        assert ratios() == want, block


def test_pw_support_memory_is_one_row_per_index():
    # the tapered rows go straight into one real (rows, M/2) buffer that the
    # transforms overwrite; the blocks add only a small, fixed amount
    basis = make_basis("legendre", N=8)
    M = 2**20
    tracemalloc.start()
    try:
        ver.pw_support_reports(basis, range(3), M=M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 3 * (M // 2) * 8


def _kernel_energies(g, odd, cut, splits=()):
    # the folded check's energy kernel on one half row g, written into its
    # buffer block by block at the given split points
    N = g.size
    z, v = ver._makhoul_buffer(1, N)
    bounds = [0, *splits, N]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        (es, et), (os_, ot) = ver._makhoul_slots(N, start, stop)
        block = g[start:stop]
        v[0, et] = block[es]
        v[0, ot] = -block[os_] if odd else block[os_]
    return ver._makhoul_energies(N, cut)(z[0], v[0], odd), v[0].copy()


def _dct_energies(g, odd, cut):
    # the energies as the DCT-II/DST-II fold computed them: bin j of an even
    # row is frequency j (bin 0 counted once), bin j of an odd row j + 1
    if odd:
        y = scipy.fft.dst(g, type=2) ** 2
        return float(y[cut - 1:].sum()), float(y.sum())
    y = scipy.fft.dct(g, type=2) ** 2
    y[0] *= 0.5
    return float(y[cut:].sum()), float(y.sum())


@pytest.mark.parametrize("N", [64, 65, 1000, 1001, 2**12, 2**12 + 1])
@pytest.mark.parametrize("odd", [False, True])
def test_makhoul_energies_match_dct_dst(N, odd):
    # random rows, M/2 = N even and odd, cuts at the check's own fraction
    # (band dx / pi = 0.955 of N), at N/2 and either side of it, and low
    rng = np.random.default_rng(N + odd)
    for cut in (round(0.955 * N), N // 2 + 1, N // 2, (N + 1) // 2, N // 3, 2):
        g = rng.standard_normal(N)
        (out, total), _ = _kernel_energies(g, odd, cut)
        want_out, want_total = _dct_energies(g, odd, cut)
        assert abs(out - want_out) <= 1e-13 * want_out, (cut, out, want_out)
        assert abs(total - want_total) <= 1e-13 * want_total, cut


@st.composite
def _kernel_cases(draw):
    N = draw(st.integers(1, 3000))
    cut = draw(st.integers(1, N))
    odd = draw(st.booleans())
    splits = sorted(set(draw(st.lists(st.integers(1, max(N - 1, 1)), max_size=4))))
    return N, cut, odd, [p for p in splits if p < N]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_kernel_cases())
def test_makhoul_energies_property(case):
    # every size and cut: the energies match the DCT-II/DST-II ones, and the
    # buffer does not depend on where the row was cut into blocks.  A bin
    # is accurate to rounding of the whole spectrum, so a small out-of-band
    # share is held to that, about eps sqrt(out * total), and to 1e-13
    # relative otherwise
    N, cut, odd, splits = case
    g = np.random.default_rng(N * 7 + cut).standard_normal(N)
    (out, total), buf = _kernel_energies(g, odd, cut, splits)
    want_out, want_total = _dct_energies(g, odd, cut)
    eps = np.finfo(float).eps
    assert abs(out - want_out) <= 1e-13 * want_out + 4 * eps * math.sqrt(want_out * want_total)
    assert abs(total - want_total) <= 1e-13 * want_total
    assert np.array_equal(buf, _kernel_energies(g, odd, cut)[1])


@pytest.mark.parametrize("L,Q", [(2**16, 16), (16 * 3000, 16), (8 * 1001, 8),
                                 (2 * 1001, 2), (1001, 1)])
def test_two_stage_fft_ends_match_fft(L, Q):
    # Q = gcd(L, 16) chunks of P columns; P = 3000 is not a multiple of
    # the block width, and odd L is the plain FFT.  The ends the
    # out-of-band bins read, and other ranges, match one length-L FFT
    assert math.gcd(L, 16) == Q
    rng = np.random.default_rng(L)
    z = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    want = scipy.fft.fft(z)
    Z = ver._two_stage_fft(L)(z.copy())
    b = round(0.09 * L)
    tol = 1e-13 * np.max(np.abs(want))
    for i, j in ((0, b), (L - b + 1, L), (0, 1), (5, 5), (Q + 1, 3 * Q + 2), (0, L)):
        got = Z(i, j)
        assert got.shape == (j - i,)
        assert np.max(np.abs(got - want[i:j]), initial=0.0) <= tol, (i, j)


def test_two_stage_fft_runs_no_long_fft(monkeypatch):
    # the folded Legendre check transforms rows of length L / Q = M / 64
    # only: no FFT of a whole quarter row runs
    lengths = []
    fft = scipy.fft.fft

    def spy(x, *args, axis=-1, **kwargs):
        lengths.append(np.shape(x)[axis])
        return fft(x, *args, axis=axis, **kwargs)

    monkeypatch.setattr(scipy.fft, "fft", spy)
    M = 2**16
    reps = ver.pw_support_reports(make_basis("legendre", N=8), range(3), M=M)
    assert all(0.0 < r.max_abs_error < 1.0 for r in reps)
    assert lengths and max(lengths) == M // 4 // 16


def test_pw_support_two_stage_matches_full_grid():
    # rows 0..5 at M = 2^20, where each quarter row is 16 rows of 2^14
    basis = make_basis("legendre", N=8)
    M = 2**20
    for n, rep in enumerate(ver.pw_support_reports(basis, range(6), M=M)):
        want = _pw_ratio_full_grid(basis, n, M)
        assert abs(rep.max_abs_error - want) <= 1e-12 * want, n


def test_unit_steps_are_within_ulps_of_numpy():
    # the angle-addition table on the default half grid, M = 2^23, dx = 3,
    # against np.sin/np.cos, and each value the same whatever range asks
    half, dx = 2**22, 3.0
    steps = ver._unit_steps(0.5, dx, half)
    e = steps(0, half)
    x = (np.arange(half) + 0.5) * dx
    eps = np.finfo(float).eps
    assert np.max(np.abs(e.imag - np.sin(x))) <= 4 * eps
    assert np.max(np.abs(e.real - np.cos(x))) <= 4 * eps
    for start, stop in ((0, 1), (2047, 2049), (12345, 12345 + 3 * 2**11), (half - 5, half)):
        assert np.array_equal(steps(start, stop), e[start:stop])


def test_pw_support_fold_calls_no_dct_or_dst(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the folded check runs no DCT or DST")

    monkeypatch.setattr(scipy.fft, "dct", refuse)
    monkeypatch.setattr(scipy.fft, "dst", refuse)
    for family, M in (("legendre", 2**12), ("legendre", 2**12 + 2), ("jacobi:1,1", 2**8)):
        reps = ver.pw_support_reports(make_basis(family, N=8), range(3), M=M)
        assert all(0.0 < r.max_abs_error < 1.0 for r in reps), family


def test_pw_support_reports_fold_quadrature_rows():
    # a family without a closed table folds through phi_grid's complex,
    # exactly real rows
    basis = make_basis("jacobi:1,1", N=8)
    M = 2**8
    for n, rep in enumerate(ver.pw_support_reports(basis, range(3), M=M)):
        want = _pw_ratio_full_grid(basis, n, M)
        assert abs(rep.max_abs_error - want) <= 1e-12 * want, n


def test_pw_support_reports_expected_fail_per_row():
    reps = ver.pw_support_reports(make_basis("hermite", N=8), [0, 2])
    assert [r.metadata["n"] for r in reps] == [0, 2]
    assert all(r.metadata["expected_fail"] and r.max_abs_error == 1.0 for r in reps)
    assert ver.pw_support_reports(make_basis("legendre", N=8), []) == []


def _full_window_gram(basis, N, X, width):
    # the Gram over the whole window [-X, X], with no fold
    x, w = _panels.panel_rule(_panels.build_edges(-X, X, width=width))
    table = basis_mod.phi_grid(basis, N - 1, x)
    return (table * w) @ table.conj().T


@pytest.mark.parametrize("family,X,width", [("hermite", 15.0, 0.5),
                                            ("tanhjacobi:0.75,0.75", 13.0, 0.25),
                                            ("conthahn:1,1", 6.0, 0.5)])
def test_window_gram_fold(family, X, width):
    # a symmetric measure integrates [0, X] and adds the mirror half as
    # P G P; entries of opposite parity are exactly zero
    basis = make_basis(family, N=10)
    G = ver._window_gram(basis, 8, X, width)
    m, n = np.indices(G.shape)
    assert np.all(G[(m + n) % 2 == 1] == 0.0)
    assert np.max(np.abs(G - _full_window_gram(basis, 8, X, width))) < 1e-13


def test_gram_ultraspherical_zero_is_legendre():
    # the same functions, the same table, so the same strategy and error
    got = ver.check_gram(make_basis("ultraspherical:0", N=8), N=6).as_dict()
    want = ver.check_gram(make_basis("legendre", N=8), N=6).as_dict()
    assert got["pass"] and got["metadata"].pop("family") == "ultraspherical:0"
    want["metadata"].pop("family")
    assert got == want


def test_pw_support_rejects_negative_index():
    for family in ("legendre", "hermite"):
        with pytest.raises(ValueError):
            ver.check_pw_support(make_basis(family, N=8), n=-1, M=2**10)


def test_first_bin_above_matches_searchsorted():
    # the cut of the folded check, without the length-M/2+1 frequency array
    for M in (2**8, 2**9 + 1, 1000, 2**23):
        for dx in (3.0, 0.5, 0.1, math.pi / 7):
            k = 2.0 * math.pi * np.fft.rfftfreq(M, d=dx)
            bands = [0.0, 1.0, 0.999 * k[-1], k[-1], 2.0 * k[-1]]
            # bands on a bin frequency and one ulp either side of it
            for j in (1, 2, M // 7, M // 2 - 1, M // 2):
                bands += [k[j], np.nextafter(k[j], 0.0), np.nextafter(k[j], np.inf)]
            for band in bands:
                want = int(np.searchsorted(k, band, side="right"))
                assert ver._first_bin_above(float(band), M, dx) == want, (M, dx, band)
