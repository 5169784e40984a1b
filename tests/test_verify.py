"""Diagnostic checks: report structure, Gram strategies, the Legendre
lattice Gram and its zeta tail, Cramer, Ramanujan, identity, and support."""

import dataclasses
import math
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.special

from favard import basis as basis_mod
from favard import quadrature
from favard import verify as ver
from favard.basis import make_basis


def test_report_shape_and_schema():
    rep = ver.check_cramer(N=10)
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
    # M = 4K is the exactness bound of the lattice's trapezoid rule
    basis = make_basis("charlier:0.5", N=10)
    K = int(basis.measure.support[1])
    rep = ver.check_gram(basis, N=8)
    assert rep.passed and rep.tolerance == 1e-10
    assert rep.metadata["strategy"] == "trapezoid"
    assert rep.metadata["M"] == 4 * K and rep.metadata["K"] == K
    assert rep.max_abs_error < 1e-14


@pytest.mark.parametrize("family", ["custom-weight:exp(-x^4)", "conthahn:1,1",
                                    "conthahn:1,0.5", "genhermite:1", "ultraspherical:0.5"])
def test_lattice_gram_steps_by_the_band_of_the_rows(family):
    # every family without a closed table takes the lattice of the band
    # its rows are integrated over; the smooth weights pass at 1e-8
    # (conthahn with its closed table removed, as a quadrature-route measure)
    basis = dataclasses.replace(make_basis(family, N=8), closed_table=None)
    rep = ver.check_gram(basis, 6)
    lo, hi = quadrature._transform_interval(basis.measure, 5)
    assert rep.metadata["strategy"] == "nyquist-lattice"
    assert rep.metadata["step"] == 2.0 * math.pi / (hi - lo)
    assert 15.0 <= rep.metadata["reach"] < 30.0 + rep.metadata["step"]
    if family.startswith(("custom", "conthahn")):
        assert rep.passed and rep.metadata["tail"] <= 1e-9, family


@pytest.mark.parametrize("family", ["conthahn:1,1", "custom-weight:exp(x-x^4)"])
def test_lattice_gram_has_no_aliasing(family):
    # at a fixed reach the lattice at half the step adds nothing: the rows'
    # products are band-limited, so the Nyquist step is already exact; the
    # half-step lattice is sampled on both sides, so the fold onto k >= 0
    # (by parity for conthahn, by conjugation for the skewed weight) is
    # checked with it
    basis = make_basis(family, N=14)
    G, meta = ver._lattice_gram(basis, 12, tol=0.0)
    h = 0.5 * meta["step"]
    x = h * np.arange(-round(meta["reach"] / h), round(meta["reach"] / h) + 1)
    table = basis_mod.phi_grid(basis, 11, x)
    fine = h * table @ table.conj().T
    assert meta["reach"] >= 30.0
    assert np.max(np.abs(G - fine)) <= 1e-14


@pytest.mark.parametrize("family", ["custom-weight:exp(-x^4)", "hermite",
                                    "tanhjacobi:0.75,0.75", "mt"])
def test_gram_fails_a_planted_error(monkeypatch, family):
    # 1e-6 phi_0 added to row 2 moves G[0, 2] by 1e-6, past the tolerance,
    # on the lattice, Gauss-Hermite, Gauss-Jacobi and theta routes alike
    basis = make_basis(family, N=14)
    assert ver.check_gram(basis, 12).max_abs_error <= 1e-13
    grid = basis_mod.phi_grid

    def planted(basis, nmax, x, *args, **kwargs):
        rows = grid(basis, nmax, x, *args, **kwargs)
        rows[2] += 1e-6 * rows[0]
        return rows

    monkeypatch.setattr(basis_mod, "phi_grid", planted)
    rep = ver.check_gram(basis, 12)
    assert not rep.passed
    assert 1e-8 < rep.max_abs_error < 1e-5


@pytest.mark.parametrize("family, strategy", [("hermite", "gauss-hermite"),
                                              ("tanhjacobi:0.75,0.75", "gauss-jacobi"),
                                              ("tanhjacobi:0.25,0.75", "gauss-jacobi"),
                                              ("tanhjacobi:0.5,0.5", "gauss-jacobi"),
                                              ("conthahn:1,1", "gauss-jacobi"),
                                              ("conthahn:1,0.5", "gauss-jacobi")])
@pytest.mark.parametrize("N", [128, 256, 512])
def test_closed_gram_is_exact_at_every_size(family, strategy, N):
    # the N-point Gauss rule of the rows' own polynomials has no window to
    # outgrow: hermite rows pass |x| = 15 from n = 112 on; conthahn takes
    # tanhjacobi's rule at x = 2 artanh t
    rep = ver.check_gram(make_basis(family, N=N), N)
    assert rep.passed and rep.max_abs_error <= 1e-12, (family, N)
    assert rep.metadata == {"strategy": strategy, "family": family, "N": N, "nodes": N}


@pytest.mark.parametrize("family", ["mt", "laguerre:0"])
def test_theta_gram_is_exact_on_n_points(family):
    # |m - n| <= N - 1, so N points in theta integrate every product exactly
    rep = ver.check_gram(make_basis(family, N=512), 512)
    assert rep.passed and rep.max_abs_error <= 1e-13
    assert rep.metadata == {"strategy": "theta-substitution", "family": family,
                            "N": 512, "nodes": 512}


def test_lattice_reach_cap_grows_with_n():
    # rows spread as N grows: exp(-x^4) row 63 still reaches 0.25 past
    # |x| = 30, where a fixed cap of 30 stopped the sum (G read 0.51); the
    # cap 30 N / 32 lets the reach double past 60; the estimates at reach 15
    # and 30 are infinite, so no stall ends the doubling early
    rep = ver.check_gram(make_basis("custom-weight:exp(-x^4)", N=66), 64)
    assert rep.passed, rep.max_abs_error
    assert 60.0 <= rep.metadata["reach"] and rep.metadata["tail"] <= 1e-9
    assert "stalled" not in rep.metadata


@pytest.mark.parametrize("N", [33, 48])
def test_lattice_gram_doubles_on_to_a_converging_reach(N):
    # for 33 <= N < 64 the cap lets the reach double from 30 to 60; exp(-x^4)
    # rows are still in their bulk at 15 (|G - I| reads 0.77 and 0.85), and at
    # N = 33 the estimate at 30 is finite (1.3e-2) before it drops to 2.6e-30
    # at 60: no stall may end the doubling of a row that converges
    rep = ver.check_gram(make_basis("custom-weight:exp(-x^4)", N=N + 2), N)
    assert rep.passed, rep.max_abs_error
    assert rep.metadata["reach"] >= 60.0 and "stalled" not in rep.metadata


@pytest.mark.parametrize("N", [40, 48])
def test_lattice_gram_stops_on_rows_at_their_rounding_floor(N):
    # exp(-x^2/8) rows hold about 1e-28 of their mass beyond |x| = 7.5, where
    # the geometric estimate reads noise (q4 >= q3, an infinite tail); rows at
    # that floor count as converged, so the first reach ends the doubling
    # with a finite tail instead of doubling on to 60 and passing with tail
    # Infinity
    rep = ver.check_gram(make_basis("custom-weight:exp(-x^2/8)", N=N), N)
    assert rep.passed and rep.max_abs_error < 1e-11
    assert 15.0 <= rep.metadata["reach"] < 30.0
    assert rep.metadata["tail"] < 1e-20 and "stalled" not in rep.metadata


def test_lattice_gram_names_an_algebraic_tail():
    # jacobi rows decay only algebraically: the reach stops at its cap and
    # the tail estimate, not the basis, is what the report shows failing
    rep = ver.check_gram(make_basis("jacobi:0.5,1.5", N=14), 12)
    assert not rep.passed
    assert rep.metadata["step"] == math.pi
    assert 30.0 <= rep.metadata["reach"] < 30.0 + math.pi
    assert not math.isfinite(rep.metadata["tail"])


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
    # chosen by the discrete measure, not by the basis's type
    basis = make_basis("charlier:0.5", N=12)
    rep = ver.check_recurrence(basis, N=10)
    assert rep.passed and rep.tolerance == 1e-8
    assert rep.metadata["strategy"] == "fourier-exact"
    assert rep.metadata["K"] == int(basis.measure.support[1])
    assert rep.max_abs_error < 1e-13


def test_legendre_zeta_tail_strip_identity():
    # the tail at J1 minus the tail at J2 is the lattice sum over the strip
    # 2 J1 <= k < 2 J2 between them, both sides at weight pi / 2 each
    N = 10
    for J1, J2 in ((16, 40), (8, 9)):
        x = 0.5 * math.pi * np.arange(2 * J1, 2 * J2)
        table = basis_mod.transformed_legendre_table(N - 1, x)
        strip = math.pi * table @ table.T
        got = ver._zeta_tail(N, J1) - ver._zeta_tail(N, J2)
        assert np.max(np.abs(got - strip)) < 1e-15, (J1, J2)


@pytest.mark.parametrize("family", ["legendre", "ultraspherical:0"])
@pytest.mark.parametrize("N", [12, 24, 48, 96, 200])
def test_legendre_gram_at_rounding(family, N):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = ver.check_gram(make_basis(family, N=N), N)
    assert rep.max_abs_error <= 1e-14, (family, N)
    assert rep.metadata["strategy"] == "nyquist-lattice+zeta-tail"
    assert rep.metadata["step"] == 0.5 * math.pi
    assert rep.metadata["reach"] >= 0.5 * N * N - 0.5 * math.pi


def test_legendre_gram_fails_a_planted_gaussian(monkeypatch):
    # the clean table reads at rounding; 1e-6 exp(-x^2) added to row 3 of
    # every closed table moves G by about 1e-7, past the 1e-8 tolerance
    assert ver.check_gram(make_basis("legendre", N=24), 24).passed
    scan = basis_mod.transformed_legendre_table

    def planted(nmax, x):
        rows = scan(nmax, x)
        if nmax >= 3:
            rows[3] += 1e-6 * np.exp(-np.asarray(x, dtype=float) ** 2)
        return rows

    monkeypatch.setattr(basis_mod, "transformed_legendre_table", planted)
    rep = ver.check_gram(make_basis("legendre", N=24), 24)
    assert not rep.passed
    assert 1e-8 < rep.max_abs_error < 1e-6


def test_cramer_bound_attained_at_origin():
    rep = ver.check_cramer(N=50)
    assert rep.passed
    assert rep.metadata["argmax_n"] == 0
    assert abs(rep.metadata["argmax_x"]) < 1e-12


def test_cramer_report_frozen():
    # phi_0(0) = pi^(-1/4) is the grid's midpoint value, to the last bit
    rep = ver.check_cramer()
    assert rep.max_abs_error == 0.0
    assert rep.metadata == {"N": 50, "samples": 10001, "argmax_n": 0, "argmax_x": 0.0}


def test_cramer_sweeps_the_nonpositive_half_of_a_symmetric_window(monkeypatch):
    # |phi_n| is even bit for bit: the mirrored window of 10001 points of
    # [-10, 10] sweeps its points x <= 0, and the report is the whole
    # mirrored grid's, argmax included
    sizes = []
    table = basis_mod.hermite_function_table

    def counted(nmax, x):
        sizes.append(np.size(x))
        return table(nmax, x)

    monkeypatch.setattr(basis_mod, "hermite_function_table", counted)
    for N in (7, 50):
        rep = ver.check_cramer(N)
        half = np.linspace(0.0, 10.0, 5001)
        x = np.concatenate((-half[:0:-1], half))
        full = np.abs(table(N, x))
        n, j = np.unravel_index(np.argmax(full), full.shape)
        assert rep.max_abs_error == full[n, j] - math.pi ** -0.25
        assert (rep.metadata["argmax_n"], rep.metadata["argmax_x"]) == (n, x[j])
        assert sizes == [5001]
        sizes.clear()


def test_cramer_memory_is_one_table():
    # the moduli overwrite the table and one argmax reads the peak: no
    # table-sized copy besides the table itself (two np.abs copies read 2.02x)
    ver.check_cramer(N=2)
    tracemalloc.start()
    try:
        ver.check_cramer()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 51 * 10001 * 8


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


def test_tanh_jacobi_identity_asymmetric():
    # for a != b the transform integrates the gamma-pair phase, and the
    # identity holds at rounding level, as for a = b
    for a, b in ((1.0, 0.5), (0.75, 0.25), (0.5, 1.5), (2.0, 1.0), (0.5, 1.0)):
        rep = ver.check_tanh_jacobi_identity(a, b)
        assert rep.passed and rep.max_abs_error < 1e-12, (a, b)
    with pytest.raises(TypeError):
        ver.check_tanh_jacobi_identity(0.5, 1.0, experimental=True)


@pytest.mark.parametrize("factor", [-1.0, 1j])
@pytest.mark.parametrize("row", [0, 3])
def test_tanh_jacobi_identity_sees_a_per_degree_phase(monkeypatch, row, factor):
    # the check compares the tables entry by entry, so a closed row off by a
    # sign or a unit phase fails it; a constant fitted per degree hid both
    table = basis_mod.tanh_jacobi_table

    def planted(a, b, nmax, x):
        out = table(a, b, nmax, x).astype(complex)
        out[row] *= factor
        return out

    monkeypatch.setattr(basis_mod, "tanh_jacobi_table", planted)
    for a, b in ((0.75, 0.75), (0.75, 0.25)):
        rep = ver.check_tanh_jacobi_identity(a, b)
        assert not rep.passed and rep.max_abs_error > 1e-3, (a, b)


def test_pw_support_legendre_inside_band():
    rep = ver.check_pw_support(make_basis("legendre", N=8), n=0)
    assert rep.passed
    assert rep.max_abs_error < 1e-28


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
        "tolerance": 1e-24, "pass": False,
        "metadata": {"family": "hermite", "n": 2, "support": (-np.inf, np.inf),
                     "delta": 0.05, "expected_fail": True},
    }
    assert list(rep.metadata) == ["family", "n", "support", "delta", "expected_fail"]


def _pw_ratio(basis, n):
    # the guard-band ratio of row n, at delta = 0.05 on [-1, 1], written
    # out with numpy's own FFT
    meta = ver.check_pw_support(basis, n).metadata
    M, dx, W = meta["M"], meta["dx"], meta["width"]
    x = (np.arange(M) - M / 2 + 0.5) * dx
    g = basis_mod.phi_grid(basis, n, x)[n] * np.exp(-0.5 * (x / W) ** 2)
    energy = np.abs(np.fft.fft(g)) ** 2
    k = np.abs(2.0 * math.pi * np.fft.fftfreq(M, d=dx))
    return float(energy[k > 1.05].sum() / energy.sum())


@pytest.mark.parametrize("family", ["legendre", "ultraspherical:0"])
def test_pw_support_guard_band_grid(family):
    # delta = 0.05 on [-1, 1]: W = 9 / delta = 180, dx = pi / 2, and the
    # grid covers |x| <= 9W = 1620 in the next power of two, 4096 points.
    # Every row reads at rounding level
    basis = make_basis(family, N=8)
    reps = ver.pw_support_reports(basis, range(6))
    assert [r.metadata["n"] for r in reps] == list(range(6))
    assert all(r.passed and r.max_abs_error <= 1e-28 for r in reps)
    assert reps[0].metadata == {"family": family, "n": 0, "support": (-1.0, 1.0),
                                "delta": 0.05, "width": 180.0, "M": 2**12,
                                "dx": math.pi / 2}
    assert reps[0].tolerance == 1e-24
    for n in (0, 3, 5):
        assert abs(ver.check_pw_support(basis, n).max_abs_error - _pw_ratio(basis, n)) < 1e-30


def test_pw_support_sees_planted_error(monkeypatch):
    # a non-band-limited error of 1e-10 in row 1 lifts its ratio far past
    # the tolerance; the untouched rows still pass
    grid = basis_mod.phi_grid

    def planted(basis, nmax, x, **kwargs):
        rows = grid(basis, nmax, x, **kwargs)
        rows[1] += 1e-10 * np.cos(1.2 * x) / (1.0 + x * x)
        return rows

    monkeypatch.setattr(basis_mod, "phi_grid", planted)
    reps = ver.pw_support_reports(make_basis("legendre", N=8), range(3))
    assert [r.passed for r in reps] == [True, False, True]
    assert reps[1].max_abs_error > 1e3 * reps[1].tolerance


def test_pw_support_reports_fold_one_table(monkeypatch):
    # one list call evaluates one table, rows 0..max(ns), on the whole grid
    # once; the reports follow the order of ns
    calls = []
    grid = basis_mod.phi_grid

    def counted(basis, nmax, x, **kwargs):
        calls.append((nmax, len(x)))
        return grid(basis, nmax, x, **kwargs)

    monkeypatch.setattr(basis_mod, "phi_grid", counted)
    basis = make_basis("legendre", N=8)
    reps = ver.pw_support_reports(basis, [4, 1, 2])
    assert calls == [(4, 2**12)]
    assert [r.metadata["n"] for r in reps] == [4, 1, 2]
    monkeypatch.undo()
    for rep in reps:
        assert abs(rep.max_abs_error - _pw_ratio(basis, rep.metadata["n"])) < 1e-30


def test_pw_support_reports_fold_quadrature_rows():
    # a compact family without a closed table takes phi_grid's quadrature
    # rows on the same 4096-point grid, about 0.5 s on one core; the budget
    # is six times that
    basis = make_basis("jacobi:1,1", N=8)
    start = time.perf_counter()
    reps = ver.pw_support_reports(basis, range(2))
    elapsed = time.perf_counter() - start
    assert all(r.passed and r.max_abs_error <= 1e-28 for r in reps)
    assert reps[0].metadata["M"] == 2**12
    assert elapsed < 3.0, elapsed


def test_pw_support_fold_calls_no_dct_or_dst(monkeypatch):
    # the guard-band check takes one plain FFT along the rows and no DCT or
    # DST, and reads the same ratios whether or not the measure is flagged
    # symmetric
    def refuse(*args, **kwargs):
        raise AssertionError("the guard-band check runs no DCT or DST")

    monkeypatch.setattr(scipy.fft, "dct", refuse)
    monkeypatch.setattr(scipy.fft, "dst", refuse)
    for family in ("legendre", "ultraspherical:0"):
        basis = make_basis(family, N=8)
        want = [r.max_abs_error for r in ver.pw_support_reports(basis, range(3))]
        assert all(0.0 < e <= 1e-28 for e in want), family
        basis.measure = dataclasses.replace(basis.measure, symmetric=False)
        assert [r.max_abs_error for r in ver.pw_support_reports(basis, range(3))] == want


def test_pw_support_memory_is_one_row_per_index():
    # the check holds a few arrays of rows x M complex values and nothing
    # larger
    basis = make_basis("legendre", N=8)
    basis_mod.phi_grid(basis, 2, np.linspace(0.0, 1.0, 5))
    tracemalloc.start()
    try:
        reps = ver.pw_support_reports(basis, range(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 3 * reps[0].metadata["M"] * 16


def test_pw_support_reports_expected_fail_per_row():
    reps = ver.pw_support_reports(make_basis("hermite", N=8), [0, 2])
    assert [r.metadata["n"] for r in reps] == [0, 2]
    assert all(r.metadata["expected_fail"] and r.max_abs_error == 1.0 for r in reps)
    assert ver.pw_support_reports(make_basis("legendre", N=8), []) == []


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
            ver.check_pw_support(make_basis(family, N=8), n=-1)


def test_lattice_gram_stops_doubling_on_an_algebraic_tail():
    # laguerre:1 rows decay algebraically from the xi^(1/2) endpoint: from
    # reach 15 to 30 the tail estimate shrinks only by about 3.4, so the
    # doubling stops there, short of the cap 60, and the report says so and
    # still names the tail as what fails
    rep = ver.check_gram(make_basis("laguerre:1", N=66), 64)
    assert not rep.passed
    assert rep.metadata["stalled"] is True
    assert 30.0 <= rep.metadata["reach"] < 60.0
    assert 1e-3 < rep.metadata["tail"] < 1e-2 and rep.max_abs_error > 1e-3



def test_lattice_gram_counts_no_estimate_from_inside_the_bulk(monkeypatch):
    # rows of density exp(-|x|/8) up to |x| = 30 and 0 beyond, on the step
    # h = 1: at reach 15 they still hold 12% of their mass outside and the
    # estimate reads 0.15, at 30 it reads 0.032 (a shrink of 4.6), and at
    # 60 nothing is left; the estimate at 15 comes from inside the rows'
    # bulk, so it must not end the doubling at 30
    x = np.arange(-30.0, 31.0)
    norm = math.sqrt(np.sum(np.exp(-np.abs(x) / 8.0)))

    def rows(basis, nmax, x):
        f = np.where(np.abs(x) <= 30.0, np.exp(-np.abs(x) / 16.0) / norm, 0.0)
        return np.tile(f.astype(complex), (nmax + 1, 1))

    monkeypatch.setattr(quadrature, "_transform_interval",
                        lambda measure, degree: (-math.pi, math.pi))
    monkeypatch.setattr(basis_mod, "phi_grid", rows)
    G, lattice = ver._lattice_gram(types.SimpleNamespace(sigma=None, measure=None), 64, 1e-8)
    assert "stalled" not in lattice
    assert (lattice["reach"], lattice["tail"]) == (60.0, 0.0)
    assert np.max(np.abs(G.diagonal() - 1.0)) < 1e-14
