"""Acceptance criteria for the package, one test per criterion.

Each test prints a single pass/fail line with the measured quantity and
the contract tolerance before asserting, so a verbose run reads as a
scorecard."""

import time

import numpy as np
import scipy.special

from favard import coeffs as co
from favard import diffop
from favard import recurrence as rec
from favard import schrodinger as sch
from favard import verify as ver
from favard.basis import hermite_function, make_basis, phi_grid
from favard.periodic import charlier_basis, periodic_diff_check, periodic_gram
from favard.quadrature import golub_welsch


def report(k: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {k:02d} {'PASS' if ok else 'FAIL'}: {label} ({detail})")


def F_gaussian(xi):
    return np.exp(-(xi**2) / 4.0) / np.sqrt(2.0)


def test_criterion_01_hermite_fixed_point():
    basis = make_basis("hermite", N=12)
    x = np.linspace(-6.0, 6.0, 25)
    table = phi_grid(basis, 10, x, method="quadrature")
    err = 0.0
    for n in range(11):
        err = max(err, float(np.max(np.abs(table[n] - hermite_function(n, x)))))
    ok = err <= 1e-8
    report(1, "Hermite transform fixed point", ok, f"max err {err:.3e} <= 1e-8")
    assert ok


def test_criterion_02_transformed_legendre_closed_form():
    basis = make_basis("legendre", N=10)
    x = np.linspace(0.1, 20.0, 40)
    table = phi_grid(basis, 8, x, method="quadrature")
    err = 0.0
    for n in range(9):
        closed = (-1.0) ** n * np.sqrt((n + 0.5) / x) * scipy.special.jv(n + 0.5, x)
        err = max(err, float(np.max(np.abs(table[n] - closed))))
    ok = err <= 1e-8
    report(2, "transformed Legendre closed form", ok, f"max err {err:.3e} <= 1e-8")
    assert ok


def test_criterion_03_gram_identity_four_families():
    err = 0.0
    for family in ("hermite", "mt", "legendre", "tanhjacobi:0.75,0.75"):
        rep = ver.check_gram(make_basis(family, N=14), N=12)
        err = max(err, rep.max_abs_error)
    ok = err <= 1e-8
    report(3, "Gram identity, four families, N=12", ok, f"max err {err:.3e} <= 1e-8")
    assert ok


def test_criterion_04_differential_recurrence_fd():
    err = 0.0
    for family in ("hermite", "mt", "legendre", "tanhjacobi:0.75,0.75"):
        rep = ver.check_recurrence(make_basis(family, N=14), N=10)
        err = max(err, rep.max_abs_error)
    ok = err <= 1e-6
    report(4, "differential recurrence (finite differences)", ok,
           f"max err {err:.3e} <= 1e-6")
    assert ok


def test_criterion_05_mt_fast_transform():
    basis = make_basis("mt", N=64)
    f = lambda x: np.exp(-(x**2))
    fast = co.mt_coeffs_fft(f, 64)
    slow = co.coeffs_xspace(f, basis, 64, window=(-60.0, 60.0), M=32769)
    err = float(np.max(np.abs(fast.values - slow.values)))

    def best_time(N):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            co.mt_coeffs_fft(f, N)
            times.append(time.perf_counter() - t0)
        return min(times)

    best_time(1024)  # warm caches
    ratio = best_time(4096) / best_time(1024)
    ok = err <= 1e-8 and ratio <= 6.0
    report(5, "MT fast transform", ok,
           f"path err {err:.3e} <= 1e-8, t(4096)/t(1024) {ratio:.2f} <= 6")
    assert ok


def test_criterion_06_weideman_decay_rates():
    # The quoted rates assume the Malmquist-Takenaka convention with basis
    # poles at x = +-i (Weideman's map theta = 2 arctan x).  This package
    # uses the half-width convention with poles at +-i/2, so each test
    # function is evaluated as f(2x), which maps the singularity geometry,
    # and hence the decay rates, onto the quoted ones.
    N = 4096

    def fit(f, model):
        a = co.mt_coeffs_fft(f, N)
        return co.decay_fit(a, model, skip=8)

    rho = fit(lambda x: 1.0 / (1.0 + (2 * x) ** 4), "exponential").param
    ok1 = abs(rho - (1 + np.sqrt(2.0))) <= 0.02 * (1 + np.sqrt(2.0))
    s = fit(lambda x: np.sin(2 * x) / (1.0 + (2 * x) ** 4), "algebraic").param
    ok2 = abs(s - 2.25) <= 0.15
    c23 = fit(lambda x: np.exp(-(2 * x) ** 2), "stretched:0.6666666666666666").param
    ok3 = abs(c23 - 1.5) <= 0.05 * 1.5
    def sech2x(x):
        t = np.abs(2 * x)
        return 2.0 * np.exp(-t) / (1.0 + np.exp(-2.0 * t))

    c12 = fit(sech2x, "stretched:0.5").param
    ok4 = abs(c12 - 2.0) <= 0.05 * 2.0
    ok = ok1 and ok2 and ok3 and ok4
    report(6, "Weideman decay rates, N=4096", ok,
           f"rho {rho:.4f} (1+sqrt2 +-2%), s {s:.3f} (9/4 +-0.15), "
           f"c {c23:.3f} (3/2 +-5%), c {c12:.3f} (2 +-5%)")
    assert ok1
    assert ok2
    assert ok3
    assert ok4


def test_criterion_07_ramanujan_identity():
    err = 0.0
    for a in (0.5, 1.0, 1.5):
        rep = ver.check_ramanujan(a)
        err = max(err, rep.max_abs_error)
    ok = err <= 1e-8
    report(7, "Ramanujan integral identity", ok, f"max rel err {err:.3e} <= 1e-8")
    assert ok


def test_criterion_08_tanh_jacobi_identity():
    rep = ver.check_tanh_jacobi_identity(0.75, 0.75, N=5)
    ok = rep.max_abs_error <= 1e-6
    report(8, "tanh-Jacobi closed form vs continuous-Hahn transform", ok,
           f"max err {rep.max_abs_error:.3e} <= 1e-6")
    assert ok


def test_criterion_09_cramer_bound():
    rep = ver.check_cramer(N=50)
    ok = rep.max_abs_error <= 1e-12
    report(9, "Cramer bound |phi_n| <= pi^(-1/4)", ok,
           f"max excess {rep.max_abs_error:.3e} <= 1e-12")
    assert ok


def test_criterion_10_paley_wiener_support():
    basis = make_basis("legendre", N=8)
    reps = ver.pw_support_reports(basis, range(6))
    worst = max(rep.max_abs_error for rep in reps)
    ok = worst <= 1e-6
    report(10, "Paley-Wiener support of transformed Legendre", ok,
           f"max out-of-band energy ratio {worst:.3e} <= 1e-6")
    assert ok


def test_criterion_11_unitarity_and_radius_growth():
    rng = np.random.default_rng(0)
    drift = 0.0
    for coeff in (rec.hermite_coeffs, lambda n: rec.laguerre_coeffs(0.0, n)):
        J = rec.build_jacobi(coeff, 65)
        D = diffop.build(J, 64)
        a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = diffop.expm_apply(D, 1.0, a)
        drift = max(drift, abs(np.linalg.norm(out) - np.linalg.norm(a)))
    radii = {}
    for name, coeff in (("hermite", rec.hermite_coeffs),
                        ("laguerre", lambda n: rec.laguerre_coeffs(0.0, n))):
        radii[name] = [diffop.spectral_radius(
            diffop.build(rec.build_jacobi(coeff, N + 1), N))
            for N in (16, 64, 256)]
    rh, rl = radii["hermite"], radii["laguerre"]
    # sqrt(N)-like vs N-like growth: quadrupling N doubles one and
    # quadruples the other, and Laguerre dominates at each size
    ordering = (all(h < l for h, l in zip(rh, rl))
                and rh[2] / rh[1] < 3.0 and rl[2] / rl[1] > 3.0)
    ok = drift <= 1e-12 and ordering
    report(11, "unitary exponentials and spectral radius growth", ok,
           f"norm drift {drift:.3e} <= 1e-12, radii hermite {rh[0]:.1f}/"
           f"{rh[1]:.1f}/{rh[2]:.1f} vs laguerre {rl[0]:.1f}/{rl[1]:.1f}/{rl[2]:.1f}")
    assert ok


def test_criterion_12_free_schrodinger_and_strang():
    basis = make_basis("hermite", N=64)
    a = co.coeffs_fourier_side(F_gaussian, basis, 64)
    state = sch.PropagatedState(coeffs=a, basis=basis)
    u = sch.free_propagate(state, 1.0)
    xg, ref = sch.fft_grid_reference(lambda x: np.exp(-(x**2)), 1.0)
    keep = np.abs(xg) <= 8.0
    err = float(np.max(np.abs(u(xg[keep]) - ref[keep])))

    D = diffop.build(basis.jacobi, 64)
    evolved = sch.free_coeff_step(D, 1.0, a)
    drift = abs(np.linalg.norm(evolved.values) - np.linalg.norm(a.values))

    V = lambda x: x**2
    u1 = sch.strang_propagate(a, 0.0625, 8, V, basis).values
    u2 = sch.strang_propagate(a, 0.03125, 16, V, basis).values
    u3 = sch.strang_propagate(a, 0.015625, 32, V, basis).values
    ratio = float(np.linalg.norm(u1 - u2) / np.linalg.norm(u2 - u3))
    ok = err <= 1e-6 and drift <= 1e-8 and abs(ratio - 4.0) <= 0.5
    report(12, "free Schrodinger vs FFT reference + Strang order", ok,
           f"err {err:.3e} <= 1e-6, drift {drift:.3e} <= 1e-8, "
           f"convergence ratio {ratio:.2f} = 4 +- 0.5")
    assert ok


def test_criterion_13_periodic_charlier():
    basis = charlier_basis(0.5, N=10)
    gram_err = float(np.max(np.abs(periodic_gram(basis, 8) - np.eye(8))))
    rec_err = periodic_diff_check(basis, 8)
    ok = gram_err <= 1e-10 and rec_err <= 1e-8
    report(13, "periodic Charlier system", ok,
           f"gram err {gram_err:.3e} <= 1e-10, recurrence err {rec_err:.3e} <= 1e-8")
    assert ok


def test_criterion_14_stieltjes_oracle_equivalence():
    cases = [
        (rec.hermite_measure(), rec.hermite_coeffs),
        (rec.legendre_measure(), lambda n: rec.jacobi_coeffs(0.0, 0.0, n)),
        (rec.ultraspherical_measure(1.0), lambda n: rec.ultraspherical_coeffs(1.0, n)),
        (rec.laguerre_measure(0.0), lambda n: rec.laguerre_coeffs(0.0, n)),
        (rec.laguerre_measure(1.0), lambda n: rec.laguerre_coeffs(1.0, n)),
    ]
    err = 0.0
    for measure, coeff in cases:
        J = rec.stieltjes(measure, 11)
        for n in range(11):
            b, c = coeff(n)
            err = max(err, abs(J.b[n] - b), abs(J.c[n] - c))
    ok = err <= 1e-10
    report(14, "Stieltjes matches closed-form coefficients", ok,
           f"max err {err:.3e} <= 1e-10")
    assert ok


def test_criterion_15_quadrature_exactness():
    N = 20
    cases = [
        rec.hermite_coeffs,
        lambda n: rec.jacobi_coeffs(0.0, 0.0, n),
        lambda n: rec.ultraspherical_coeffs(1.0, n),
        lambda n: rec.laguerre_coeffs(0.0, n),
        lambda n: rec.laguerre_coeffs(1.0, n),
    ]
    err = 0.0
    for coeff in cases:
        J = rec.build_jacobi(coeff, 2 * N)
        rule = golub_welsch(J, N)
        table = rec.eval_poly_table(J, 2 * N - 1, rule.nodes)
        for j in range(N):
            for k in range(2 * N - 1 - j + 1):
                if k >= table.shape[0]:
                    continue
                got = float(np.sum(rule.weights * table[j] * table[k]))
                err = max(err, abs(got - (1.0 if j == k else 0.0)))
    ok = err <= 1e-12
    report(15, "Gauss rule exactness through degree 2N-1", ok,
           f"max err {err:.3e} <= 1e-12")
    assert ok
