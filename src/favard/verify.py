"""Runnable verification checks packaging the library's core identities.

Each check computes a max absolute (or relative) error against an
independent oracle and wraps it in a CheckReport.  The checks are
deterministic for fixed inputs and form the backbone of the acceptance
tests and of the ``verify`` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.special

from . import _panels
from . import basis as basis_mod
from . import periodic as periodic_mod
from . import specfun

__all__ = [
    "SCHEMA",
    "CheckReport",
    "check_gram",
    "check_recurrence",
    "check_cramer",
    "check_ramanujan",
    "check_tanh_jacobi_identity",
    "check_pw_support",
]

SCHEMA = "favard.report/1"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check; passed iff the error meets tolerance."""

    name: str
    max_abs_error: float
    tolerance: float
    passed: bool = field(init=False)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.max_abs_error <= self.tolerance))

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "max_abs_error": float(self.max_abs_error),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
            "metadata": dict(self.metadata),
        }


def _window_gram(basis, N: int, X: float, width: float) -> np.ndarray:
    """Gram by panel quadrature on [-X, X]; right for fast-decaying families."""
    edges = _panels.build_edges(-X, X, width=width)
    x, w = _panels.panel_rule(edges)
    table = basis_mod.phi_grid(basis, N - 1, x)
    return (table * w) @ table.conj().T


def _mt_gram(basis, N: int) -> np.ndarray:
    """Gram of the Malmquist-Takenaka family via x = tan(theta/2)/2.

    The substituted integrand is (1/2pi) e^{i(m-n)theta}, a trigonometric
    polynomial, so the uniform rule below is exact rather than approximate.
    """
    M = 8 * N
    h = 2.0 * math.pi / M
    theta = -math.pi + (np.arange(M) + 0.5) * h
    x = 0.5 * np.tan(0.5 * theta)
    w = h * 0.25 / np.cos(0.5 * theta) ** 2
    table = basis_mod.phi_grid(basis, N - 1, x)
    return (table * w) @ table.conj().T


def _sph_coeffs(nmax: int):
    """j_n(x) = sum_k (s[k] sin x + c[k] cos x) / x^{k+1}, exact for all n."""
    s = [np.array([1.0]), np.array([0.0, 1.0])]
    c = [np.array([0.0]), np.array([-1.0, 0.0])]
    for n in range(1, nmax):
        sn = np.zeros(n + 2)
        cn = np.zeros(n + 2)
        sn[1:] += (2 * n + 1) * s[n]
        cn[1:] += (2 * n + 1) * c[n]
        sn[: n] -= s[n - 1]
        cn[: n] -= c[n - 1]
        s.append(sn)
        c.append(cn)
    return s[: nmax + 1], c[: nmax + 1]


def _legendre_tail(m: int, n: int, X: float, s, c) -> float:
    """Exact integral of phi_m phi_n over [X, inf) for the Legendre transform.

    Expands the closed-form spherical Bessel product into const, sin(2x) and
    cos(2x) terms over inverse powers, then integrates each term with the
    sine/cosine-integral recursions seeded by Si(2X), Ci(2X).
    """
    const = {}
    cosc = {}
    sinc = {}
    for p, sp in enumerate(s[m]):
        for q, sq in enumerate(s[n]):
            r = p + q + 2
            const[r] = const.get(r, 0.0) + 0.5 * (sp * sq + c[m][p] * c[n][q])
            cosc[r] = cosc.get(r, 0.0) + 0.5 * (c[m][p] * c[n][q] - sp * sq)
            sinc[r] = sinc.get(r, 0.0) + 0.5 * (sp * c[n][q] + c[m][p] * sq)
    rmax = max(const)
    si, ci = scipy.special.sici(2.0 * X)
    S = {1: 0.5 * math.pi - si}
    C = {1: -ci}
    s2x, c2x = math.sin(2.0 * X), math.cos(2.0 * X)
    for k in range(1, rmax):
        S[k + 1] = (2.0 / k) * (C[k] + 0.5 * s2x / X**k)
        C[k + 1] = (2.0 / k) * (0.5 * c2x / X**k - S[k])
    total = 0.0
    for r in const:
        total += const[r] * X ** (1 - r) / (r - 1)
        total += cosc[r] * C[r] + sinc[r] * S[r]
    scale = math.sqrt((2 * m + 1) * (2 * n + 1)) / math.pi * (-1) ** (m + n)
    return scale * total


def _legendre_gram(basis, N: int, X: float = 30.0) -> np.ndarray:
    """Window quadrature plus the exact [X, inf) tails on both sides."""
    G = _window_gram(basis, N, X, width=1.0).real
    s, c = _sph_coeffs(N - 1)
    for m in range(N):
        for n in range(m, N):
            tail = _legendre_tail(m, n, X, s, c) * (1 + (-1) ** (m + n))
            G[m, n] += tail
            if n > m:
                G[n, m] += tail
    return G


def check_gram(basis, N: int = 12, window: float | None = None,
               grid: float | None = None) -> CheckReport:
    """max |G - I| for phi_0..phi_{N-1} under the family's best quadrature."""
    if isinstance(basis, periodic_mod.PeriodicBasis):
        M = max(4096, 4 * basis.K)
        G = periodic_mod.periodic_gram(basis, N, M)
        err = float(np.max(np.abs(G - np.eye(N))))
        return CheckReport("gram", err, 1e-10,
                           metadata={"strategy": "trapezoid", "family": "periodic-charlier",
                                     "N": N, "M": M})
    family = basis.family
    head, _, tail = family.partition(":")
    if head == "mt":
        G = _mt_gram(basis, N)
        meta = {"strategy": "theta-substitution", "family": family, "N": N}
    elif head == "legendre":
        X = 30.0 if window is None else float(window)
        G = _legendre_gram(basis, N, X)
        meta = {"strategy": "panels+exact-tails", "family": family, "N": N, "window": X}
    elif head == "tanhjacobi":
        a, b = basis_mod._parse_params(family, tail, 2)
        X = (max(12.0, 10.0 / min(a, b)) if window is None else float(window))
        G = _window_gram(basis, N, X, grid or 0.25)
        meta = {"strategy": "window", "family": family, "N": N, "window": X}
    else:
        X = 15.0 if window is None else float(window)
        G = _window_gram(basis, N, X, grid or 0.5)
        meta = {"strategy": "window", "family": family, "N": N, "window": X}
    err = float(np.max(np.abs(G - np.eye(N))))
    return CheckReport("gram", err, 1e-8, metadata=meta)


def check_recurrence(basis, N: int = 10, grid=None, h: float = 1e-3) -> CheckReport:
    """Residual of phi_n' = -b_{n-1} phi_{n-1} + i c_n phi_n + b_n phi_{n+1}.

    For transformed bases the derivative is a Richardson-extrapolated
    fourth-order central difference; for periodic bases differentiation is
    exact on the Fourier side and the residual is pure roundoff.
    """
    if isinstance(basis, periodic_mod.PeriodicBasis):
        err = periodic_mod.periodic_diff_check(basis, N)
        return CheckReport("recurrence", err, 1e-8,
                           metadata={"family": "periodic-charlier", "N": N,
                                     "strategy": "fourier-exact"})
    xs = np.linspace(-3.3, 3.3, 23) if grid is None else np.asarray(grid, dtype=float)
    basis.ensure(N)
    shifts = np.array([-2 * h, -h, -0.5 * h, 0.0, 0.5 * h, h, 2 * h])
    pts = (xs[None, :] + shifts[:, None]).ravel()
    table = basis_mod.phi_grid(basis, N, pts).reshape(N + 1, len(shifts), len(xs))
    m2, m1, mh, at, ph, p1, p2 = (table[:, j, :] for j in range(7))
    d4_h = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
    d4_half = (8.0 * (ph - mh) - (p1 - m1)) / (6.0 * h)
    deriv = (16.0 * d4_half - d4_h) / 15.0
    b = basis.jacobi.b
    c = basis.jacobi.c
    worst = 0.0
    for n in range(N):
        rhs = 1j * c[n] * at[n] + b[n] * at[n + 1]
        if n > 0:
            rhs = rhs - b[n - 1] * at[n - 1]
        worst = max(worst, float(np.max(np.abs(deriv[n] - rhs))))
    return CheckReport("recurrence", worst, 1e-6,
                       metadata={"family": basis.family, "N": N, "h": h,
                                 "strategy": "fd-richardson"})


def check_cramer(N: int = 50, lo: float = -10.0, hi: float = 10.0,
                 samples: int = 10001) -> CheckReport:
    """max_n max_x |phi_n(x)| - pi^{-1/4} over the Hermite family, n <= N."""
    x = np.linspace(lo, hi, samples)
    table = basis_mod.hermite_function_table(N, x)
    bound = math.pi ** -0.25
    peak = float(np.max(np.abs(table)))
    idx = np.unravel_index(np.argmax(np.abs(table)), table.shape)
    return CheckReport("cramer", peak - bound, 1e-12,
                       metadata={"N": N, "samples": samples,
                                 "argmax_n": int(idx[0]), "argmax_x": float(x[idx[1]])})


def check_ramanujan(a: float, xs=(0.0, 1.0, 2.0)) -> CheckReport:
    """Relative error in int |Gamma(a+i xi)|^2 e^{ix xi} d xi against the closed form.

    The closed form is sqrt(pi) Gamma(a) Gamma(a+1/2) / cosh^{2a}(x/2); the
    left side is quadrature of the exact modulus-squared weight, truncated
    where e^{-pi|xi|} has decayed past double precision.
    """
    if a <= 0.0:
        raise ValueError("parameter a must be positive")
    X = 16.0 + 4.0 * max(0.0, a - 1.0)
    edges = _panels.build_edges(-X, X, width=0.5)
    xi, w = _panels.panel_rule(edges)
    weight = specfun.gamma_abs2(a, xi)
    rhs_const = math.sqrt(math.pi) * math.gamma(a) * math.gamma(a + 0.5)
    worst = 0.0
    details = {}
    for x in np.atleast_1d(np.asarray(xs, dtype=float)):
        lhs = float(np.real(np.sum(w * weight * np.exp(1j * x * xi))))
        rhs = rhs_const / math.cosh(0.5 * x) ** (2.0 * a)
        rel = abs(lhs - rhs) / abs(rhs)
        details[f"x={x:g}"] = rel
        worst = max(worst, rel)
    return CheckReport("ramanujan", worst, 1e-8,
                       metadata={"a": a, "window": X, "relative_errors": details})


def check_tanh_jacobi_identity(a: float, b: float, N: int = 5, xs=None,
                               experimental: bool = False) -> CheckReport:
    """Quadrature transform vs the tanh-Jacobi closed form, n <= N.

    The transform side integrates the continuous-Hahn orthonormal
    polynomials against the gamma-pair weight; a single unimodular constant
    per degree is fixed at the reference point x = 0 (or the nearest grid
    point where the closed form is not tiny, for odd degrees that vanish at
    the origin).  For a != b the weight's square root carries a genuine
    complex phase; that path is gated behind ``experimental``.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("parameters must be positive")
    if a != b and not experimental:
        raise ValueError("a != b is experimental; pass experimental=True to run it")
    if xs is None:
        xs = np.linspace(-4.0, 4.0, 33)
    xs = np.asarray(xs, dtype=float)
    bas = basis_mod.make_basis(f"tanhjacobi:{a},{b}", N=N + 1)
    quad = basis_mod.phi_grid(bas, N, xs, method="quadrature")
    closed = np.stack([basis_mod.tanh_jacobi(a, b, n, xs) for n in range(N + 1)])
    j0 = int(np.argmin(np.abs(xs)))
    worst = 0.0
    for n in range(N + 1):
        ref = j0
        top = float(np.max(np.abs(closed[n])))
        if abs(closed[n][ref]) < 0.1 * top:
            ref = int(np.argmax(np.abs(closed[n])))
        ratio = closed[n][ref] / quad[n][ref]
        worst = max(worst, float(np.max(np.abs(ratio * quad[n] - closed[n]))))
    return CheckReport("tanh-jacobi-identity", worst, 1e-6,
                       metadata={"a": a, "b": b, "N": N})


def check_pw_support(basis, n: int = 0, dx: float = 3.0, M: int = 2**23,
                     taper: float = 3.5) -> CheckReport:
    """Fraction of phi_n's Fourier energy outside the measure's support.

    Samples phi_n on a wide grid whose spacing keeps the Nyquist frequency
    just above the band edge, applies a Gaussian taper against truncation
    leakage, and integrates the discrete spectrum outside the support.
    Only row n is evaluated, through ``phi``.  The grid is symmetric bit
    for bit, so when the measure is symmetric and the basis carries no
    phase sigma, where phi_n(-x) = (-1)^n phi_n(x), the tapered row is
    computed on the upper half of the grid and mirrored.  For measures
    supported on all of R all of the energy lies outside the support:
    the ratio 1.0 is returned at once, without sampling or an FFT, and the
    report is tagged expected_fail.
    """
    if n < 0:
        raise ValueError("index n must be >= 0")
    lo, hi = basis.measure.support
    meta = {"family": basis.family, "n": n, "support": (lo, hi), "M": M, "dx": dx}
    if not (math.isfinite(lo) and math.isfinite(hi)):
        meta["expected_fail"] = True
        return CheckReport("pw-support", 1.0, 1e-6, metadata=meta)
    band = max(abs(lo), abs(hi))
    if math.pi / dx <= band:
        raise ValueError("grid spacing too coarse for the band edge")
    mirror = basis.measure.symmetric and basis.sigma is None
    x = (np.arange(M // 2 if mirror else 0, M) - M / 2 + 0.5) * dx
    sigma = (0.5 * M * dx) / taper
    g = basis_mod.phi(basis, n, x) * np.exp(-0.5 * (x / sigma) ** 2)
    real = np.max(np.abs(g.imag)) < 1e-14 * np.max(np.abs(g.real))
    if real:
        g = g.real
    if mirror:
        # the full grid's point M-1-i is exactly minus its point i
        lower = g[M % 2:][::-1]
        g = np.concatenate([-lower if n % 2 else lower, g])
    if real:
        spectrum = scipy.fft.rfft(g)
        k = 2.0 * math.pi * np.fft.rfftfreq(M, d=dx)
        energy = np.abs(spectrum) ** 2
        energy[1:] *= 2.0
    else:
        spectrum = scipy.fft.fft(g)
        k = np.abs(2.0 * math.pi * np.fft.fftfreq(M, d=dx))
        energy = np.abs(spectrum) ** 2
    ratio = float(energy[k > band].sum()) / float(energy.sum())
    return CheckReport("pw-support", ratio, 1e-6, metadata=meta)
