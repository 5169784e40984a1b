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

from . import _panels
from . import basis as basis_mod
from . import periodic as periodic_mod
from . import quadrature
from . import specfun
from .diffop import _recurrence_residual
from .errors import AccuracyError

__all__ = [
    "SCHEMA",
    "CheckReport",
    "check_gram",
    "check_recurrence",
    "check_cramer",
    "check_ramanujan",
    "check_tanh_jacobi_identity",
    "check_pw_support",
    "pw_support_reports",
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


def _mirrored(G: np.ndarray) -> np.ndarray:
    """G + P conj(G) P, P = diag((-1)^n): a half rule's Gram plus its mirror half's.

    Without a phase p_n sqrt(w) is real, so phi_n(-x) = (-1)^n conj(phi_n(x));
    for a symmetric measure the rows are real and conj(G) = G.
    """
    sign = np.where(np.arange(len(G)) % 2 == 1, -1.0, 1.0)
    return G + sign[:, None] * G.conj() * sign[None, :]


# A doubling of the lattice reach that shrinks a finite tail estimate by
# less than this factor, from rows that already held all but 1/_STALL of
# their mass, ends the doubling (``_lattice_gram``).
_STALL = 16.0
# The share of a row's mass below which its outer half is rounding noise
# (``_lattice_gram``).
_FLOOR = float(np.finfo(float).eps)


def _lattice_gram(basis, N: int, tol: float) -> tuple[np.ndarray, dict]:
    """Gram of quadrature-route rows from their samples on the Nyquist lattice.

    phi_n is the Fourier integral of p_n sqrt(w) over the truncated band
    [lo, hi] = ``quadrature._transform_interval(basis.measure, N - 1)``
    that ``oscillatory_transform`` integrates, with or without a phase (the
    transform sizes its rule itself; a phase changes its panels, not its
    band), so phi_m conj(phi_n) is band-limited to |k| <= hi - lo and the
    trapezoid rule with step h = 2 pi / (hi - lo) is exact over all of Z
    (Trefethen & Weideman, SIAM Review 56, 2014): only cutting the lattice
    at the reach X errs.  X starts at 15 and doubles, up to the cap
    30 max(1, N / 32), until the tail estimate is at most tol / 10: the rows
    spread as N grows, so the cap grows with them.  The lattice nests, so a
    doubling samples only the new points.  The estimate is per row, from
    the masses q3 and q4 of h |phi_n|^2 on the outer two quarters of the
    lattice, (X/2, 3X/4] and (3X/4, X]: under geometric decay r = q4 / q3
    per quarter, the mass beyond X is q4 r / (1 - r), and it is infinite
    when r >= 1.  A row whose outer half holds at most eps (``_FLOOR``) of
    its mass is at its rounding floor there, where q4 >= q3 is noise: its
    estimate is at most that outer mass, so it counts as converged.  By
    Cauchy-Schwarz the largest row tail bounds every entry's.  Rows that decay only algebraically get an estimate that is
    low (laguerre:1, by about 2) or infinite (jacobi:0.5,1.5), in both
    cases far above tol, so the report names the tail as what fails.  Such
    a tail shrinks by a bounded factor per doubling (2 to 7.2 for laguerre:1
    and genhermite:1 at N = 32, 64 and 128).  A tail that decays at least
    exponentially shrinks by about the inverse of the mass left outside:
    once every row holds all but 1/16 of its mass (1 - G_nn <= 1/16), the
    next doubling shrinks it by 16 or more.  So the doubling also stops,
    before the cap, once a finite estimate shrinks by less than ``_STALL``
    = 16 from a finite one taken at a reach that already held that much of
    every row; the metadata then carries ``"stalled": True``.  Inside the
    rows' bulk the estimate can be finite and still say nothing of the
    tail; the guard keeps such an estimate out of the comparison.  Without a
    phase the lattice folds onto k >= 0 (``_mirrored``), for any measure.
    Returns G and the step, reach (the last sampled point) and tail.
    """
    lo, hi = quadrature._transform_interval(basis.measure, N - 1)
    h = 2.0 * math.pi / (hi - lo)
    fold = basis.sigma is None
    X, cap = 15.0, 30.0 * max(1.0, N / 32.0)
    K = math.ceil(X / h)
    k = np.arange(K + 1)
    G = np.zeros((N, N), dtype=complex)
    ks, mass, prev, stop = [], [], math.inf, {}
    while True:
        k = k if fold else np.concatenate((k, -k[k > 0]))
        table = basis_mod.phi_grid(basis, N - 1, h * k)
        w = np.where(k == 0, 0.5 * h if fold else h, h)
        G += (table * w) @ table.conj().T
        ks.append(np.abs(k))
        mass.append((2.0 if fold else 1.0) * w * np.abs(table) ** 2)
        a = np.concatenate(ks)
        m = np.concatenate(mass, axis=1)
        q3 = m[:, (a > K / 2) & (a <= 3 * K / 4)].sum(axis=1)
        q4 = m[:, a > 3 * K / 4].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = q4 / q3
            tails = np.where(r < 1.0, q4 * r / (1.0 - r), np.inf)
        outer = q3 + q4
        tails = np.where(outer <= _FLOOR * m.sum(axis=1), np.minimum(tails, outer), tails)
        tail = float(np.max(np.where(q4 == 0.0, 0.0, tails)))
        if tail <= 0.1 * tol or X >= cap:
            break
        if prev / _STALL < tail < math.inf:
            stop = {"stalled": True}
            break
        outside = float(np.max(1.0 - (2.0 if fold else 1.0) * G.diagonal().real))
        prev = tail if outside <= 1.0 / _STALL else math.inf
        X, k, K = 2.0 * X, np.arange(K + 1, 2 * K + 1), 2 * K
    return _mirrored(G) if fold else G, {"step": h, "reach": K * h, "tail": tail, **stop}


def _substitution_rule(basis, N: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Points x and weights w at which a closed family's Gram sum is exact.

    A change of variable makes phi_m conj(phi_n) dx a polynomial against a
    classical weight.  mt and laguerre:0 take x = tan(theta/2)/2, where the
    integrand is (1/2pi) e^{i(m-n)theta}, on N uniform points in theta:
    |m - n| <= N - 1, so the trapezoid sum is exact.
    hermite rows are +-p_n(x) e(x), e^2 = e^{-x^2} / sqrt(pi).  The
    tanh-Jacobi family at dilation s (``basis.tanh_jacobi`` = (a, b, s):
    conthahn:a,b at s = 1, tanhjacobi:a,b at s = 2) has rows +-P_n(t) e(x)
    at t = tanh(s x / 2), e = sqrt(s/2) (1-t)^a (1+t)^b / sqrt(S) its row 0:
    e^2 dx is the unit-mass Jacobi(2a-1, 2b-1) weight in t (dx = (2/s) dy
    cancels the s/2), so the nodes sit at x = (2/s) artanh t.  Each takes
    the N-point Gauss rule of its polynomials, w_i = lambda_i / e(x_i)^2,
    formed from log lambda_i: at the outer Hermite nodes lambda_i underflows
    and 1 / e^2 overflows, yet lambda_i p_{N-1}(x_i)^2 is not small.
    Returns x, w and the report's metadata.
    """
    meta = {"family": basis.family, "N": N}
    if basis.closed_table is basis_mod._mt_table:
        h, theta, x = basis_mod._mt_theta_grid(N)
        return (x, h * 0.25 / np.cos(0.5 * theta) ** 2,
                {"strategy": "theta-substitution", **meta, "nodes": N})
    if basis.closed_table is basis_mod.hermite_function_table:
        basis.ensure(N - 1)
        x, log_w = quadrature._gauss_log_rule(basis.jacobi, N)
        log_e = -0.5 * x * x - 0.25 * math.log(math.pi)
        strategy = "gauss-hermite"
    else:
        a, b, s = basis.tanh_jacobi
        t, log_w = quadrature._gauss_log_rule(basis_mod._tanh_jacobi_matrix(a, b, N - 1), N)
        x = (2.0 / s) * np.arctanh(t)
        log_e = np.log(basis.closed_table(0, x)[0])  # p_0 = 1: row 0 is e
        strategy = "gauss-jacobi"
    return x, np.exp(log_w - 2.0 * log_e), {"strategy": strategy, **meta, "nodes": N}


def _zeta_tail(N: int, J: int) -> np.ndarray:
    """pi times the sum of phi_m phi_n over the lattice k pi / 2, |k| >= 2J.

    phi_n = d_n j_n with d_n = (-1)^n sqrt((2n+1)/pi), and exactly
    j_n(x) = sum_p (S[n,p] sin x + C[n,p] cos x) / x^(p+1).  At x = j pi
    sin vanishes and cos^2 = 1, at x = (j + 1/2) pi the reverse, so the
    sums over j >= J are Hurwitz zetas and the tail is
    pi D (C H_0 C^T + S H_1/2 S^T) D, H_s[p,q] = pi^-(p+q+2) zeta(p+q+2, J+s),
    D = diag(d_n): two Hankel products for all pairs.  C and S are kept as
    C[n,p] / a^(p+1) for the power of two a <= J pi, and H times a^(p+q+2),
    so nothing overflows: with J pi >= N^2 / 2 the scaled coefficients stay
    below about 2^p / p!, and the entries of H that underflow meet products
    far below rounding.
    """
    import scipy.special

    e = math.floor(math.log2(J * math.pi))
    a = 2.0**e
    size = max(N, 2)
    S = np.zeros((size, size))
    C = np.zeros((size, size))
    S[0, 0] = 1.0 / a                          # j_0 = sin x / x
    C[1, 0], S[1, 1] = -1.0 / a, 1.0 / a**2    # j_1 = sin x / x^2 - cos x / x
    for n in range(1, size - 1):               # j_{n+1} = (2n+1)/x j_n - j_{n-1}
        for T in (S, C):
            T[n + 1, 1:] = (2 * n + 1) / a * T[n, :-1]
            T[n + 1] -= T[n - 1]
    S, C = S[:N, :N], C[:N, :N]
    s = np.arange(2, 2 * N + 1)
    hankel = np.add.outer(np.arange(N), np.arange(N))
    H0, Hh = (np.ldexp(math.pi ** -s * scipy.special.zeta(s, J + shift), e * s)[hankel]
              for shift in (0.0, 0.5))
    d = np.where(np.arange(N) % 2, -1.0, 1.0) * np.sqrt((2 * np.arange(N) + 1) / math.pi)
    return math.pi * d[:, None] * (C @ H0 @ C.T + S @ Hh @ S.T) * d[None, :]


def _legendre_gram(N: int) -> tuple[np.ndarray, float]:
    """Gram of the transformed Legendre rows from their samples at k pi / 2.

    phi_m phi_n is band-limited to [-2, 2], so the trapezoid rule with step
    pi / 2 < pi is exact over all of Z (Trefethen & Weideman, SIAM Review
    56, 2014).  The product has parity (-1)^(m+n): entries with m + n odd
    are 0, and the rest fold onto k >= 0 with weight pi (pi / 2 at k = 0).
    One table samples k < 2J, J = max(8, ceil(N^2 / (2 pi))), and
    ``_zeta_tail`` adds the rest.  Returns G and the last sampled point.
    """
    J = max(8, math.ceil(N * N / (2.0 * math.pi)))
    x = 0.5 * math.pi * np.arange(2 * J)
    table = basis_mod.transformed_legendre_table(N - 1, x)
    w = np.full(2 * J, math.pi)
    w[0] = 0.5 * math.pi
    G = (table * w) @ table.T + _zeta_tail(N, J)
    n = np.arange(N)
    G[np.add.outer(n, n) % 2 == 1] = 0.0
    return G, float(x[-1])


def _gave_up(name: str, tol: float, meta: dict, exc: AccuracyError) -> CheckReport:
    """A failing report for a check whose quadrature route raised ``exc``:
    its error is inf, and the metadata carries the route's estimate and
    message."""
    return CheckReport(name, math.inf, tol,
                       metadata={**meta, "error": str(exc), "estimate": exc.estimate})


def check_gram(basis, N: int = 12) -> CheckReport:
    """max |G - I| for phi_0..phi_{N-1} under the family's best quadrature.

    A quadrature route that gives up (``AccuracyError``) yields a failing
    report, as in ``_gave_up``.
    """
    if isinstance(basis, periodic_mod.PeriodicBasis):
        G = periodic_mod.periodic_gram(basis, N)
        err = float(np.max(np.abs(G - np.eye(N))))
        return CheckReport("gram", err, 1e-10,
                           metadata={"strategy": "trapezoid", "family": "periodic-charlier",
                                     "N": N, "M": 4 * basis.K, "K": basis.K})
    tol = 1e-8
    family = basis.family
    if basis.closed_table is basis_mod.transformed_legendre_table:
        G, reach = _legendre_gram(N)
        meta = {"strategy": "nyquist-lattice+zeta-tail", "family": family, "N": N,
                "step": 0.5 * math.pi, "reach": reach}
    elif basis.closed_table is None:
        meta = {"strategy": "nyquist-lattice", "family": family, "N": N}
        try:
            G, lattice = _lattice_gram(basis, N, tol)
        except AccuracyError as exc:
            return _gave_up("gram", tol, meta, exc)
        meta.update(lattice)
    else:
        x, w, meta = _substitution_rule(basis, N)
        table = basis_mod.phi_grid(basis, N - 1, x)
        G = (table * w) @ table.conj().T
    err = float(np.max(np.abs(G - np.eye(N))))
    return CheckReport("gram", err, tol, metadata=meta)


def check_recurrence(basis, N: int = 10) -> CheckReport:
    """Residual of phi_n' = -b_{n-1} phi_{n-1} + i c_n phi_n + b_n phi_{n+1}.

    For transformed bases the derivative is a Richardson-extrapolated
    fourth-order central difference of step h = 1e-3 at 23 points of
    [-3.3, 3.3]; for periodic bases differentiation is
    exact on the Fourier side and the residual is pure roundoff.  The
    difference divides the rounding of phi by h, so a transformed basis's
    report carries that floor, eps max|phi| / h, as ``rounding_floor``: a
    residual within a small multiple of it is rounding, not a recurrence
    that fails to hold.  A quadrature route that gives up
    (``AccuracyError``) yields a failing report, as in ``_gave_up``.
    """
    if isinstance(basis, periodic_mod.PeriodicBasis):
        err = periodic_mod.periodic_diff_check(basis, N)
        return CheckReport("recurrence", err, 1e-8,
                           metadata={"family": "periodic-charlier", "N": N,
                                     "strategy": "fourier-exact", "K": basis.K})
    xs, h = np.linspace(-3.3, 3.3, 23), 1e-3
    basis.ensure(N)
    shifts = np.array([-2 * h, -h, -0.5 * h, 0.0, 0.5 * h, h, 2 * h])
    pts = (xs[None, :] + shifts[:, None]).ravel()
    meta = {"family": basis.family, "N": N, "h": h, "strategy": "fd-richardson"}
    try:
        table = basis_mod.phi_grid(basis, N, pts).reshape(N + 1, len(shifts), len(xs))
    except AccuracyError as exc:
        return _gave_up("recurrence", 1e-6, meta, exc)
    m2, m1, mh, at, ph, p1, p2 = (table[:, j, :] for j in range(7))
    d4_h = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
    d4_half = (8.0 * (ph - mh) - (p1 - m1)) / (6.0 * h)
    deriv = (16.0 * d4_half - d4_h) / 15.0
    worst = _recurrence_residual(basis.jacobi, at, deriv, N)
    floor = np.finfo(float).eps * float(np.max(np.abs(table))) / h
    return CheckReport("recurrence", worst, 1e-6, metadata={**meta, "rounding_floor": floor})


def check_cramer(N: int = 50) -> CheckReport:
    """max_n max_x |phi_n(x)| - pi^{-1/4} over the Hermite family, n <= N.

    The window is 10001 points of [-10, 10], built from its nonnegative
    half and mirrored as ``coeffs.coeffs_xspace`` builds it.  |phi_n| is
    even in x bit for bit, so only the points x <= 0 are swept: the argmax
    there is the whole grid's first one.  The table is reduced in place:
    its moduli overwrite it, and one argmax gives both the peak and where
    it lies.
    """
    half = np.linspace(0.0, 10.0, 5001)
    x = np.concatenate((-half[:0:-1], half))
    table = basis_mod.hermite_function_table(N, half[::-1])  # |x| on x <= 0
    np.abs(table, out=table)
    idx = np.unravel_index(np.argmax(table), table.shape)
    peak = float(table[idx])
    bound = math.pi ** -0.25
    return CheckReport("cramer", peak - bound, 1e-12,
                       metadata={"N": N, "samples": x.size,
                                 "argmax_n": int(idx[0]), "argmax_x": float(x[idx[1]])})


def check_ramanujan(a: float) -> CheckReport:
    """Relative error in int |Gamma(a+i xi)|^2 e^{ix xi} d xi against the closed form.

    The error is the largest over x = 0, 1 and 2.  The closed form is
    sqrt(pi) Gamma(a) Gamma(a+1/2) / cosh^{2a}(x/2); the left side is
    quadrature of the exact modulus-squared weight, truncated where
    e^{-pi|xi|} has decayed past double precision.
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
    for x in (0.0, 1.0, 2.0):
        lhs = float(np.real(np.sum(w * weight * np.exp(1j * x * xi))))
        rhs = rhs_const / math.cosh(0.5 * x) ** (2.0 * a)
        rel = abs(lhs - rhs) / abs(rhs)
        details[f"x={x:g}"] = rel
        worst = max(worst, rel)
    return CheckReport("ramanujan", worst, 1e-8,
                       metadata={"a": a, "window": X, "relative_errors": details})


def check_tanh_jacobi_identity(a: float, b: float, N: int = 5) -> CheckReport:
    """Quadrature transform vs the tanh-Jacobi closed form, n <= N, at 33 points of [-4, 4].

    The transform side integrates the continuous-Hahn orthonormal
    polynomials against the gamma-pair weight.  For a != b the weight's
    square root carries the complex phase of Gamma(a + i xi/2)
    Gamma(b - i xi/2), which the transform side integrates; the closed
    table is the transform of that same phased measure, so the two tables
    are compared entry by entry, and a sign or phase error in any one
    degree shows in the error.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("parameters must be positive")
    xs = np.linspace(-4.0, 4.0, 33)
    bas = basis_mod.make_basis(f"tanhjacobi:{a},{b}", N=N + 1)
    quad = basis_mod.phi_grid(bas, N, xs, method="quadrature")
    closed = basis_mod.tanh_jacobi_table(a, b, N, xs)
    worst = float(np.max(np.abs(quad - closed)))
    return CheckReport("tanh-jacobi-identity", worst, 1e-6,
                       metadata={"a": a, "b": b, "N": N})


# The guard band of the Paley-Wiener check, as a share of the band B.
_PW_DELTA = 0.05


def pw_support_reports(basis, ns) -> list[CheckReport]:
    """Fraction of each phi_n's Fourier energy beyond a guard band past the support.

    phi_n is the Fourier transform of p_n sqrt(w), so for a measure on
    [lo, hi] its spectrum lies in |k| <= B = max(|lo|, |hi|) (Paley-Wiener).
    The guard band is fixed at delta = 0.05 (``_PW_DELTA``).  The rows n in
    ``ns`` are sampled at dx = pi / (2B), so the Nyquist frequency is 2B,
    on M points covering |x| <= 9W, M the next power of two; each row is
    tapered by exp(-(x / W)^2 / 2) with W = 9 / (delta B) and transformed
    by one length-M FFT.  The ratio is the energy at |k| > (1 + delta) B
    over the total.  The taper smears the spectrum's jump at +-B by about
    1/W, so past the guard band its leak is about e^-81 and the ratio of a
    band-limited row sits at rounding, near 1e-30; content inside the band
    (B, (1 + delta) B) is not seen.  At B = 1, M = 4096.  For measures
    supported on all of R all of the energy lies outside the support: the
    ratio 1.0 is returned at once, without sampling, and the report is
    tagged expected_fail.
    """
    ns = [int(n) for n in ns]
    if any(n < 0 for n in ns):
        raise ValueError("index n must be >= 0")
    if not ns:
        return []
    lo, hi = basis.measure.support
    # at least four orders above the floor of a band-limited row (about 1e-30)
    tol = 1e-24
    metas = [{"family": basis.family, "n": n, "support": (lo, hi), "delta": _PW_DELTA}
             for n in ns]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [CheckReport("pw-support", 1.0, tol, metadata={**meta, "expected_fail": True})
                for meta in metas]
    band = max(abs(lo), abs(hi))
    width = 9.0 / (_PW_DELTA * band)
    dx = 0.5 * math.pi / band
    M = 1 << math.ceil(math.log2(18.0 * width / dx))
    x = (np.arange(M) - 0.5 * M + 0.5) * dx
    rows = basis_mod.phi_grid(basis, max(ns), x)[ns] * np.exp(-0.5 * (x / width) ** 2)
    import scipy.fft

    energy = np.abs(scipy.fft.fft(rows, axis=1)) ** 2
    k = np.abs(2.0 * math.pi * np.fft.fftfreq(M, d=dx))
    ratios = energy[:, k > (1.0 + _PW_DELTA) * band].sum(axis=1) / energy.sum(axis=1)
    return [CheckReport("pw-support", float(r), tol,
                        metadata={**meta, "width": width, "M": M, "dx": dx})
            for meta, r in zip(metas, ratios)]


def check_pw_support(basis, n: int = 0) -> CheckReport:
    """``pw_support_reports`` for the single row n."""
    return pw_support_reports(basis, (n,))[0]
