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
from .quadrature import _unit_phase

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


def _window_gram(basis, N: int, X: float, width: float) -> np.ndarray:
    """Gram by panel quadrature on [-X, X]; right for fast-decaying families.

    When the measure is symmetric and the basis carries no phase sigma,
    phi_n(-x) = (-1)^n phi_n(x): the rule then covers [0, X] only, and the
    Gram is G + P G P with G the half-window Gram and P = diag((-1)^n), so
    entries with m + n odd are exactly 0.
    """
    fold = basis.measure.symmetric and basis.sigma is None
    edges = _panels.build_edges(0.0 if fold else -X, X, width=width)
    x, w = _panels.panel_rule(edges)
    table = basis_mod.phi_grid(basis, N - 1, x)
    G = (table * w) @ table.conj().T
    if fold:
        sign = np.where(np.arange(N) % 2 == 1, -1.0, 1.0)
        G = G + sign[:, None] * G * sign[None, :]
    return G


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
    elif basis.closed_table is basis_mod.transformed_legendre_table:
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
    exact on the Fourier side and the residual is pure roundoff.  The
    difference divides the rounding of phi by h, so a transformed basis's
    report carries that floor, eps max|phi| / h, as ``rounding_floor``: a
    residual within a small multiple of it is rounding, not a recurrence
    that fails to hold.
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
    floor = np.finfo(float).eps * float(np.max(np.abs(table))) / h
    return CheckReport("recurrence", worst, 1e-6,
                       metadata={"family": basis.family, "N": N, "h": h,
                                 "strategy": "fd-richardson", "rounding_floor": floor})


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
    closed = basis_mod.tanh_jacobi_table(a, b, N, xs)
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


def _pw_full_grid(basis, n: int, dx: float, M: int, width: float, band: float) -> float:
    """Out-of-band energy ratio of row n from a length-M FFT of the full grid."""
    x = (np.arange(M) - M / 2 + 0.5) * dx
    g = basis_mod.phi(basis, n, x) * np.exp(-0.5 * (x / width) ** 2)
    if np.max(np.abs(g.imag)) < 1e-14 * np.max(np.abs(g.real)):
        spectrum = scipy.fft.rfft(g.real)
        k = 2.0 * math.pi * np.fft.rfftfreq(M, d=dx)
        energy = np.abs(spectrum) ** 2
        energy[1:] *= 2.0
    else:
        spectrum = scipy.fft.fft(g)
        k = np.abs(2.0 * math.pi * np.fft.fftfreq(M, d=dx))
        energy = np.abs(spectrum) ** 2
    return float(energy[k > band].sum()) / float(energy.sum())


def _first_bin_above(band: float, M: int, dx: float) -> int:
    """First bin of the length-M rfft whose angular frequency exceeds ``band``.

    The bin frequencies are computed as ``2 pi * np.fft.rfftfreq(M, d=dx)``
    computes them, 2 pi (j (1 / (M dx))), but only next to the estimate
    j ~ band M dx / (2 pi); the result is the ``searchsorted(..., side="right")``
    index of that array without building it.
    """
    step = 1.0 / (M * dx)
    j = min(max(int(band / (2.0 * math.pi * step)) - 1, 0), M // 2 + 1)
    while j <= M // 2 and 2.0 * math.pi * (j * step) <= band:
        j += 1
    return j


# Points per block of the folded check's closed-form rows: a block's
# temporaries stay small (2^14 to 2^15 timed fastest for rows 0..2 at
# M = 2^23), and no full-length temporary is made.
_PW_BLOCK = 2**15
# Stride of the angle-addition tables: a divisor of _PW_BLOCK, so a full
# block of the half grid takes whole rows of its table.
_PW_TRIG = 2**11


def _unit_steps(first: float, step: float, count: int):
    """e^{i theta_j}, theta_j = (first + j) step, on j in [start, stop), by angle addition.

    theta_j = Theta_q + r step with q = j // T, r = j % T and
    Theta_q = (first + q T) step, for the fixed T = _PW_TRIG.  The coarse
    table holds e^{i Theta_q} and the fine table e^{i r step}, each from
    one np.cos and one np.sin call, and e^{i theta_j} is their product.
    The products are formed a whole row of T at a time, the same operation
    for every j, so a value does not depend on the range that asks for it.
    When (first + j) step is exact, as on the half grid x_j = (j + 1/2) dx
    with dx = 3, Theta_q + r step is theta_j exactly and the values are
    within a few ulps of 1 of np.cos and np.sin of theta_j.  Returns the
    function (start, stop) -> e^{i theta_j}, 0 <= start <= stop <= count.
    """
    T = _PW_TRIG
    fine = _unit_phase(np.arange(T) * step)
    coarse = _unit_phase((np.arange(-(-count // T)) * T + first) * step)[:, None]

    def steps(start: int, stop: int) -> np.ndarray:
        qa, qb = start // T, -(-stop // T)
        return (coarse[qa:qb] * fine).ravel()[start - qa * T:stop - qa * T]

    return steps


def _makhoul_buffer(rows: int, N: int):
    """A complex buffer for ``rows`` real sequences of length N, and its real view.

    For even N it is (rows, N/2), and sample m of a sequence is entry m of
    the real view, so entry p holds the pair (v_2p, v_2p+1) that a
    length-N/2 complex FFT transforms; for odd N it is (rows, N) with zero
    imaginary parts, and the view is the real parts.
    """
    if N % 2 == 0:
        z = np.empty((rows, N // 2), dtype=complex)
        return z, z.view(float)
    z = np.zeros((rows, N), dtype=complex)
    return z, z.real


def _makhoul_slots(N: int, start: int, stop: int):
    """Where samples j in [start, stop) of a length-N sequence go in Makhoul order.

    Makhoul order is the even samples first and the odd samples reversed:
    v_m = x_2m and v_{N-1-m} = x_{2m+1}.  Returns (source, target) slice
    pairs for the even and the odd samples: ``x[source]`` relative to
    ``start`` goes to ``v[target]``.
    """
    e = start + start % 2
    o = start + 1 - start % 2
    n_e = max(0, (stop - e + 1) // 2)
    n_o = max(0, (stop - o + 1) // 2)
    top = N - 1 - (o - 1) // 2
    return ((slice(e - start, None, 2), slice(e // 2, e // 2 + n_e)),
            (slice(o - start, None, 2), slice(top, top - n_o, -1)))


def _twisted_bins(N: int, a: int, b: int):
    """The map Z -> e^{-i pi k / 2N} V_k, a <= k < b <= N // 2 + 1.

    V is the length-N FFT of the real Makhoul sequence v.  Z is V itself
    for odd N, and for even N the length-N/2 FFT of the pairs
    v_2p + i v_2p+1, from which V_k = E_k + e^{-2 pi i k / N} O_k with
    E_k = (Z_k + conj Z_{N/2-k}) / 2 and O_k = (Z_k - conj Z_{N/2-k}) / 2i.
    Z is given as the function (i, j) -> Z[i:j], and the map asks it for
    the bins it reads and no others, _PW_BINS at a time.  The twiddle
    factors are made here, once; the map works elementwise, in place and
    a step of bins at a time, so it holds one array of b - a bins and the
    step's few temporaries.
    """
    twist = _unit_steps(a, -0.5 * math.pi / N, b - a)(0, b - a)
    if N % 2:
        return lambda Z: twist * Z(a, b)
    L = N // 2
    lo = max(a, 1)
    hi = max(min(b, L), lo)
    # V_0 and V_{N/2} are real: the sum and the difference of Z_0's parts
    head, tail = a == 0, (twist[-1] if b > L else None)
    t_even = twist[lo - a:hi - a]
    t_even *= 0.5
    t_odd = _unit_steps(lo, -2.5 * math.pi / N, hi - lo)(0, hi - lo)
    t_odd *= -0.5j

    def bins(Z):
        out = np.empty(b - a, dtype=complex)
        for i in range(lo, hi, _PW_BINS):
            j = min(i + _PW_BINS, hi)
            zk, mid = Z(i, j), out[i - a:j - a]
            np.conjugate(Z(L - j + 1, L - i + 1)[::-1], out=mid)
            diff = zk - mid
            diff *= t_odd[i - lo:j - lo]
            mid += zk
            mid *= t_even[i - lo:j - lo]
            mid += diff
        z0 = Z(0, 1)[0]
        if head:
            out[0] = z0.real + z0.imag
        if tail is not None:
            out[-1] = tail * (z0.real - z0.imag)
        return out

    return bins


# Bins per step of the twisted-bin map, which gathers them from the
# two-stage FFT's rows: a step's temporaries stay small.
_PW_BINS = 2**12
# Columns per block of the two-stage FFT's first stage: Q rows of this
# many complex values (256 KB for Q = 16) stay in cache while the Q-point
# DFT and the twiddles are applied; 2^10 and 2^11 timed fastest for
# L = 2^21, and 2^10 keeps the twiddle table at Q x 2^10.
_PW_COLUMNS = 2**10


def _two_stage_fft(L: int):
    """The map z -> (i, j) -> Z[i:j], Z the length-L DFT of z, computed in z's memory.

    A decimation-in-frequency split of the length-L FFT into Q = gcd(L, 16)
    chunks of length P = L / Q: with z viewed as the (Q, P) array z[q, p]
    = z_{qP+p},

        Z_{Qk+s} = sum_p w_P^{pk} [w_L^{ps} sum_q w_Q^{qs} z[q, p]],

    so the Q-point DFT across the chunks and the twiddles w_L^{ps} are
    applied one block of _PW_COLUMNS columns at a time, while the block is
    in cache (the block's share w_L^{s c0} of the twiddles rides on its
    DFT matrix), and then Q contiguous row FFTs of length P give row s =
    Z_{Qk+s}.  No FFT longer than P runs and no full-length temporary is
    made.  The function the map returns gathers Z[i:j] from the rows, so
    only the bins asked for are put in natural order.  Odd L (Q = 1) is
    the plain FFT.
    """
    Q = math.gcd(L, 16)
    P = L // Q
    width = min(_PW_COLUMNS, P)
    s = np.arange(Q)
    # every angle is -2 pi m / Q or -2 pi m / L for an exact integer m in [0, Q) or [0, L)
    dft = _unit_phase((-2.0 * math.pi / Q) * (np.outer(s, s) % Q))
    fine = _unit_phase((-2.0 * math.pi / L) * np.outer(s, np.arange(width)))
    coarse = _unit_phase((-2.0 * math.pi / L) * np.outer(np.arange(0, P, width), s))

    def transform(z: np.ndarray):
        rows = z.reshape(Q, P)
        for c0, shift in zip(range(0, P, width), coarse):
            block = rows[:, c0:c0 + width]
            np.multiply((dft * shift[:, None]) @ block, fine[:, :block.shape[1]], out=block)
        rows = scipy.fft.fft(rows, axis=1, overwrite_x=True)

        def Z(i: int, j: int) -> np.ndarray:
            k0 = i // Q
            return rows[:, k0:-(-j // Q)].T.ravel()[i - k0 * Q:j - k0 * Q]

        return Z

    return transform


def _makhoul_energies(N: int, cut: int):
    """The map (z, v, odd) -> (out-of-band, total) energy of one folded row.

    ``v`` is the real view of the buffer row ``z`` (see ``_makhoul_buffer``)
    and holds the tapered half row g of length N in Makhoul order, odd
    samples negated for an odd row, since DST-II_k(g) =
    DCT-II_{N-1-k}((-1)^j g_j).  The map runs ``_two_stage_fft`` in z's
    memory and reads from its rows only the bins named below.  The
    DCT-II is y_k = 2 Re(e^{-i pi k / 2N} V_k), and y_{N-k} = -2 Im of the
    same product, so every bin comes from a V_k with k <= N/2.  The
    out-of-band bins are y_k, k >= cut, of an even row (its bin k is
    frequency k) and the DST bins k >= cut - 1 of an odd row (bin k is
    frequency k + 1); only those are formed.  The totals follow Parseval:
    y_0^2 / 2 + sum_{k>=1} y_k^2 = 2N sum g^2 for an even row, and the DST
    sum of squares adds y_{N-1}^2 / 2 to that.
    """
    L, H = N // 2, N - N // 2
    # the bins k in [0, min(N - cut, L)], and k in [cut, H) when cut < H
    low = _twisted_bins(N, 0, min(N - cut, L) + 1)
    high = _twisted_bins(N, cut, H) if cut < H else None
    fft = _two_stage_fft(L if N % 2 == 0 else N)

    def energies(z: np.ndarray, v: np.ndarray, odd: bool):
        total = 2.0 * N * float(np.dot(v, v))
        Z = fft(z)
        A = low(Z)
        B = high(Z) if high is not None else A[:0]
        if odd:
            out = np.dot(A.real, A.real) + np.dot(B.imag, B.imag)
            total += 2.0 * float(A[0].real) ** 2
        else:
            out = np.dot(A.imag[1:], A.imag[1:]) + np.dot(B.real, B.real)
        return 4.0 * float(out), total

    return energies


def _pw_folded(basis, ns, dx: float, M: int, width: float, band: float) -> dict:
    """Out-of-band energy ratios of rows ns from half-length FFTs of the half grid.

    On the upper half of the grid, x_j = (j + 1/2) dx for j < N = M/2, an
    even row's length-M DFT has the magnitude of the DCT-II of the half,
    bin j at frequency j, and an odd row's that of the DST-II, bin j at
    frequency j + 1; the frequency M/2 bin of an even row is zero.  Each
    tapered row is written into one complex buffer in Makhoul order, which
    takes the DCT-II of length N from one complex FFT of length N/2 (for
    odd N, one of length N), run in two stages: see ``_makhoul_energies``.  Only the
    out-of-band bins are formed; the total is Parseval's.  A closed form
    fills the buffer block by block, each block with its own x and taper:
    rows 0..max(ns) of the table, or a lone row from its single-row sweep;
    the Legendre sweep takes sin x and cos x from ``_unit_steps``.
    Other families take phi_grid's rows in one call, since its quadrature
    refinement follows the grid's max |x|.  A row with a non-negligible
    imaginary part is left out of the result.
    """
    half = M // 2
    cut = _first_bin_above(band, M, dx)
    ns = sorted(set(ns))
    nmax = ns[-1]
    picks, step = ns, _PW_BLOCK
    # e^{i x_j} on the half grid, for the Legendre sweep's sin x and cos x
    trig = (_unit_steps(0.5, dx, half)
            if basis.closed_table is basis_mod.transformed_legendre_table else None)
    if basis.closed_form is not None and ns == [nmax]:
        # a lone row through the single-row sweep, which keeps no other row
        picks = [0]
        evaluate = lambda x, **kw: np.asarray(basis.closed_form(nmax, x, **kw))[None]
    elif basis.closed_table is not None:
        # phi_grid's rows, kept in the table's own (real) dtype
        evaluate = lambda x, **kw: basis.closed_table(nmax, x, **kw)
    else:
        step = half
        evaluate = lambda x: basis_mod.phi_grid(basis, nmax, x)
    z, v = _makhoul_buffer(len(ns), half)
    # max |imag| and max |real| over the blocks; a real row keeps imag = -inf
    imag = np.full(len(ns), -np.inf)
    real = np.zeros(len(ns))
    for start in range(0, half, step):
        stop = min(start + step, half)
        # x_j = (j + 1/2) dx and the taper exp(-(x / width)^2 / 2), in place
        x = np.arange(start + 0.5, stop, 1.0)
        x *= dx
        taper = x * x
        taper *= -0.5 / width**2
        np.exp(taper, out=taper)
        if trig is None:
            rows = evaluate(x)
        else:
            e = trig(start, stop)
            rows = evaluate(x, sincos=(e.imag, e.real))
        (es, et), (os_, ot) = _makhoul_slots(half, start, stop)
        for i, pick in enumerate(picks):
            row = rows[pick]
            if np.iscomplexobj(row):
                imag[i] = np.maximum(imag[i], np.max(np.abs(row.imag)))
                real[i] = np.maximum(real[i], np.max(np.abs(row.real)))
                row = row.real
            np.multiply(row[es], taper[es], out=v[i, et])
            np.multiply(row[os_], taper[os_], out=v[i, ot])
            if ns[i] % 2:
                np.negative(v[i, ot], out=v[i, ot])
        del rows, row
    energies = _makhoul_energies(half, cut)
    ratios = {}
    for i, n in enumerate(ns):
        if imag[i] < 1e-14 * real[i]:
            out, total = energies(z[i], v[i], n % 2 == 1)
            ratios[n] = out / total
    return ratios


def pw_support_reports(basis, ns, dx: float = 3.0, M: int = 2**23,
                       taper: float = 3.5) -> list[CheckReport]:
    """Fraction of each phi_n's Fourier energy outside the measure's support.

    Samples the rows n in ``ns`` on a wide grid whose spacing keeps the
    Nyquist frequency just above the band edge, applies a Gaussian taper
    against truncation leakage, and integrates the discrete spectrum
    outside the support; one report per entry of ``ns``.  The grid is
    symmetric about 0.  When the measure is symmetric, the basis carries no
    phase sigma and M is even, phi_n(-x) = (-1)^n phi_n(x), so the check is
    folded: rows 0..max(ns) are evaluated once, as one table on the upper
    half of the grid, and the energies of the length-M real FFT of the
    whole row are those of the length-M/2 DCT-II (even n) or DST-II (odd
    n) of the tapered half row.  Each comes from one complex FFT of length
    M/4 (M/2 when M/2 is odd) of the half row in Makhoul order, run in the
    buffer in two stages (``_two_stage_fft``; its longest FFT has M/64
    points when 64 divides M); only the out-of-band bins are read from it
    and formed, and the total is Parseval's sum of squares of the half
    row.  The Legendre rows take sin x and cos x from an angle-addition
    table, so no full-length np.sin or np.cos call is made.  Odd M, an asymmetric measure, a phase, or a row with a
    non-negligible imaginary part takes the full grid: that row alone
    through ``phi`` and a length-M FFT.  For measures supported on all of
    R all of the energy lies outside the support: the ratio 1.0 is
    returned at once, without sampling or an FFT, and the report is tagged
    expected_fail.
    """
    ns = [int(n) for n in ns]
    if any(n < 0 for n in ns):
        raise ValueError("index n must be >= 0")
    lo, hi = basis.measure.support
    metas = [{"family": basis.family, "n": n, "support": (lo, hi), "M": M, "dx": dx}
             for n in ns]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [CheckReport("pw-support", 1.0, 1e-6, metadata={**meta, "expected_fail": True})
                for meta in metas]
    band = max(abs(lo), abs(hi))
    if math.pi / dx <= band:
        raise ValueError("grid spacing too coarse for the band edge")
    width = (0.5 * M * dx) / taper
    ratios = {}
    if ns and basis.measure.symmetric and basis.sigma is None and M % 2 == 0:
        ratios = _pw_folded(basis, ns, dx, M, width, band)
    reports = []
    for n, meta in zip(ns, metas):
        if n not in ratios:
            ratios[n] = _pw_full_grid(basis, n, dx, M, width, band)
        reports.append(CheckReport("pw-support", ratios[n], 1e-6, metadata=meta))
    return reports


def check_pw_support(basis, n: int = 0, dx: float = 3.0, M: int = 2**23,
                     taper: float = 3.5) -> CheckReport:
    """``pw_support_reports`` for the single row n; see there for the fold."""
    return pw_support_reports(basis, (n,), dx, M, taper)[0]
