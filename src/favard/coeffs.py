"""Expansion coefficients f_hat_n = <f, phi_n> in a transformed basis.

Four routes: an O(N M) Gauss rule on the Fourier side, an O(N M) trapezoid
rule in x, an O(N log N) FFT path for Malmquist-Takenaka, and O(N log N)
DCT/DST paths for the four tanh-Chebyshev families.  A decay-rate fitter
classifies the tail behavior of a coefficient sequence.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from . import recurrence as rec
from . import specfun
from .basis import TransformedBasis, malmquist_takenaka, phi_grid
from .diffop import _I_POWERS, _real_times
from .quadrature import _SQRT_2PI, golub_welsch

__all__ = [
    "CoefficientVector",
    "DecayFit",
    "check_mt_fft_size",
    "coeffs_fourier_side",
    "coeffs_xspace",
    "decay_fit",
    "mt_coeffs_fft",
    "parse_decay_model",
    "tanh_cheb_kind",
    "tanh_chebyshev_coeffs",
]


def _fft_workers() -> int | None:
    """Worker count for scipy.fft, capped by FAVARD_THREADS when set."""
    text = os.environ.get("FAVARD_THREADS", "").strip()
    if not text:
        return None
    try:
        count = int(text)
    except ValueError:
        return None
    return max(1, count)


@dataclass(eq=False)
class CoefficientVector:
    """Coefficients f_hat_n for n = n_start .. n_start + len(values) - 1.

    ``n_start`` is 0 for one-sided families and -N/2+1 for the bilateral
    Malmquist-Takenaka window.  ``meta`` records how the values were
    computed, including tail estimates for windowed rules.
    """

    values: np.ndarray
    n_start: int = 0
    basis: TransformedBasis | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1:
            raise ValueError("coefficient values must be one-dimensional")

    def __len__(self) -> int:
        return self.values.size

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_start, self.n_start + self.values.size)

    @property
    def norm(self) -> float:
        """Cached l2 norm; equals ||f||_L2 up to truncation (Parseval)."""
        cached = getattr(self, "_norm", None)
        if cached is None:
            cached = float(np.linalg.norm(self.values))
            self._norm = cached
        return cached

    def with_values(self, values) -> "CoefficientVector":
        return CoefficientVector(np.asarray(values, dtype=complex),
                                 self.n_start, self.basis, dict(self.meta))


def coeffs_fourier_side(F, basis: TransformedBasis, N: int,
                        M: int | None = None) -> CoefficientVector:
    """Coefficients from the Fourier transform F of f.

    f_hat_n = (-i)^n integral F(xi) p_n(xi) sqrt(w(xi)) dxi, evaluated with
    an M-point Gauss rule for the basis measure (the sqrt(w) is folded into
    the measure, leaving F p_n / sqrt(w) as the Gauss integrand).  F must be
    the unitary-convention transform, F(xi) = (2 pi)^{-1/2} integral f(x)
    e^{-i xi x} dx.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if basis.measure.kind != "continuous":
        raise ValueError("fourier-side coefficients need a continuous measure")
    if M is None:
        M = 2 * N + 32
    if M < N:
        raise ValueError("rule size M must be at least N")
    basis.ensure(M)
    rule = golub_welsch(basis.jacobi, M, basis.measure)
    nodes = rule.nodes
    sqw = np.sqrt(basis.measure.weight(nodes))
    # A Gauss weight is 0.0 only where its true value is below the smallest
    # normal double, and sqrt(w) underflows further out still.  Such nodes
    # contribute w_i F p_n / sqrt(w) ~ sqrt(w) |F|, below 1e-150 for any
    # square-integrable f; drop them instead of dividing 0/0.  Every kept
    # node has |p_n(x_i)| <= w_i^{-1/2}, so the table cannot overflow.
    live = (rule.weights > 0.0) & (sqw > 0.0)
    samples = np.asarray(F(nodes[live]), dtype=complex)
    if basis.sigma is not None:
        samples = samples * np.exp(-1j * np.asarray(basis.sigma(nodes[live])))
    table = rec.eval_poly_table(basis.jacobi, N - 1, nodes[live])
    vals = table @ (rule.weights[live] * samples / sqw[live])
    vals = _I_POWERS[-np.arange(N) % 4] * vals
    return CoefficientVector(vals, 0, basis, {"method": "fourier-side", "points": M})


def coeffs_xspace(f, basis: TransformedBasis, N: int,
                  window: tuple[float, float] = (-30.0, 30.0),
                  M: int = 8193) -> CoefficientVector:
    """Coefficients by trapezoid rule on f(x) conj(phi_n(x)) over a window.

    Works for any basis with an evaluation path; O(N M).  A bilateral
    (Malmquist-Takenaka) basis takes n = -N/2+1..N/2 from one broadcast
    ``malmquist_takenaka`` call, each row equal to ``phi`` bit for bit; the
    others take rows 0..N-1 from ``phi_grid``.

    The rule is folded by parity when the measure is symmetric, the basis
    has no phase sigma and the grid is its own mirror (M odd and
    x[::-1] == -x exactly, as for the default window).  Then phi_n is real
    with phi_n(-x) = (-1)^n phi_n(x), so rows 0..N-1 are taken on x >= 0
    only (``closed_table`` when the family has one, else ``phi_grid``) and
    even rows are integrated against f(x) + f(-x), odd rows against
    f(x) - f(-x), with the weight at x = 0 halved.  The odd coefficients of
    an even f come out exactly 0.

    The metadata holds a tail estimate (largest integrand magnitude
    |phi_n(x) f(x)| at the window edges, taken as
    |phi_n(x)| max(|f(x)|, |f(-x)|) on the folded rule); a warning string
    is attached when the window looks too small.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    if M < 8:
        raise ValueError("M must be at least 8")
    x = np.linspace(lo, hi, M)
    fx = np.asarray(f(x), dtype=complex)
    n_start = 0
    if (M % 2 and basis.measure.symmetric and basis.sigma is None and not basis.bilateral
            and np.array_equal(x[::-1], -x)):
        vals, edge, peak = _xspace_folded(basis, N, x, fx)
    else:
        w = np.full(M, x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        if basis.bilateral:
            ns = np.arange(-N // 2 + 1, N // 2 + 1)
            V = malmquist_takenaka(ns[:, None], x)
            n_start = int(ns[0])
        else:
            V = phi_grid(basis, N - 1, x)
        integrand = np.conj(V) * fx
        vals = integrand @ w
        edge = float(np.max(np.abs(integrand[:, [0, -1]])))
        peak = float(np.max(np.abs(integrand)))
    meta = {"method": "xspace", "window": (lo, hi), "points": M,
            "tail_estimate": edge}
    if edge > 1e-10 * max(peak, 1e-300):
        meta["warning"] = "integrand not negligible at the window edges"
    return CoefficientVector(vals, n_start, basis, meta)


def _xspace_folded(basis: TransformedBasis, N: int, x: np.ndarray, fx: np.ndarray):
    """(values, edge, peak) of the parity-folded trapezoid rule.

    ``x`` is the mirrored grid (x[M//2] = 0) and ``fx`` the samples of f on
    it.  The rows are real: the closed tables of symmetric families are, and
    for a symmetric measure without a phase so is every phi_n (its transform
    integrand has the parity of n), which ``phi_grid``'s parity fold returns
    with a zero imaginary part.
    """
    h = x.size // 2
    half = x[h:]
    table = (basis.closed_table(N - 1, half) if basis.closed_table is not None
             else phi_grid(basis, N - 1, half))
    rows = np.ascontiguousarray(table.real)
    f_pos, f_neg = fx[h:], fx[h::-1]
    w = np.full(half.size, x[1] - x[0])
    w[0] *= 0.5  # x = 0 is counted once by f(0) + f(-0)
    w[-1] *= 0.5
    vals = np.empty(N, dtype=complex)
    vals[0::2] = _real_times(rows[0::2], (f_pos + f_neg) * w)
    vals[1::2] = _real_times(rows[1::2], (f_pos - f_neg) * w)
    f_top = np.maximum(np.abs(f_pos), np.abs(f_neg))
    reach = np.maximum(rows.max(axis=0), -rows.min(axis=0)) * f_top
    return vals, float(reach[-1]), float(np.max(reach))


# Points per call of f on the Malmquist-Takenaka grid: a block's complex
# temporaries (64 KiB) stay below glibc's default 128 KiB mmap threshold and
# in cache, where grid-length ones (4 MiB at N = 2^16) grow and trim the heap
# and fault their pages in again on every call.
_MT_BLOCK = 2**12


def _mt_integrand(f, M: int) -> tuple[np.ndarray, float]:
    """g = (1 - i t) f(t/2), t = tan(theta_j/2), on the M-point midpoint grid
    theta_j = -pi + (j + 1/2) 2 pi / M, and max |g|.

    The upper half grid is theta = (m + 1/2) 2 pi / M and the lower half its
    mirror, t(-theta) = -t, so tan runs on M/2 points.  f is called on
    blocks of _MT_BLOCK points and each block of g is written in place, so
    g is the only complex array of grid length.
    """
    t = np.empty(M)
    upper = t[M // 2:]
    np.multiply(np.arange(M // 2) + 0.5, math.pi / M, out=upper)
    np.tan(upper, out=upper)
    np.negative(upper[::-1], out=t[:M // 2])
    g = np.empty(M, dtype=complex)
    top = 0.0
    for start in range(0, M, _MT_BLOCK):
        tb, gb = t[start:start + _MT_BLOCK], g[start:start + _MT_BLOCK]
        fx = np.asarray(f(0.5 * tb))
        re, im = gb.real, gb.imag
        if np.iscomplexobj(fx):
            np.multiply(tb, fx.imag, out=re)
            re += fx.real
            np.multiply(tb, fx.real, out=im)
            np.subtract(fx.imag, im, out=im)
        else:
            re[...] = fx
            np.multiply(tb, fx, out=im)
            np.negative(im, out=im)
        top = max(top, float(np.abs(gb).max()))
    return g, top


def check_mt_fft_size(N: int) -> None:
    """Raise ValueError unless ``mt_coeffs_fft`` takes N: a power of two, N >= 4."""
    if N < 4 or (N & (N - 1)) != 0:
        raise ValueError("N must be a power of two, N >= 4")


def mt_coeffs_fft(f, N: int, basis: TransformedBasis | None = None) -> CoefficientVector:
    """Malmquist-Takenaka coefficients for n = -N/2+1 .. N/2 by FFT.

    Substituting e^{i theta} = (1+2ix)/(1-2ix) turns the inner products into
    Fourier coefficients of g(theta) = (1 - i tan(theta/2)) f(tan(theta/2)/2),
    sampled on a midpoint grid that avoids theta = +-pi (x = +-inf); cost
    O(N log N).  Requires N a power of two and x f(x) -> 0 at infinity.
    f must act elementwise: it is called on blocks of the grid.
    """
    check_mt_fft_size(N)
    # Sample at 4N points but return N coefficients: the returned window is
    # then four aliasing distances from the spectrum edge, so the edge
    # indices +-N/2 are as accurate as the center ones.  Still O(N log N).
    M = 4 * N
    h = 2.0 * math.pi / M
    g, top = _mt_integrand(f, M)
    # The substituted integrand tends to -2i lim x f(x) at theta = +-pi.  A
    # mismatch between the two limits is a jump in the periodized integrand
    # and destroys the spectral accuracy of the midpoint rule; equal limits
    # (for instance every basis function phi_n itself) are fine.  The limits
    # are estimated by Richardson extrapolation of x f(x) over two probe
    # radii beyond the grid, which cancels the O(1/x) correction.
    probe = 4.0 / math.tan(0.25 * h)

    def tail_limit(sign: float) -> complex:
        m1 = sign * probe * complex(np.asarray(f(np.array([sign * probe])), dtype=complex)[0])
        m2 = 2.0 * sign * probe * complex(np.asarray(f(np.array([2.0 * sign * probe])), dtype=complex)[0])
        return 2.0 * m2 - m1

    if abs(tail_limit(1.0) - tail_limit(-1.0)) > 1e-2 * max(top, 1e-300):
        raise ValueError("f decays too slowly for the Malmquist-Takenaka FFT path: "
                         "the substituted integrand jumps at theta = pi")
    spectrum = scipy.fft.fft(g, workers=_fft_workers(), overwrite_x=True)
    # bins n = -N/2+1..-1 sit at M+n, bins 0..N/2 at n; only they are kept
    vals = np.concatenate((spectrum[M - N // 2 + 1:], spectrum[:N // 2 + 1]))
    del g, spectrum
    ns = np.arange(-N // 2 + 1, N // 2 + 1)
    vals *= (h / (2.0 * _SQRT_2PI)) * _I_POWERS[ns % 4] * np.exp(-0.5j * ns * h)
    return CoefficientVector(vals, int(ns[0]), basis, {"method": "mt-fft", "samples": M})


# (a, b) -> the midpoint transform and its type
_TANH_CHEB_KINDS = {(0.75, 0.75): (scipy.fft.dst, 2), (0.25, 0.25): (scipy.fft.dct, 2),
                    (0.25, 0.75): (scipy.fft.dct, 4), (0.75, 0.25): (scipy.fft.dst, 4)}

def tanh_cheb_kind(basis) -> tuple[float, float] | None:
    """The (a, b) pair when ``basis`` is one of the four tanh-Chebyshev
    families with a fast transform, else None."""
    head, _, tail = basis.family.partition(":")
    if head != "tanhjacobi" or not tail:
        return None
    try:
        a, b = (float(p) for p in tail.split(","))
    except ValueError:
        return None
    return (a, b) if (a, b) in _TANH_CHEB_KINDS else None



def tanh_chebyshev_coeffs(f, kind: tuple[float, float], N: int,
                          basis: TransformedBasis | None = None) -> CoefficientVector:
    """tanh-Jacobi coefficients for the four Chebyshev kinds by fast transform.

    Substituting tanh x = cos theta maps the inner products to integrals of
    H(theta) = f(atanh(cos theta)) / sqrt(sin theta) against sin((n+1)theta),
    cos(n theta), cos((n+1/2)theta) or sin((n+1/2)theta) for (a,b) = (3/4,3/4),
    (1/4,1/4), (1/4,3/4), (3/4,1/4) respectively, so a midpoint DST-II,
    DCT-II, DCT-IV or DST-IV computes N coefficients in O(N log N).
    """
    a, b = float(kind[0]), float(kind[1])
    if (a, b) not in _TANH_CHEB_KINDS:
        raise ValueError("kind must be one of (1/4,1/4), (1/4,3/4), (3/4,1/4), (3/4,3/4)")
    if N < 4:
        raise ValueError("N must be at least 4")
    # Sample at 4N points (at least 1024) and keep N coefficients.  H keeps
    # algebraic theta^{k-1/2} endpoint behavior when f ~ e^{-k|x|}, so the
    # midpoint rule converges algebraically there; the floor keeps that
    # regime at the 1e-9 level while staying O(N log N).
    M = max(4 * N, 1024)
    theta = (np.arange(M // 2) + 0.5) * (math.pi / M)
    # theta_{M-1-j} = pi - theta_j, where x(pi - theta) = -x(theta) and
    # sin(pi - theta) = sin(theta): the lower half of the grid gives both
    x = np.empty(M)
    np.log(np.tan(0.5 * theta), out=x[:M // 2])
    np.negative(x[:M // 2], out=x[:M // 2])
    np.negative(x[M // 2 - 1::-1], out=x[M // 2:])
    H = np.empty(M)
    np.sqrt(np.sin(theta), out=H[:M // 2])
    H[M // 2:] = H[M // 2 - 1::-1]
    fx = np.asarray(f(x))
    if np.iscomplexobj(fx) and not np.any(fx.imag):
        fx = fx.real
    if np.iscomplexobj(fx):
        H = fx / H
    else:
        np.divide(fx, H, out=H)
    top = float(np.abs(H, out=x).max())
    # H must stay bounded toward theta = 0, pi (x = +-inf).  Probe one point
    # beyond each end of the grid: a value exceeding the on-grid maximum
    # means f decays more slowly than e^{-|x|/2}, H blows up, and the fast
    # path loses its accuracy.
    for th in (0.25 * theta[0], math.pi - 0.25 * theta[0]):
        xq = -math.log(math.tan(0.5 * th))
        hq = complex(np.asarray(f(np.array([xq])), dtype=complex)[0]) / math.sqrt(math.sin(th))
        if abs(hq) > 1.2 * max(top, 1e-300):
            raise ValueError("f decays too slowly for the tanh-Chebyshev transform path")
    root_s = math.sqrt(2.0 ** (2 * a + 2 * b - 1) * specfun.beta(2 * a, 2 * b))
    scale = math.pi / (2.0 * M) / root_s
    transform, order = _TANH_CHEB_KINDS[(a, b)]
    vals = transform(H, type=order, workers=_fft_workers(), overwrite_x=True)[:N]
    vals *= scale if (a, b) == (0.75, 0.75) else scale * math.sqrt(2.0)
    if (a, b) == (0.25, 0.25):
        vals[0] /= math.sqrt(2.0)
    vals[1::2] *= -1.0
    return CoefficientVector(vals, 0, basis,
                             {"method": "tanh-chebyshev", "kind": (a, b), "samples": M})


@dataclass(frozen=True)
class DecayFit:
    """Fitted tail model of a coefficient sequence.

    ``model`` is "exponential" (|f_hat_n| ~ A rho^{-n}, param = rho),
    "algebraic" (~ A n^{-s}, param = s) or "stretched" (~ A e^{-c n^p},
    param = c with the exponent recorded in ``p``).
    """

    model: str
    param: float
    amplitude: float
    r2: float
    n_used: int
    p: float | None = None


def parse_decay_model(model: str) -> tuple[str, float | None]:
    """Split a ``decay_fit`` model into its name and stretched exponent:
    "exponential" and "algebraic" give p = None, "stretched:<p>" needs
    0 < p <= 1.  Anything else raises ValueError."""
    if model.startswith("stretched:"):
        try:
            p = float(model.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad stretched exponent in {model!r}") from None
        if not 0.0 < p <= 1.0:
            raise ValueError("stretched exponent must lie in (0, 1]")
        return "stretched", p
    if model not in ("exponential", "algebraic"):
        raise ValueError(f"unknown decay model {model!r}")
    return model, None


def decay_fit(coeffs: CoefficientVector, model: str,
              skip: int = 8, floor: float = 1e-13) -> DecayFit:
    """Least-squares fit of the coefficient decay envelope.

    The first ``skip`` indices are pre-asymptotic and dropped, magnitudes at
    or below ``floor`` are noise, and the fit runs on per-bin envelope maxima
    (log-spaced bins) so oscillatory or sparse coefficient patterns do not
    bias the slope.  ``model`` is "exponential", "algebraic", or
    "stretched:<p>".
    """
    model, p = parse_decay_model(model)
    mags = np.abs(coeffs.values)
    idx = coeffs.indices
    if coeffs.n_start < 0:
        # Bilateral window: fold onto |n| and keep the larger magnitude.
        kmax = int(np.max(np.abs(idx)))
        folded = np.zeros(kmax + 1)
        np.maximum.at(folded, np.abs(idx), mags)
        mags, idx = folded, np.arange(kmax + 1)

    keep = (idx >= skip) & (mags > floor)
    if int(np.count_nonzero(keep)) < 16:
        raise ValueError("insufficient coefficients above the noise floor for a decay fit")
    k = idx[keep].astype(float)
    m = mags[keep]

    edges = np.geomspace(k[0], k[-1] + 1.0, 49)
    ks, logs = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (k >= lo) & (k < hi)
        if not np.any(inside):
            continue
        j = int(np.argmax(m[inside]))
        ks.append(k[inside][j])
        logs.append(math.log(m[inside][j]))
    ks = np.array(ks)
    logs = np.array(logs)

    if model == "exponential":
        t = ks
    elif model == "algebraic":
        t = np.log(ks)
    else:
        t = ks**p
    slope, intercept = np.polyfit(t, logs, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    if model == "exponential":
        param = math.exp(-slope)
    else:
        param = -slope
    return DecayFit(model, float(param), math.exp(float(intercept)),
                    float(r2), int(ks.size), p)
