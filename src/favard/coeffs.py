"""Expansion coefficients f_hat_n = <f, phi_n> in a transformed basis.

Four routes: an O(N M) Gauss rule on the Fourier side, an O(N M) trapezoid
rule in x, an O(N log N) FFT path for Malmquist-Takenaka, and O(N log N)
DCT/DST paths for the four tanh-Chebyshev families.  A decay-rate fitter
classifies the tail behavior of a coefficient sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import recurrence as rec
from . import specfun
from .basis import TransformedBasis, malmquist_takenaka, phi_grid
from .diffop import _I_POWERS, _real_times
from .quadrature import _SQRT_2PI, golub_welsch

__all__ = [
    "CoefficientVector",
    "DecayFit",
    "check_mt_fft_size",
    "check_tanh_cheb_size",
    "coeffs_fourier_side",
    "coeffs_xspace",
    "decay_fit",
    "mt_coeffs_fft",
    "parse_decay_model",
    "tanh_cheb_kind",
    "tanh_chebyshev_coeffs",
]


@dataclass(eq=False)
class CoefficientVector:
    """Coefficients f_hat_n for n = n_start .. n_start + len(values) - 1.

    ``n_start`` is 0 for one-sided families and -N/2+1 for the bilateral
    Malmquist-Takenaka window.  ``meta``, keyword-only, records how the
    values were computed, including tail estimates for windowed rules.
    """

    values: np.ndarray
    n_start: int = 0
    meta: dict = field(default_factory=dict, kw_only=True)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1:
            raise ValueError("coefficient values must be one-dimensional")

    def __len__(self) -> int:
        return self.values.size

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_start, self.n_start + self.values.size)

    def with_values(self, values) -> "CoefficientVector":
        return CoefficientVector(np.asarray(values, dtype=complex), self.n_start,
                                 meta=dict(self.meta))


def coeffs_fourier_side(F, basis: TransformedBasis, N: int) -> CoefficientVector:
    """Coefficients from the Fourier transform F of f.

    f_hat_n = (-i)^n integral F(xi) p_n(xi) sqrt(w(xi)) dxi, evaluated with
    the (2N + 32)-point Gauss rule for the basis measure (the sqrt(w) is
    folded into the measure, leaving F p_n / sqrt(w) as the Gauss
    integrand).  F must be the unitary-convention transform, F(xi) =
    (2 pi)^{-1/2} integral f(x) e^{-i xi x} dx.  A bilateral basis is
    refused: rows n >= 0 alone span only the functions whose transform
    vanishes for xi < 0.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if basis.measure.kind != "continuous":
        raise ValueError("fourier-side coefficients need a continuous measure")
    if basis.bilateral:
        raise ValueError(f"fourier-side coefficients cover n >= 0 only; the bilateral "
                         f"{basis.family!r} basis needs mt_coeffs_fft")
    M = 2 * N + 32
    basis.ensure(M)
    rule = golub_welsch(basis.jacobi, M)
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
    return CoefficientVector(vals, 0, meta={"method": "fourier-side", "points": M})


def coeffs_xspace(f, basis: TransformedBasis, N: int,
                  window: tuple[float, float] = (-30.0, 30.0),
                  M: int = 8193) -> CoefficientVector:
    """Coefficients by trapezoid rule on f(x) conj(phi_n(x)) over a window.

    Works for any basis with an evaluation path; O(N M).  A bilateral
    (Malmquist-Takenaka) basis takes n = -N/2+1..N/2 from one broadcast
    ``malmquist_takenaka`` call, each row equal to ``phi`` bit for bit; the
    others take rows 0..N-1 from ``phi_grid``.

    The grid of an odd-M window with lo = -hi is its nonnegative half,
    ``np.linspace(0, hi, M // 2 + 1)``, mirrored, so x[::-1] == -x exactly
    (for the default window these are the points of ``np.linspace(lo, hi,
    M)``); any other window takes ``np.linspace(lo, hi, M)``.  The rule is
    folded by parity on a mirrored grid when the measure is symmetric and
    the basis has no phase sigma.  Then phi_n is real
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
    mirrored = M % 2 == 1 and lo == -hi
    if mirrored:  # built from its nonnegative half, so x[::-1] == -x exactly
        half = np.linspace(0.0, hi, M // 2 + 1)
        x = np.concatenate((-half[:0:-1], half))
    else:
        x = np.linspace(lo, hi, M)
    fx = np.asarray(f(x), dtype=complex)
    n_start = 0
    if mirrored and basis.measure.symmetric and basis.sigma is None and not basis.bilateral:
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
    return CoefficientVector(vals, n_start, meta=meta)


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
# in cache, where grid-length ones (2 MiB on the 2N points at N = 2^16) grow
# and trim the heap and fault their pages in again on every call.
_MT_BLOCK = 2**12

# A sampled transform keeps its cheaper rule when every bin outside the
# returned window is at most this fraction of the largest window bin (see
# mt_coeffs_fft and tanh_chebyshev_coeffs).
_TAIL_TOL = 1e-14


def _out_of_window(spectrum: np.ndarray, lo: int, hi: int) -> float:
    """The largest |bin| in spectrum[lo:hi], the bins outside the returned
    window, over the largest |bin| of the rest: 0 when both are 0, inf when
    only the window is."""
    inside = max(float(np.abs(spectrum[:lo]).max()),
                 float(np.abs(spectrum[hi:]).max(initial=0.0)))
    outside = float(np.abs(spectrum[lo:hi]).max())
    return outside / inside if inside > 0.0 else (0.0 if outside == 0.0 else math.inf)


def _mt_even_grid(N: int) -> np.ndarray:
    """t = tan(theta/2) on the even points theta_{2k} = -pi + (2k + 1/2) h,
    h = 2 pi / (4N), of the 4N-point midpoint grid.

    The upper half is tan((m + 1/2) h/2) for even m and the lower half the
    mirror of the odd m, t(-theta) = -t, so tan runs on 2N points and gives
    the values of the 4N grid bit for bit.  The odd points are the mirror of
    the even ones: t_odd = -t_even[::-1].
    """
    t = np.empty(2 * N)
    upper, lower = t[N:], t[N - 1::-1]
    np.multiply(np.arange(0.5, 2 * N, 2.0), math.pi / (4 * N), out=upper)
    np.multiply(np.arange(1.5, 2 * N, 2.0), math.pi / (4 * N), out=lower)
    np.tan(t, out=t)
    np.negative(lower, out=lower)
    return t


def _mt_integrand(f, t: np.ndarray, probes: np.ndarray | None = None):
    """g = (1 - i t) f(t/2) at the points t, max |g|, and f at ``probes``.

    f is called on blocks of _MT_BLOCK points and each block of g is written
    in place, so g is the only complex array of grid length.  The points
    ``probes`` ride at the end of the first block, so f runs once per block;
    without them the third value is None.
    """
    g = np.empty(t.size, dtype=complex)
    top, at_probes = 0.0, None
    for start in range(0, t.size, _MT_BLOCK):
        tb, gb = t[start:start + _MT_BLOCK], g[start:start + _MT_BLOCK]
        xb = 0.5 * tb
        if start == 0 and probes is not None:
            fx = np.asarray(f(np.concatenate((xb, probes))))
            fx, at_probes = fx[:tb.size], fx[tb.size:].copy()
        else:
            fx = np.asarray(f(xb))
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
    return g, top, at_probes


def _mt_window(spectrum: np.ndarray, N: int) -> np.ndarray:
    """Bins n = -N/2+1 .. N/2 of a 2N-point spectrum: -N/2+1..-1 sit at
    2N+n, 0..N/2 at n; the bins N/2+1 .. 3N/2 between lie outside."""
    return np.concatenate((spectrum[3 * N // 2 + 1:], spectrum[:N // 2 + 1]))


def _half_step_phase(N: int, h: float) -> np.ndarray:
    """e^{-i n h/2} for n = -N/2+1 .. N/2, bit for bit np.exp(-0.5j * n * h).

    cos and sin run on n = 0 .. N/2 only; the entry at -n is the conjugate
    of that at n.  A complex exp would cost three times as much.
    """
    k = np.arange(N // 2 + 1)
    arg = k * (0.5 * h)
    phase = np.empty(N, dtype=complex)
    upper = phase[N // 2 - 1:]
    np.cos(arg, out=upper.real)
    np.sin(arg, out=arg)
    np.negative(arg, out=upper.imag)
    np.conjugate(upper[N // 2 - 1:0:-1], out=phase[:N // 2 - 1])
    return phase


def check_mt_fft_size(N: int) -> None:
    """Raise ValueError unless ``mt_coeffs_fft`` takes N: a power of two, N >= 4."""
    if N < 4 or (N & (N - 1)) != 0:
        raise ValueError("N must be a power of two, N >= 4")


def mt_coeffs_fft(f, N: int) -> CoefficientVector:
    """Malmquist-Takenaka coefficients for n = -N/2+1 .. N/2 by FFT.

    Substituting e^{i theta} = (1+2ix)/(1-2ix) turns the inner products into
    Fourier coefficients of g(theta) = (1 - i tan(theta/2)) f(tan(theta/2)/2),
    sampled on a midpoint grid that avoids theta = +-pi (x = +-inf); cost
    O(N log N).  Requires N a power of two and x f(x) -> 0 at infinity.

    f must act elementwise: it is called once per block of 4096 grid points,
    with the four points of the decay probe appended to the first block, so
    f runs once per sampled grid for N <= 2048 and 2N/4096 times above.
    The probe extrapolates the limits of x f(x) at x = +-inf from the
    points +-r and +-2r, r = 4 / tan(h/4) with h = 2 pi / 4N; limits that
    differ by more than 1e-2 of max |g| raise ValueError.

    The rule is the 4N-point midpoint rule, taken as its two interleaved
    2N-point grids.  The even grid is sampled first, and its 2N FFT also
    gives the N bins outside the window, which estimate the coefficients
    for N/2 < |n| < 3N/2.  If the largest of them is at most 1e-14 of the
    largest window bin, the even grid alone is returned (``samples`` 2N):
    the 2N and 4N rules differ only by the aliases from |n| >= 3N/2, which
    for a decaying spectrum lie below the bins just past the window, and
    1e-14 (about 45 ulps) sits above the rounding noise of those bins
    (about 1e-16 for converged f) but below any content worth keeping.
    Otherwise the odd grid, the mirror of the even one, is sampled and the
    two FFTs are joined on the window bins by a radix-2 butterfly, which is
    the 4N rule (``samples`` 4N).  ``meta["out_of_window"]`` is the ratio
    that decided.

    Blind spot: content only beyond |n| = 3N/2, with an empty band
    N/2 < |n| < 3N/2 between, passes the test and aliases into the window;
    the 4N rule has the same blind spot beyond |n| = 7N/2.
    """
    check_mt_fft_size(N)
    import scipy.fft

    M = 4 * N
    h = 2.0 * math.pi / M
    t = _mt_even_grid(N)
    # The substituted integrand tends to -2i lim x f(x) at theta = +-pi.  A
    # mismatch between the two limits is a jump in the periodized integrand
    # and destroys the spectral accuracy of the midpoint rule; equal limits
    # (for instance every basis function phi_n itself) are fine.  The limits
    # are estimated by Richardson extrapolation of x f(x) over two probe
    # radii r and 2r beyond the grid, 2 m(2r) - m(r) with m = x f(x), which
    # cancels the O(1/x) correction; f is taken at the four probe points in
    # the call for the first block of the grid.
    probe = 4.0 / math.tan(0.25 * h)
    points = [probe, 2.0 * probe, -probe, -2.0 * probe]
    g, top, at = _mt_integrand(f, t, np.array(points))
    m = [x * complex(v) for x, v in zip(points, at)]
    if abs((2.0 * m[1] - m[0]) - (2.0 * m[3] - m[2])) > 1e-2 * max(top, 1e-300):
        raise ValueError("f decays too slowly for the Malmquist-Takenaka FFT path: "
                         "the substituted integrand jumps at theta = pi")
    spectrum = scipy.fft.fft(g, overwrite_x=True)
    del g
    ratio = _out_of_window(spectrum, N // 2 + 1, 3 * N // 2 + 1)
    if ratio <= _TAIL_TOL:
        del t  # the odd grid is not needed; free it before the window is copied
        vals = _mt_window(spectrum, N)
        del spectrum
        phase = _half_step_phase(N, h)
        samples, weight = 2 * N, 2.0 * h
    else:
        vals = _mt_window(spectrum, N)
        del spectrum
        np.negative(t[::-1], out=t)
        g, _, _ = _mt_integrand(f, t)
        del t
        odd = _mt_window(scipy.fft.fft(g, overwrite_x=True), N)
        del g
        # the odd points are theta_{2k} + h, so the 4N bin n is the butterfly
        # E_n + e^{-inh} O_n, with e^{-inh} the phase applied twice
        phase = _half_step_phase(N, h)
        odd *= phase
        odd *= phase
        vals += odd
        del odd
        samples, weight = M, h
    vals *= phase
    n0 = 1 - N // 2
    by_four = vals.reshape(-1, 4)  # i^n has period 4, and 4 divides N
    by_four *= _I_POWERS[np.arange(n0, n0 + 4) % 4]
    vals *= weight / (2.0 * _SQRT_2PI)
    return CoefficientVector(vals, n0, meta={"method": "mt-fft", "samples": samples,
                                             "out_of_window": ratio})


# (a, b) -> the midpoint transform (the name of a scipy.fft function) and its type
_TANH_CHEB_KINDS = {(0.75, 0.75): ("dst", 2), (0.25, 0.25): ("dct", 2),
                    (0.25, 0.75): ("dct", 4), (0.75, 0.25): ("dst", 4)}

def tanh_cheb_kind(basis) -> tuple[float, float] | None:
    """The (a, b) pair when ``basis`` is one of the four tanh-Chebyshev
    families with a fast transform (tanhjacobi, dilation 2), else None."""
    a, b, s = basis.tanh_jacobi or (0.0, 0.0, 0.0)
    return (a, b) if s == 2.0 and (a, b) in _TANH_CHEB_KINDS else None


def check_tanh_cheb_size(N: int) -> None:
    """Raise ValueError unless ``tanh_chebyshev_coeffs`` takes N: N >= 4."""
    if N < 4:
        raise ValueError("N must be at least 4")


def _tanh_cheb_samples(f, M: int, probes: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """H(theta) = f(atanh(cos theta)) / sqrt(sin theta) on the M-point
    midpoint grid theta_j = (j + 1/2) pi / M, max |H|, and f at ``probes``:
    the points ride at the end of the grid in the one call of f."""
    theta = (np.arange(M // 2) + 0.5) * (math.pi / M)
    # theta_{M-1-j} = pi - theta_j, where x(pi - theta) = -x(theta) and
    # sin(pi - theta) = sin(theta): the lower half of the grid gives both
    x = np.empty(M + probes.size)
    np.log(np.tan(0.5 * theta), out=x[:M // 2])
    np.negative(x[:M // 2], out=x[:M // 2])
    np.negative(x[M // 2 - 1::-1], out=x[M // 2:M])
    x[M:] = probes
    H = np.empty(M)
    np.sqrt(np.sin(theta), out=H[:M // 2])
    H[M // 2:] = H[M // 2 - 1::-1]
    del theta  # before f makes its temporaries
    fx = np.asarray(f(x))
    fx, at_probes = fx[:M], fx[M:].copy()  # a view would keep fx alive
    if np.iscomplexobj(fx) and not np.any(fx.imag):
        fx = fx.real
    if np.iscomplexobj(fx):
        H = fx / H
    else:
        np.divide(fx, H, out=H)
    return H, float(np.abs(H, out=x[:M]).max()), at_probes


def _tanh_cheb_probe(M: int) -> tuple[tuple[float, float], np.ndarray]:
    """The angles theta_0 / 4 and pi - theta_0 / 4, just beyond each end of
    the M-point grid (theta_0 = pi / 2M), and the points x = atanh(cos theta)
    at them."""
    th0 = 0.25 * (0.5 * (math.pi / M))
    angles = (th0, math.pi - th0)
    return angles, np.array([-math.log(math.tan(0.5 * th)) for th in angles])


def tanh_chebyshev_coeffs(f, kind: tuple[float, float], N: int) -> CoefficientVector:
    """tanh-Jacobi coefficients for the four Chebyshev kinds by fast transform.

    Substituting tanh x = cos theta maps the inner products to integrals of
    H(theta) = f(atanh(cos theta)) / sqrt(sin theta) against sin((n+1)theta),
    cos(n theta), cos((n+1/2)theta) or sin((n+1/2)theta) for (a,b) = (3/4,3/4),
    (1/4,1/4), (1/4,3/4), (3/4,1/4) respectively, so a midpoint DST-II,
    DCT-II, DCT-IV or DST-IV computes N coefficients in O(N log N).

    H keeps algebraic theta^{k-1/2} endpoint behavior when f ~ e^{-k|x|}, so
    the midpoint rule converges only algebraically there; a floor of 1024
    points keeps that regime at the 1e-9 level.  The rule is taken on
    M = max(2N, 1024) points first.  Its transform also gives the M - N bins
    past the window, which estimate the coefficients beyond it; if the
    largest is at most 1e-14 of the largest window bin (the tolerance of
    ``mt_coeffs_fft``), the M-point result is returned.  Otherwise f is
    sampled afresh at M = max(4N, 1024) and that rule's result is returned.
    The 2N midpoint grid is not part of the 4N one, so nothing is reused: a
    fallback costs the 4N rule plus the 2N pass, about 1.5 times the 4N rule
    alone.  For N <= 256 both sizes are 1024 and f is sampled once.  f must
    act elementwise: it is called once per sampled grid, and the first call
    carries the two points of the decay test (below) appended to its grid,
    so an accepted pass calls f once and a fallback twice.
    ``meta["samples"]`` is the M returned and ``meta["out_of_window"]`` its
    ratio.

    Blind spot.  On M midpoints, cos(n theta) takes the values of
    -cos((2M - n) theta), so the DCT-II window (bins k < N) collects the
    aliases of n >= 2M - N + 1, while bins N..M-1 see every n from N to
    2M - N except n = M, which vanishes on the grid.  Content only from
    n = 2M - N + 1 on, with the band N..2M - N empty, aliases into the
    window unseen: beyond 3N for the 2N rule, 7N for the 4N rule.  The
    DST-II rows sin((n+1) theta) shift this by two, to n >= 2M - N - 1.
    DCT-IV and DST-IV (frequencies n + 1/2) alias n into bin 2M - 1 - n:
    the tested band is N..2M - N - 1 and the blind spot starts at 2M - N
    (3N and 7N).

    The decay test probes H at a quarter of the first 4N-grid angle beyond
    each end: a value above 1.2 times the on-grid maximum means f decays
    more slowly than e^{-|x|/2}, H blows up, and the transform raises
    ValueError.  A 2N pass whose probe fails falls back, and the 4N grid's
    own maximum decides.  A 2N result that stands has H resolved to
    rounding, so |H| at the probe is within a few percent of the 2N and 4N
    grid maxima and the 4N test would pass too: the error is raised for
    the same f as by the 4N rule alone, short of content in the blind spot.
    """
    a, b = float(kind[0]), float(kind[1])
    if (a, b) not in _TANH_CHEB_KINDS:
        raise ValueError("kind must be one of (1/4,1/4), (1/4,3/4), (3/4,1/4), (3/4,3/4)")
    check_tanh_cheb_size(N)
    import scipy.fft

    name, order = _TANH_CHEB_KINDS[(a, b)]
    transform = getattr(scipy.fft, name)
    M = max(4 * N, 1024)
    angles, probes = _tanh_cheb_probe(M)
    # the 2N pass, then the 4N rule unless the 2N result stands; for
    # N <= 256 the first size is already M and the loop ends after it.  The
    # probe points ride in the first pass's call of f.
    for size in (max(2 * N, 1024), M):
        H, top, at_probes = _tanh_cheb_samples(f, size, probes)
        if probes.size:  # the first pass: the largest |H| at the probe points
            probe = 0.0
            for th, v in zip(angles, at_probes):
                probe = max(probe, abs(complex(v) / math.sqrt(math.sin(th))))
            probes = probes[:0]
        blows_up = probe > 1.2 * max(top, 1e-300)
        if size == M and blows_up:
            raise ValueError("f decays too slowly for the tanh-Chebyshev transform path")
        spectrum = transform(H, type=order, overwrite_x=True)
        del H
        ratio = _out_of_window(spectrum, N, size)
        if size == M or (ratio <= _TAIL_TOL and not blows_up):
            break
        del spectrum  # freed before the 4N grid is sampled
    root_s = math.sqrt(2.0 ** (2 * a + 2 * b - 1) * specfun.beta(2 * a, 2 * b))
    scale = math.pi / (2.0 * size) / root_s
    vals = spectrum[:N].copy()
    del spectrum
    vals *= scale if (a, b) == (0.75, 0.75) else scale * math.sqrt(2.0)
    if (a, b) == (0.25, 0.25):
        vals[0] /= math.sqrt(2.0)
    vals[1::2] *= -1.0
    return CoefficientVector(vals, 0, meta={"method": "tanh-chebyshev", "kind": (a, b),
                                            "samples": size, "out_of_window": ratio})


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


def _log_bin_envelope(k: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, log m) at the first largest m of each non-empty bin [lo, hi) of 48
    log-spaced bins over [k_0, k_last + 1), for ascending k and positive m.

    Each non-empty bin is a run of k, so one ``searchsorted`` finds the runs
    and ``np.maximum.reduceat`` their peaks.
    """
    edges = np.geomspace(k[0], k[-1] + 1.0, 49)
    starts = np.flatnonzero(np.diff(np.searchsorted(edges, k, side="right"), prepend=-1))
    peaks = np.maximum.reduceat(m, starts)
    at_peak = np.flatnonzero(m == np.repeat(peaks, np.diff(starts, append=m.size)))
    return k[at_peak[np.searchsorted(at_peak, starts)]], np.array([math.log(v) for v in peaks.tolist()])


# Coefficient magnitudes at or below this are noise to ``decay_fit``.
_DECAY_FLOOR = 1e-13


def decay_fit(coeffs: CoefficientVector, model: str, skip: int = 8) -> DecayFit:
    """Least-squares fit of the coefficient decay envelope.

    The first ``skip`` indices are pre-asymptotic and dropped, magnitudes at
    or below 1e-13 (``_DECAY_FLOOR``) are noise, and the fit runs on
    per-bin envelope maxima (log-spaced bins) so oscillatory or sparse
    coefficient patterns do not bias the slope.  ``model`` is
    "exponential", "algebraic", or "stretched:<p>".  The line
    log m = slope t + intercept is the centred closed form of least
    squares: with dt and dl the deviations of t and log m from their means,
    slope = sum dt dl / sum dt^2, and the line passes through the means.
    """
    model, p = parse_decay_model(model)
    mags = np.abs(coeffs.values)
    idx = coeffs.indices
    if coeffs.n_start < 0:
        # Bilateral window: fold onto |n| and keep the larger magnitude.
        neg, pos = mags[:-coeffs.n_start][::-1], mags[-coeffs.n_start:]  # |n| = 1.., 0..
        folded = np.zeros(max(neg.size, pos.size - 1) + 1)
        folded[:pos.size] = pos
        np.maximum(folded[1:neg.size + 1], neg, out=folded[1:neg.size + 1])
        mags, idx = folded, np.arange(folded.size)

    keep = (idx >= skip) & (mags > _DECAY_FLOOR)
    if int(np.count_nonzero(keep)) < 16:
        raise ValueError("insufficient coefficients above the noise floor for a decay fit")
    k = idx[keep].astype(float)
    m = mags[keep]

    ks, logs = _log_bin_envelope(k, m)

    if model == "exponential":
        t = ks
    elif model == "algebraic":
        t = np.log(ks)
    else:
        t = ks**p
    # the least-squares line about the centroid: slope = sum dt dl / sum dt^2
    t_mean, l_mean = float(np.mean(t)), float(np.mean(logs))
    dt, dl = t - t_mean, logs - l_mean
    slope = float(dt @ dl) / float(dt @ dt)
    intercept = l_mean - slope * t_mean
    fitted = slope * t + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum(dl ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    if model == "exponential":
        param = math.exp(-slope)
    else:
        param = -slope
    return DecayFit(model, float(param), math.exp(float(intercept)),
                    float(r2), int(ks.size), p)
