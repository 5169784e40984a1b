"""Gamma-family functions used by weight functions, and the spherical Bessel
sweep behind the transformed Legendre system."""

import math

import numpy as np

__all__ = ["beta", "gamma_abs2"]


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), stable in logs."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("beta requires a > 0 and b > 0")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# Largest a at which gamma_abs2 climbs from a closed form.  On the
# 1000-8000 points the weight's callers pass, one climbing step costs about
# 1.5 ns a point and even a = 32 (35-85 ns) beats complex loggamma (85-130
# ns); on 256 points a step costs 5-10 ns and the two meet near a = 8
# (BENCH_cli_tail.json, layers.climb).
_CLIMB_MAX = 8.0
# Past this |y|, e^(-pi |y|) < e^-700 is near the subnormal range, where it
# keeps too few digits for the climbing products to scale up; those points
# take loggamma.
_CLIMB_FAR = 700.0 / math.pi


def _gamma_abs2_log(a: float, y: np.ndarray) -> np.ndarray:
    from scipy.special import loggamma

    return np.exp(2.0 * np.real(loggamma(a + 1j * y)))


def _gamma_abs2_climb(a: float, y: np.ndarray) -> np.ndarray:
    """|Gamma(a + iy)|^2 for a in {1/2, 1, 3/2, ...}.

    From the closed forms (DLMF 5.4) |Gamma(1/2 + iy)|^2 =
    pi / cosh(pi y) = 2 pi e / (1 + e^2) and |Gamma(1 + iy)|^2 =
    pi y / sinh(pi y) = -2 pi |y| e / expm1(-2 pi |y|) (1 at y = 0), with
    e = e^(-pi |y|), it climbs by |Gamma(s + 1 + iy)|^2 = (s^2 + y^2)
    |Gamma(s + iy)|^2.  e underflows to 0 long before (s^2 + y^2)^(a-1/2)
    can overflow, so the products of a far tail stay 0; points past
    _CLIMB_FAR are taken from loggamma.  The relative error grows as
    pi |y| eps, the rounding of the exponent.
    """
    y = np.abs(y)
    e = np.exp(-math.pi * y)
    if a % 1.0 == 0.5:
        g = 2.0 * math.pi * e / (1.0 + e * e)
        s = 0.5
    else:
        t = 2.0 * math.pi * y
        g = np.divide(t, -np.expm1(-t), out=np.ones_like(t), where=t > 0.0)
        g *= e
        s = 1.0
    y2 = y * y
    while s < a:
        g *= s * s + y2
        s += 1.0
    far = y > _CLIMB_FAR
    if far.any():
        g[far] = _gamma_abs2_log(a, y[far])
    return g


def gamma_abs2(a: float, xi):
    """|Gamma(a + i xi)|**2 for a > 0, vectorized in xi.

    For a in {1/2, 1, 3/2, ...} up to _CLIMB_MAX it climbs from a closed
    form (``_gamma_abs2_climb``); every other a is exp(2 Re log Gamma(a +
    i xi)).  Decays like 2 pi |xi|^(2a-1) e^(-pi |xi|) for large |xi|.
    """
    if a <= 0.0:
        raise ValueError("gamma_abs2 requires a > 0")
    y = np.asarray(xi, dtype=float)
    if a <= _CLIMB_MAX and (2.0 * a) % 1.0 == 0.0:
        out = _gamma_abs2_climb(a, y)
    else:
        out = _gamma_abs2_log(a, y)
    if np.isscalar(xi):
        return float(out)
    return out


def gamma_pair_phase(a: float, b: float, xi):
    """arg( Gamma(a + i xi) Gamma(b - i xi) ), vectorized in xi."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("gamma_pair_phase requires a > 0 and b > 0")
    from scipy.special import loggamma

    z = np.asarray(xi, dtype=float)
    ph = np.imag(loggamma(a + 1j * z)) + np.imag(loggamma(b - 1j * z))
    if np.isscalar(xi):
        return float(ph)
    return ph


_SPH_BIG = 2.0**830
# Below this x^2 / 6 is under half an ulp of 1, so j_n(x) = x^n / (2n+1)!!
# to rounding; far below it the Miller pass, which grows by (2k+1)/x per
# step, would overflow.
_SPH_TINY = 2.0**-27


def _sph_j01(x: np.ndarray, j0: np.ndarray, j1: np.ndarray | None):
    """The closed forms j_0 = sin(x)/x and j_1 = (sin(x)/x - cos(x))/x, in place.

    j1 may be None when j_0 alone is wanted.
    """
    np.sin(x, out=j0)
    j0 /= x
    if j1 is not None:
        np.cos(x, out=j1)
        np.subtract(j0, j1, out=j1)
        j1 /= x
    return j0, j1


def _sph_series(nmax: int, x: np.ndarray, rows: np.ndarray) -> None:
    """Leading terms x^n / (2n+1)!! for 0 < x < _SPH_TINY; they underflow to 0.

    Like every sweep, it fills the rows j_0..j_nmax of ``rows`` in place.
    """
    rows[0] = 1.0
    for k in range(1, nmax + 1):
        np.multiply(rows[k - 1], x / (2 * k + 1), out=rows[k])


def _sph_up(nmax: int, x: np.ndarray, rows: np.ndarray) -> None:
    """Forward recurrence from the closed forms of j_0, j_1; stable for x >= nmax.

    Each step is (2k+1)/x * j_k - j_{k-1}, as in-place ufuncs in that
    order, written into the row of ``rows`` it produces.
    """
    _sph_j01(x, rows[0], rows[1] if nmax > 0 else None)
    for k in range(1, nmax):
        jn = rows[k + 1]
        np.divide(2 * k + 1, x, out=jn)
        jn *= rows[k]
        jn -= rows[k - 1]


def _sph_down(nmax: int, x: np.ndarray, rows: np.ndarray) -> None:
    """Miller's downward recurrence from an index past nmax, for x < nmax.

    Each step is (2k+1)/x * j_k - j_{k+1}, in-place ufuncs in that order,
    written into its row of ``rows`` once it reaches n <= nmax and into a
    scratch buffer before.  Rows are kept on the scale of the running
    values.  When a point's values pass 2^830 they are scaled down by that
    power of two, and so are the rows already kept at that point: one scale
    per point, none per entry.  One max per step tests for this, and the
    mask of the points is built only when it fires.  The recurrence ends on
    values proportional to (j_0, j_1); the common factor is their
    least-squares fit to the closed forms of both, so it stays exact where
    j_0 = sin(x)/x vanishes (x = k pi).  The fit runs on copies scaled by a
    power of two, which keeps the squares finite.
    """
    start = nmax + int(np.ceil(np.sqrt(40.0 * (nmax + 1)))) + 18
    jp = np.zeros_like(x)
    jc = np.full_like(x, 2.0**-512)
    spare, mag = np.empty_like(x), np.empty_like(x)
    for k in range(start, 0, -1):
        n = k - 1
        jn = rows[n] if n <= nmax else spare
        np.divide(2 * k + 1, x, out=jn)
        jn *= jc
        jn -= jp
        # j_{k+1}'s buffer is free for the next step past nmax
        spare, jp, jc = jp, jc, jn
        if np.abs(jc, out=mag).max(initial=0.0) > _SPH_BIG:
            big = mag > _SPH_BIG
            np.divide(jc, _SPH_BIG, out=jc, where=big)
            np.divide(jp, _SPH_BIG, out=jp, where=big)
            if n + 2 <= nmax:
                rows[n + 2:, big] /= _SPH_BIG
    _, e = np.frexp(np.maximum(np.abs(jc), np.abs(jp)))
    jc = np.ldexp(jc, -e)
    jp = np.ldexp(jp, -e)
    j0, j1 = _sph_j01(x, np.empty_like(x), np.empty_like(x))
    scale = (j0 * jc + j1 * jp) / (jc * jc + jp * jp)
    rows *= np.ldexp(scale, -e)


def _run(mask: np.ndarray):
    """The points of ``mask`` as a slice when they form one run, else the mask.

    A slice indexes without the gather and scatter copies of a boolean mask;
    an empty mask gives None.
    """
    count = int(np.count_nonzero(mask))
    if count == 0:
        return None
    first = int(np.argmax(mask))
    if mask[first:first + count].all():
        return slice(first, first + count)
    return mask


def _sph_scan(nmax: int, x: np.ndarray) -> np.ndarray:
    """Spherical Bessel j_0..j_nmax at x >= 0 in one sweep, shape (nmax+1, len(x)).

    Forward recurrence where it is stable (x >= max(nmax, 1)), one Miller
    pass below that down to _SPH_TINY, the leading series term below it,
    and the limits j_0(0) = 1, j_n(0) = 0 at zero.  Every sweep is
    elementwise and fills its rows in place: the points of a branch that
    form one run, as they do on an ascending grid, are a slice of the
    result and are written there directly; scattered points go through a
    block of their own.
    """
    out = np.zeros((nmax + 1, x.size))
    up = x >= max(nmax, 1)
    tiny = (x > 0.0) & (x < _SPH_TINY)
    down = (x >= _SPH_TINY) & ~up
    for part, sweep in ((up, _sph_up), (down, _sph_down), (tiny, _sph_series)):
        sel = _run(part)
        if sel is None:
            continue
        if isinstance(sel, slice):
            sweep(nmax, x[sel], out[:, sel])
        else:
            block = np.empty((nmax + 1, np.count_nonzero(sel)))
            sweep(nmax, x[sel], block)
            out[:, sel] = block
    out[0, x == 0.0] = 1.0
    return out
