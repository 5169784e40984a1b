"""Gamma-family and half-integer Bessel evaluations used by weight functions."""

import math

import numpy as np
from scipy.special import loggamma as _loggamma

__all__ = ["gamma", "log_gamma", "beta", "gamma_abs2", "bessel_j_half"]


def gamma(x: float) -> float:
    """Gamma function on the positive half line."""
    if x <= 0.0:
        raise ValueError("gamma requires x > 0")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError("log_gamma requires x > 0")
    return math.lgamma(x)


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), stable in logs."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("beta requires a > 0 and b > 0")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def gamma_abs2(a: float, xi):
    """|Gamma(a + i xi)|**2 for a > 0, vectorized in xi.

    Computed as exp(2 Re log Gamma(a + i xi)); decays like
    2 pi |xi|^(2a-1) e^(-pi |xi|) for large |xi|.
    """
    if a <= 0.0:
        raise ValueError("gamma_abs2 requires a > 0")
    z = a + 1j * np.asarray(xi, dtype=float)
    out = np.exp(2.0 * np.real(_loggamma(z)))
    if np.isscalar(xi):
        return float(out)
    return out


def gamma_pair_phase(a: float, b: float, xi):
    """arg( Gamma(a + i xi) Gamma(b - i xi) ), vectorized in xi."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("gamma_pair_phase requires a > 0 and b > 0")
    z = np.asarray(xi, dtype=float)
    ph = np.imag(_loggamma(a + 1j * z)) + np.imag(_loggamma(b - 1j * z))
    if np.isscalar(xi):
        return float(ph)
    return ph


def _sph_forward(m: int, x: np.ndarray) -> np.ndarray:
    """Spherical Bessel j_m by forward recurrence; stable for x >= m."""
    s = np.sin(x)
    j0 = s / x
    if m == 0:
        return j0
    j1 = s / x**2 - np.cos(x) / x
    if m == 1:
        return j1
    jm1, jm = j0, j1
    for k in range(1, m):
        jm1, jm = jm, (2 * k + 1) / x * jm - jm1
    return jm


def _sph_backward(m: int, x: np.ndarray) -> np.ndarray:
    """Spherical Bessel j_m by Miller's downward recurrence.

    The recurrence ends on values proportional to (j_0, j_1); the scale is
    their least-squares fit to the closed forms of both, so it stays exact
    where j_0 = sin(x)/x vanishes (x = k pi).  The fit runs on copies scaled
    by a power of two, which keeps the squares finite.
    """
    start = m + int(np.ceil(np.sqrt(40.0 * (m + 1)))) + 18
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-155)
    target = np.zeros_like(x)
    for k in range(start, 0, -1):
        jp, jc = jc, (2 * k + 1) / x * jc - jp
        if k - 1 == m:
            target = jc.copy()
        big = np.abs(jc) > 1e250
        if np.any(big):
            jp = np.where(big, jp * 1e-250, jp)
            jc = np.where(big, jc * 1e-250, jc)
            target = np.where(big, target * 1e-250, target)
    _, e = np.frexp(np.maximum(np.abs(jc), np.abs(jp)))
    jc = np.ldexp(jc, -e)
    jp = np.ldexp(jp, -e)
    s = np.sin(x)
    j0 = s / x
    j1 = s / x**2 - np.cos(x) / x
    scale = (j0 * jc + j1 * jp) / (jc * jc + jp * jp)
    return target * np.ldexp(scale, -e)


def bessel_j_half(m: int, x):
    """Bessel function J_{m+1/2}(x) for integer m >= 0 and x > 0.

    Uses the closed trigonometric forms of the spherical Bessel functions:
    forward recurrence from j_0 = sin(x)/x where it is stable (x >= m),
    downward (Miller) recurrence fitted to j_0 and j_1 otherwise.  Absolute
    accuracy ~1e-12 * (1 + |J|).
    """
    if m < 0:
        raise ValueError("order index m must be >= 0")
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0.0):
        raise ValueError("bessel_j_half requires x > 0; use parity for x < 0")
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    out = np.empty_like(xs)
    fwd = xs >= max(m, 1)
    if np.any(fwd):
        out[fwd] = _sph_forward(m, xs[fwd])
    if np.any(~fwd):
        out[~fwd] = _sph_backward(m, xs[~fwd])
    out *= np.sqrt(2.0 * xs / np.pi)
    return float(out[0]) if scalar else out
