"""Orthonormal function systems obtained by transforming weighted polynomials.

Each basis pairs a unit-mass measure w(xi) d xi with its orthonormal
polynomials p_n and represents

    phi_n(x) = (i^n / sqrt(2 pi)) * integral e^{i x xi} p_n(xi) sqrt(w(xi)) d xi,

which satisfies phi_n' = -b_{n-1} phi_{n-1} + i c_n phi_n + b_n phi_{n+1}
with the recurrence coefficients of p_n.  Families with known closed forms
(Hermite, Legendre, Malmquist-Takenaka, tanh-Jacobi) evaluate those
directly; everything else goes through oscillatory quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import recurrence as rec
from . import specfun
from .errors import AccuracyError
from .quadrature import _SQRT_2PI, _transform_nodes, oscillatory_transform
from .recurrence import JacobiMatrix, MeasureSpec

__all__ = [
    "TransformedBasis",
    "make_basis",
    "phi",
    "phi_grid",
    "phi_with_phase",
    "hermite_function",
    "hermite_function_table",
    "transformed_legendre",
    "malmquist_takenaka",
    "tanh_jacobi",
]

_PHI0_HERMITE = math.pi ** -0.25


def _hermite_scan(nmax: int, x: np.ndarray, collect: bool):
    """Run the Hermite-function recurrence in mantissa/exponent form.

    phi_{k+1} = -x sqrt(2/(k+1)) phi_k - sqrt(k/(k+1)) phi_{k-1}, seeded by
    phi_0 = pi^{-1/4} e^{-x^2/2}.  Values are carried as m * 2^e with a
    shared per-point exponent so the seed never underflows the recurrence;
    materialized rows use ldexp (harmlessly flushing true subnormals to 0).
    """
    t = -x * x / (2.0 * math.log(2.0))
    e = np.floor(t)
    cur = _PHI0_HERMITE * np.exp2(t - e)
    prev = np.zeros_like(cur)
    rows = np.empty((nmax + 1, x.size)) if collect else None
    if collect:
        rows[0] = np.ldexp(cur, e.astype(np.int64))
    for k in range(nmax):
        prev, cur = cur, -x * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1.0)) * prev
        mag = np.maximum(np.abs(cur), np.abs(prev))
        high = mag > 2.0**500
        low = (mag < 2.0**-500) & (mag > 0)
        if np.any(high):
            cur = np.where(high, cur * 2.0**-512, cur)
            prev = np.where(high, prev * 2.0**-512, prev)
            e = np.where(high, e + 512, e)
        if np.any(low):
            cur = np.where(low, cur * 2.0**512, cur)
            prev = np.where(low, prev * 2.0**512, prev)
            e = np.where(low, e - 512, e)
        if collect:
            rows[k + 1] = np.ldexp(cur, e.astype(np.int64))
    if collect:
        return rows
    return np.ldexp(cur, e.astype(np.int64))


def hermite_function(n: int, x):
    """Hermite function (-1)^n (2^n n!)^{-1/2} pi^{-1/4} e^{-x^2/2} H_n(x)."""
    if n < 0:
        raise ValueError("index n must be >= 0")
    xs = np.asarray(x, dtype=float)
    out = _hermite_scan(n, np.atleast_1d(xs).ravel(), collect=False)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def hermite_function_table(nmax: int, x) -> np.ndarray:
    """All Hermite functions 0..nmax on a grid, shape (nmax+1, len(x))."""
    if nmax < 0:
        raise ValueError("index nmax must be >= 0")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return _hermite_scan(nmax, xs.ravel(), collect=True)


def transformed_legendre(n: int, x):
    """Bandlimited Legendre system (-1)^n sqrt((n+1/2)/x) J_{n+1/2}(x)."""
    if n < 0:
        raise ValueError("index n must be >= 0")
    xs = np.asarray(x, dtype=float)
    ax = np.abs(np.atleast_1d(xs)).ravel()
    out = np.empty_like(ax)
    at_zero = ax == 0.0
    if np.any(~at_zero):
        j = specfun.bessel_j_half(n, ax[~at_zero])
        out[~at_zero] = (-1) ** n * math.sqrt(n + 0.5) * j / np.sqrt(ax[~at_zero])
    out[at_zero] = 1.0 / math.sqrt(math.pi) if n == 0 else 0.0
    neg = np.atleast_1d(xs).ravel() < 0
    out[neg] *= (-1) ** n
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def malmquist_takenaka(n: int, x):
    """Malmquist-Takenaka function sqrt(2/pi) i^n (1+2ix)^n / (1-2ix)^{n+1}.

    Valid for any integer n (negative included); evaluated in polar form so
    large |n| stays stable.  |phi_n(x)| = sqrt(2/pi) / sqrt(1+4x^2).
    """
    xs = np.asarray(x, dtype=float)
    alpha = np.arctan(2.0 * xs)
    r = np.sqrt(1.0 + 4.0 * xs * xs)
    out = math.sqrt(2.0 / math.pi) * np.exp(1j * ((2 * n + 1) * alpha + n * math.pi / 2)) / r
    return complex(out) if xs.ndim == 0 else out


@lru_cache(maxsize=32)
def _tanh_jacobi_polys(a: float, b: float, N: int) -> JacobiMatrix:
    return rec.jacobi_poly_coeffs(2.0 * a - 1.0, 2.0 * b - 1.0, N)


def tanh_jacobi(a: float, b: float, n: int, x):
    """Exponentially-weighted Jacobi system on the real line.

    phi_n(x) = (-1)^n (1-tanh x)^a (1+tanh x)^b p_n(tanh x) / sqrt(S) with
    p_n the orthonormal Jacobi(2a-1, 2b-1) polynomial and the constant
    S = 2^{2a+2b-1} B(2a, 2b) making the L2 norm one.  Decays like
    e^{-2a x} as x -> +inf and e^{2b x} as x -> -inf.
    """
    if a <= 0 or b <= 0:
        raise ValueError("tanh_jacobi requires a > 0 and b > 0")
    if n < 0:
        raise ValueError("index n must be >= 0")
    size = 8
    while size < n + 1:
        size *= 2
    jac = _tanh_jacobi_polys(float(a), float(b), size)
    xs = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        lo = 2.0 / (np.exp(2.0 * xs) + 1.0)   # 1 - tanh(x), no cancellation
        hi = 2.0 / (np.exp(-2.0 * xs) + 1.0)  # 1 + tanh(x)
    p = rec.eval_poly(jac, n, np.tanh(xs))
    norm = math.sqrt(2.0 ** (2 * a + 2 * b - 1) * specfun.beta(2 * a, 2 * b))
    out = (-1) ** n * lo**a * hi**b * p / norm
    return float(out) if xs.ndim == 0 else out


@dataclass(eq=False)
class TransformedBasis:
    """A measure, its recurrence coefficients, and evaluation strategy.

    ``jacobi`` grows on demand through ``coeff_source`` when higher indices
    are requested.  ``closed_form(n, x)`` short-circuits quadrature when the
    family has an explicit formula; ``bilateral`` marks families indexed
    over all integers (Malmquist-Takenaka).  ``sigma`` is an optional real
    phase baked into the transform: the integrand carries e^{i sigma(xi)},
    which changes neither orthonormality nor the differentiation matrix.
    """

    family: str
    measure: MeasureSpec
    jacobi: JacobiMatrix
    coeff_source: Callable[[int], JacobiMatrix] | None = None
    closed_form: Callable | None = None
    sigma: Callable | None = None
    bilateral: bool = False

    @property
    def pw_support(self) -> tuple[float, float]:
        return self.measure.support

    def ensure(self, n: int) -> None:
        """Extend the stored recurrence coefficients to cover index n."""
        if n < len(self.jacobi):
            return
        if self.coeff_source is None:
            raise ValueError(f"basis {self.family!r} has no coefficients beyond {len(self.jacobi)}")
        size = max(64, len(self.jacobi))
        while size < n + 1:
            size *= 2
        self.jacobi = self.coeff_source(size)


def _combine_sigma(basis: TransformedBasis, sigma):
    """Fold the basis-level phase into an explicitly requested one."""
    if basis.sigma is None:
        return sigma
    if sigma is None:
        return basis.sigma
    base = basis.sigma
    return lambda xi: base(xi) + sigma(xi)


def _quad_phi(basis: TransformedBasis, n: int, x: float, tol: float,
              sigma=None, extra_freq: float = 0.0) -> complex:
    basis.ensure(n)
    meas = basis.measure
    val = oscillatory_transform(
        lambda xi: rec.eval_poly(basis.jacobi, n, xi),
        lambda xi: np.sqrt(meas.weight(xi)),
        meas.support,
        float(x),
        tol,
        degree=n,
        breakpoints=meas.breakpoints,
        extra_phase=sigma,
        extra_freq=extra_freq,
    )
    return 1j ** (n % 4) * val


def phi(basis: TransformedBasis, n: int, x, tol: float = 1e-10,
        method: str = "auto"):
    """Evaluate phi_n at scalar or array x; returns complex values.

    ``method`` is "auto" (closed form when available), "closed", or
    "quadrature".  Negative n is admitted only for bilateral families.
    """
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if n < 0 and not basis.bilateral:
        raise ValueError("negative index on a one-sided basis")
    if method != "quadrature" and basis.closed_form is not None:
        return np.asarray(basis.closed_form(n, x), dtype=complex)[()]
    if method == "closed":
        raise ValueError(f"basis {basis.family!r} has no closed form")
    if n < 0:
        raise ValueError("quadrature path is defined for n >= 0 only")
    sigma = basis.sigma
    extra = _sigma_freq(basis, sigma, n) if sigma is not None else 0.0
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _quad_phi(basis, n, float(xs), tol, sigma=sigma, extra_freq=extra)
    return np.array([
        _quad_phi(basis, n, xv, tol, sigma=sigma, extra_freq=extra) for xv in xs.ravel()
    ]).reshape(xs.shape)


def phi_grid(basis: TransformedBasis, nmax: int, x, tol: float = 1e-10,
             sigma=None, extra_freq: float = 0.0,
             method: str = "auto") -> np.ndarray:
    """Evaluate phi_0..phi_nmax on a grid at once; shape (nmax+1, len(x)).

    The quadrature route shares one panel rule across all indices and grid
    points (a single matrix product per refinement level), doubling the
    panel count until two levels agree to ``tol``.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if method != "quadrature" and basis.closed_form is not None and sigma is None:
        if basis.closed_form is hermite_function:
            return hermite_function_table(nmax, xs).astype(complex)
        return np.stack([np.asarray(basis.closed_form(n, xs), dtype=complex)
                         for n in range(nmax + 1)])
    basis.ensure(nmax)
    sigma = _combine_sigma(basis, sigma)
    if basis.sigma is not None:
        extra_freq = extra_freq + _sigma_freq(basis, basis.sigma, nmax)
    meas = basis.measure

    def sqrtw(xi):
        return np.sqrt(meas.weight(xi))

    freq = float(np.max(np.abs(xs), initial=0.0)) + extra_freq
    phases = 1j ** (np.arange(nmax + 1) % 4)

    def evaluate(refine: int) -> np.ndarray:
        xi, w = _transform_nodes(meas.support, meas.breakpoints, sqrtw, nmax, freq, refine)
        table = rec.eval_poly_table(basis.jacobi, nmax, xi) * (w * sqrtw(xi))
        shift = sigma(xi) if sigma is not None else 0.0
        out = np.empty((nmax + 1, xs.size), dtype=complex)
        step = max(16, (1 << 21) // max(xi.size, 1))
        for start in range(0, xs.size, step):
            block = xs[start:start + step]
            arg = np.outer(xi, block)
            if sigma is not None:
                arg = arg + shift[:, None]
            # two real products: a real table never turns complex
            out[:, start:start + step] = table @ np.cos(arg) + 1j * (table @ np.sin(arg))
        return phases[:, None] * out / _SQRT_2PI

    prev = evaluate(0)
    est = np.inf
    for refine in range(1, 5):
        cur = evaluate(refine)
        est = float(np.max(np.abs(cur - prev)))
        if est <= tol:
            return cur
        prev = cur
    raise AccuracyError(
        f"basis grid evaluation did not reach tol={tol:g}; estimate {est:g}",
        estimate=est,
    )


def _sigma_freq(basis: TransformedBasis, sigma, degree: int) -> float:
    """Bound max |sigma'| on the truncated support by dense sampling."""
    meas = basis.measure
    lo, hi = rec._truncated_interval(lambda xi: np.sqrt(meas.weight(xi)), meas.support, degree)
    grid = np.linspace(lo, hi, 4097)
    vals = np.asarray(sigma(grid), dtype=float)
    return float(np.max(np.abs(np.gradient(vals, grid))))


def phi_with_phase(basis: TransformedBasis, sigma, n: int, x, tol: float = 1e-10):
    """phi_n with an extra unimodular factor e^{i sigma(xi)} in the integrand.

    Any real sigma preserves orthonormality and the differential-recurrence
    coefficients; sigma(xi) = xi*s translates the basis, sigma(xi) = -xi^2*t
    performs free Schroedinger evolution.
    """
    if n < 0:
        raise ValueError("index n must be >= 0")
    total = _combine_sigma(basis, sigma)
    extra = _sigma_freq(basis, total, n)
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _quad_phi(basis, n, float(xs), tol, sigma=total, extra_freq=extra)
    return np.array([
        _quad_phi(basis, n, xv, tol, sigma=total, extra_freq=extra) for xv in xs.ravel()
    ]).reshape(xs.shape)


def _parse_params(family: str, text: str, count: int) -> list[float]:
    parts = text.split(",") if text else []
    if len(parts) != count:
        raise ValueError(f"family {family!r} expects {count} parameter(s)")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"family {family!r} has non-numeric parameters {text!r}") from None


def make_basis(family: str, N: int = 64) -> TransformedBasis:
    """Construct a named basis.

    Accepted names: ``hermite``, ``genhermite:<eta>``, ``legendre``,
    ``ultraspherical:<alpha>``, ``jacobi:<alpha>,<beta>``,
    ``laguerre:<alpha>`` (or bare ``laguerre``), ``conthahn:<a>,<b>``,
    ``mt``, ``tanhjacobi:<a>,<b>``, ``custom-weight:<expr>`` (a weight
    expression in the variable x).  ``charlier:<a>`` is periodic and lives
    in the periodic module.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    head, _, tail = family.partition(":")
    head = head.strip().lower()
    if head == "hermite":
        if tail:
            raise ValueError("hermite takes no parameters")
        source = lambda M: rec.build_jacobi(rec.hermite_coeffs, M)
        return TransformedBasis("hermite", rec.hermite_measure(), source(N),
                                coeff_source=source, closed_form=hermite_function)
    if head == "genhermite":
        eta, = _parse_params(family, tail, 1)
        source = lambda M: rec.build_jacobi(lambda n: rec.generalized_hermite_coeffs(eta, n), M)
        return TransformedBasis(family, rec.generalized_hermite_measure(eta), source(N),
                                coeff_source=source)
    if head == "legendre":
        if tail:
            raise ValueError("legendre takes no parameters")
        source = lambda M: rec.build_jacobi(lambda n: rec.ultraspherical_coeffs(0.0, n), M)
        return TransformedBasis("legendre", rec.legendre_measure(), source(N),
                                coeff_source=source, closed_form=transformed_legendre)
    if head == "ultraspherical":
        alpha, = _parse_params(family, tail, 1)
        source = lambda M: rec.build_jacobi(lambda n: rec.ultraspherical_coeffs(alpha, n), M)
        closed = transformed_legendre if alpha == 0.0 else None
        return TransformedBasis(family, rec.ultraspherical_measure(alpha), source(N),
                                coeff_source=source, closed_form=closed)
    if head == "jacobi":
        alpha, beta = _parse_params(family, tail, 2)
        source = lambda M: rec.jacobi_poly_coeffs(alpha, beta, M)
        return TransformedBasis(family, rec.jacobi_measure(alpha, beta), source(N),
                                coeff_source=source)
    if head == "laguerre":
        alpha = _parse_params(family, tail, 1)[0] if tail else 0.0
        source = lambda M: rec.build_jacobi(lambda n: rec.laguerre_coeffs(alpha, n), M)
        closed = malmquist_takenaka if alpha == 0.0 else None
        return TransformedBasis(family, rec.laguerre_measure(alpha), source(N),
                                coeff_source=source, closed_form=closed)
    if head == "mt":
        if tail:
            raise ValueError("mt takes no parameters")
        source = lambda M: rec.build_jacobi(lambda n: rec.laguerre_coeffs(0.0, n), M)
        return TransformedBasis("mt", rec.laguerre_measure(0.0), source(N),
                                coeff_source=source, closed_form=malmquist_takenaka,
                                bilateral=True)
    if head == "conthahn":
        a, b = _parse_params(family, tail, 2)
        measure = rec.conthahn_measure(a, b)
        source = lambda M: rec.stieltjes(measure, M)
        # For a != b the real-valued system uses the complex square root
        # Gamma(a+i xi) Gamma(b-i xi), i.e. the canonical transform with the
        # phase of that product; for a = b the phase vanishes identically.
        sig = None if a == b else (lambda xi: specfun.gamma_pair_phase(a, b, xi))
        return TransformedBasis(family, measure, source(N), coeff_source=source,
                                sigma=sig)
    if head == "tanhjacobi":
        a, b = _parse_params(family, tail, 2)
        measure = rec.conthahn_measure(a, b, dilation=2.0)
        source = lambda M: rec.stieltjes(measure, M)
        sig = None if a == b else (lambda xi: specfun.gamma_pair_phase(a, b, xi / 2.0))
        return TransformedBasis(family, measure, source(N), coeff_source=source,
                                closed_form=lambda n, x: tanh_jacobi(a, b, n, x),
                                sigma=sig)
    if head == "custom-weight":
        if not tail:
            raise ValueError("custom-weight needs an expression")
        from . import expr as _expr
        weight_fn = _expr.compile_function(tail, "x")
        measure = rec.custom_measure(weight_fn, name=family)
        source = lambda M: rec.stieltjes(measure, M)
        return TransformedBasis(family, measure, source(N), coeff_source=source)
    if head == "charlier":
        raise ValueError("charlier generates a periodic system; use the periodic module")
    raise ValueError(f"unknown family {family!r}")
