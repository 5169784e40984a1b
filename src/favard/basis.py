"""Orthonormal function systems obtained by transforming weighted polynomials.

Each basis pairs a unit-mass measure w(xi) d xi with its orthonormal
polynomials p_n and represents

    phi_n(x) = (i^n / sqrt(2 pi)) * integral e^{i x xi} p_n(xi) sqrt(w(xi)) d xi,

which satisfies phi_n' = -b_{n-1} phi_{n-1} + i c_n phi_n + b_n phi_{n+1}
with the recurrence coefficients of p_n.  Families with known closed forms
(Hermite, Legendre, Malmquist-Takenaka, tanh-Jacobi) evaluate those
directly; everything else goes through oscillatory quadrature.  The
continuous Hahn families conthahn:a,b and tanhjacobi:a,b are one measure
at dilations 1 and 2, so both take the tanh-Jacobi table.

Each closed family has one table scan: ``*_table(nmax, x)`` returns rows
0..nmax from a single sweep in n (a three-term recurrence for Hermite,
Legendre and tanh-Jacobi, one broadcast expression for
Malmquist-Takenaka).  A single row is a copy of row n of the table at
nmax = n, so it holds (n+1) len(x) values while it runs; for nmax > n row
n agrees with it at rounding level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import recurrence as rec
from . import specfun
from .diffop import _I_POWERS
from .quadrature import oscillatory_transform
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
    "transformed_legendre_table",
    "malmquist_takenaka",
    "tanh_jacobi",
    "tanh_jacobi_table",
]

_PHI0_HERMITE = math.pi ** -0.25
# e^{-x^2/2} < 2^{-3e15} beyond this, far below anything the recurrence's
# growth of at most 27 bits per step can lift back into range.
_HERMITE_CLAMP = 2.0**26
# Bound, in bits, on the growth of the carried mantissas between two
# rescalings: they stay below 2^960, so no product of a step overflows.
_HERMITE_BUDGET = 960.0
# Past this 1 + 4 x^2 rounds to 4 x^2, whose square root is 2|x| exactly.
_MT_BIG = 2.0**26


def hermite_function_table(nmax: int, x) -> np.ndarray:
    """All Hermite functions 0..nmax on a grid, shape (nmax+1, len(x)).

    One sweep of the Hermite-function recurrence in mantissa/exponent form:
    phi_{k+1} = -x sqrt(2/(k+1)) phi_k - sqrt(k/(k+1)) phi_{k-1}, seeded by
    phi_0 = pi^{-1/4} e^{-x^2/2}.  Values are carried as m * 2^e with a
    shared per-point exponent so the seed never underflows the recurrence;
    a materialized row is m 2^e rounded once (true subnormals may round to 0).
    |x| is clamped to _HERMITE_CLAMP first: every row is 0.0 beyond it, and
    the clamp keeps x^2 finite and the exponent inside int64.

    Step k grows max(|m_{k+1}|, |m_k|) by at most the factor
    max|x| sqrt(2/(k+1)) + sqrt(k/(k+1)) + 1, so the mantissas are rescaled
    only when those bounds, summed since the last rescale, would pass
    _HERMITE_BUDGET.  A rescale divides each point by the power of two that
    brings max(|m_k|, |m_{k-1}|) below 1 and never multiplies: points near
    x = 0, whose odd rows are subnormal for subnormal x, keep their scale.
    Every other mantissa stays normal, so the rows equal those of any other
    power-of-two rescaling bit for bit.

    The per-degree scalars and growth bounds are arrays made before the
    sweep, and row k + 1 of the table is seeded there with
    -x sqrt(2/(k+1)), so a step is three in-place products on its row.
    Each step writes its mantissa row straight into the table, and a row m
    2^e is formed there as (m 2^(e+1022)) 2^-1022, not by ldexp, which
    costs about ten multiplications: |m 2^e| <= 1, so the first product
    cannot overflow and is exact unless the row is below 2^-2044, and the
    second rounds once, as ldexp does; a row that small is 0.0 either way.
    The exponents change only at a rescale, so the lift runs once per
    segment of rows between two rescales, on the whole segment.
    """
    if nmax < 0:
        raise ValueError("index nmax must be >= 0")
    x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)).ravel(), -_HERMITE_CLAMP, _HERMITE_CLAMP)
    t = -x * x / (2.0 * math.log(2.0))
    e = np.floor(t)
    rows = np.empty((nmax + 1, x.size))
    cur = np.multiply(_PHI0_HERMITE, np.exp2(t - e), out=rows[0])
    exps = e.astype(np.int64)
    prev = np.zeros_like(cur)
    term = np.empty_like(cur)
    deg = np.arange(nmax, dtype=float)
    s, r = np.sqrt(2.0 / (deg + 1.0)), np.sqrt(deg / (deg + 1.0))
    reach = float(np.max(np.abs(x), initial=0.0))
    steps = np.log2(reach * s + r + 1.0).tolist()
    r = r.tolist()
    np.multiply(s[:, None], np.negative(x, out=t), out=rows[1:])

    def lift(segment):
        """m 2^e in place on the rows of one segment."""
        segment *= np.ldexp(1.0, exps + 1022)
        segment *= 2.0**-1022

    first = 0  # the first row of the current segment
    bits = 1.0  # the seed mantissa is below 2
    for k in range(nmax):
        step = steps[k]
        if bits + step > _HERMITE_BUDGET:
            mag = np.maximum(np.abs(cur), np.abs(prev))
            shift = np.maximum(np.frexp(mag)[1], 0).astype(np.int64)
            cur, prev = np.ldexp(cur, -shift), np.ldexp(prev, -shift)
            lift(rows[first:k + 1])
            exps += shift
            first = k + 1
            bits = 0.0
        bits += step
        nxt = rows[k + 1]
        nxt *= cur
        np.multiply(prev, r[k], out=term)
        nxt -= term
        prev, cur = cur, nxt
    lift(rows[first:])
    return rows


def hermite_function(n: int, x):
    """Hermite function (-1)^n (2^n n!)^{-1/2} pi^{-1/4} e^{-x^2/2} H_n(x)."""
    if n < 0:
        raise ValueError("index n must be >= 0")
    return _row(hermite_function_table(n, x)[n], x)


def _row(row: np.ndarray, x):
    """A copy of a table row in the shape of x, so the table is freed on
    return; a Python float or complex for a scalar x."""
    xs = np.asarray(x)
    return row[0].item() if xs.ndim == 0 else row.reshape(xs.shape).copy()


def transformed_legendre_table(nmax: int, x) -> np.ndarray:
    """All transformed Legendre functions 0..nmax on a grid, shape (nmax+1, len(x)).

    One spherical Bessel sweep in |x|: phi_n(x) = (-1)^n sqrt((2n+1)/pi) j_n(x),
    and phi_n(-x) = (-1)^n phi_n(x).
    """
    if nmax < 0:
        raise ValueError("index nmax must be >= 0")
    flat = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    # scaled and signed in place, with no second table-sized temporary
    rows = specfun._sph_scan(nmax, np.abs(flat))
    rows *= np.sqrt((2.0 * np.arange(nmax + 1) + 1.0) / math.pi)[:, None]
    where = flat > 0.0
    for row in rows[1::2]:
        np.negative(row, out=row, where=where)
    return rows


def transformed_legendre(n: int, x):
    """Bandlimited Legendre system (-1)^n sqrt((n+1/2)/x) J_{n+1/2}(x)."""
    if n < 0:
        raise ValueError("index n must be >= 0")
    return _row(transformed_legendre_table(n, x)[n], x)


def malmquist_takenaka(n, x):
    """Malmquist-Takenaka function sqrt(2/pi) i^n (1+2ix)^n / (1-2ix)^{n+1}.

    Valid for any integer n (negative included); evaluated in polar form so
    large |n| stays stable.  |phi_n(x)| = sqrt(2/pi) / sqrt(1+4x^2).  An
    integer array n broadcasts against x.
    """
    xs = np.asarray(x, dtype=float)
    alpha = np.arctan(2.0 * xs)
    ax = np.abs(xs)
    small = np.minimum(ax, _MT_BIG)  # keeps the square finite
    r = np.where(ax > _MT_BIG, 2.0 * ax, np.sqrt(1.0 + 4.0 * small * small))
    out = math.sqrt(2.0 / math.pi) * np.exp(1j * ((2 * n + 1) * alpha + n * math.pi / 2)) / r
    return complex(out) if out.ndim == 0 else out


def _mt_table(nmax: int, x) -> np.ndarray:
    return malmquist_takenaka(np.arange(nmax + 1)[:, None], x)


def _mt_theta_grid(N: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The N-point midpoint grid of the substitution x = tan(theta/2)/2.

    Returns the step h = 2 pi / N, the angles theta_j = -pi + (j + 1/2) h
    and the points x_j = tan(theta_j / 2) / 2: the grid avoids theta = +-pi,
    where x is infinite.  On it every phi_n is e^{i n theta_j} times a
    factor common to all n.
    """
    h = 2.0 * math.pi / N
    theta = -math.pi + (np.arange(N) + 0.5) * h
    return h, theta, 0.5 * np.tan(0.5 * theta)


@lru_cache(maxsize=32)
def _tanh_jacobi_polys(a: float, b: float, N: int) -> JacobiMatrix:
    return rec.jacobi_poly_coeffs(2.0 * a - 1.0, 2.0 * b - 1.0, N)


def _tanh_jacobi_matrix(a: float, b: float, nmax: int) -> JacobiMatrix:
    """The cached Jacobi(2a-1, 2b-1) matrix covering degree nmax, its size a power of two."""
    size = 8
    while size < nmax + 1:
        size *= 2
    return _tanh_jacobi_polys(float(a), float(b), size)


def _tanh_jacobi_scan(a: float, b: float, nmax: int, x, s: float = 2.0) -> np.ndarray:
    """tanh-Jacobi rows 0..nmax at dilation s: one polynomial scan in tanh y times one envelope.

    The rows are sqrt(s/2) phi_n(y) at y = s x / 2, the transform of
    ``rec.conthahn_measure(a, b, s)``: s = 2 is ``tanh_jacobi`` itself, where
    both factors are exactly 1.0, and s = 1 is conthahn:a,b.
    """
    if a <= 0 or b <= 0:
        raise ValueError("tanh_jacobi requires a > 0 and b > 0")
    if nmax < 0:
        raise ValueError("index n must be >= 0")
    jac = _tanh_jacobi_matrix(a, b, nmax)
    y = np.atleast_1d(np.asarray(x, dtype=float)).ravel() * (0.5 * s)
    with np.errstate(over="ignore"):
        lo = 2.0 / (np.exp(2.0 * y) + 1.0)   # 1 - tanh(y), no cancellation
        hi = 2.0 / (np.exp(-2.0 * y) + 1.0)  # 1 + tanh(y)
    norm = math.sqrt(2.0 ** (2 * a + 2 * b - 1) * specfun.beta(2 * a, 2 * b) * (2.0 / s))
    envelope = lo**a * hi**b / norm
    t = np.tanh(y)
    rows = rec.eval_poly_table(jac, nmax, t)
    rows *= envelope
    rows[1::2] *= -1.0
    return rows


def tanh_jacobi(a: float, b: float, n: int, x):
    """Exponentially-weighted Jacobi system on the real line.

    phi_n(x) = (-1)^n (1-tanh x)^a (1+tanh x)^b p_n(tanh x) / sqrt(S) with
    p_n the orthonormal Jacobi(2a-1, 2b-1) polynomial and the constant
    S = 2^{2a+2b-1} B(2a, 2b) making the L2 norm one.  Decays like
    e^{-2a x} as x -> +inf and e^{2b x} as x -> -inf.
    """
    return _row(tanh_jacobi_table(a, b, n, x)[n], x)


def tanh_jacobi_table(a: float, b: float, nmax: int, x) -> np.ndarray:
    """All tanh-Jacobi functions 0..nmax on a grid, shape (nmax+1, len(x))."""
    return _tanh_jacobi_scan(a, b, nmax, x)


@dataclass(eq=False)
class TransformedBasis:
    """A measure, its recurrence coefficients, and evaluation strategy.

    ``jacobi`` grows on demand through ``coeff_source`` when higher indices
    are requested.  ``closed_table(nmax, x)`` short-circuits quadrature when
    the family has an explicit formula: it returns rows 0..nmax, shape
    (nmax+1, len(x)), from the family's one table scan, and ``phi(basis, n,
    x)`` is row n of it at nmax = n, so it equals ``phi_grid(basis, n, x)[n]``
    bit for bit at a transient cost of (n+1) len(x) values.  ``bilateral``
    marks families indexed over all integers (Malmquist-Takenaka), whose
    rows n < 0 ``phi`` takes from ``malmquist_takenaka``.  ``sigma`` is an
    optional real phase baked into the transform: the integrand carries
    e^{i sigma(xi)}, which changes neither orthonormality nor the
    differentiation matrix.
    ``tanh_jacobi`` is (a, b, s) for the tanh-Jacobi family at dilation s
    (conthahn:a,b at s = 1, tanhjacobi:a,b at s = 2), else None.
    """

    family: str
    measure: MeasureSpec
    jacobi: JacobiMatrix
    coeff_source: Callable[[int], JacobiMatrix] | None = None
    closed_table: Callable | None = None
    sigma: Callable | None = None
    bilateral: bool = False
    tanh_jacobi: tuple[float, float, float] | None = None
    # Strang set-up per size N, valid for the jacobi stored under "jacobi";
    # filled and emptied by schrodinger._strang_setup.
    _strang: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _closed_route(basis: TransformedBasis, method: str, available: bool) -> bool:
    """Whether ``method`` takes the closed form; raises if that route does not exist."""
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed" and not available:
        raise ValueError(f"basis {basis.family!r} has no closed form for this call")
    return available and method != "quadrature"


def phi(basis: TransformedBasis, n: int, x, method: str = "auto"):
    """Evaluate phi_n at scalar or array x; returns complex values.

    ``method`` is as for ``phi_grid``, and the value is row n of
    ``phi_grid(basis, n, x, method=method)``: on the closed route the
    last row of the family's table scan, on the quadrature route one
    transform over all of x.  Negative n is admitted only for bilateral
    families, and only on the closed route, where it is
    ``malmquist_takenaka(n, x)``.
    """
    if n < 0:
        if not basis.bilateral:
            raise ValueError("negative index on a one-sided basis")
        if not _closed_route(basis, method, basis.closed_table is not None):
            raise ValueError("quadrature path is defined for n >= 0 only")
        return malmquist_takenaka(n, x)
    return _row(phi_grid(basis, n, x, method=method)[n], x)


def phi_grid(basis: TransformedBasis, nmax: int, x, sigma=None,
             method: str = "auto") -> np.ndarray:
    """Evaluate phi_0..phi_nmax on a grid at once; shape (nmax+1, len(x)).

    ``method`` is "auto" (the closed form when the family has one),
    "closed" or "quadrature"; "closed" raises for a family without a closed
    form or with a phase ``sigma``, which only quadrature carries, so "auto"
    takes quadrature under any phase.  The closed route returns
    ``basis.closed_table(nmax, x)``.  The quadrature route is one call of
    ``quadrature.oscillatory_transform`` with the basis's phase and
    ``sigma`` combined, which sizes its rule itself and resolves any phase
    by refinement.  When the measure is symmetric and no phase is combined
    in, the transform folds onto the half rule [0, hi].  Row n is
    multiplied by i^n.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if _closed_route(basis, method, basis.closed_table is not None and sigma is None):
        return np.asarray(basis.closed_table(nmax, xs), dtype=complex)
    basis.ensure(nmax)
    rows = oscillatory_transform(basis.jacobi, nmax, basis.measure, xs,
                                 phase=_combine_sigma(basis, sigma))
    rows *= _I_POWERS[np.arange(nmax + 1) % 4][:, None]
    return rows


def phi_with_phase(basis: TransformedBasis, sigma, n: int, x):
    """phi_n with an extra unimodular factor e^{i sigma(xi)} in the integrand.

    Any real sigma preserves orthonormality and the differential-recurrence
    coefficients; sigma(xi) = xi*s translates the basis, sigma(xi) = -xi^2*t
    performs free Schroedinger evolution.  The value is row n of
    ``phi_grid(basis, n, x, sigma=sigma)``: quadrature under a phase, and
    the closed table, where the family has one, for sigma None.
    """
    if n < 0:
        raise ValueError("index n must be >= 0")
    return _row(phi_grid(basis, n, x, sigma=sigma)[n], x)


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
    in the periodic module.  conthahn and tanhjacobi are the continuous Hahn
    measure at dilation s = 1 and 2; this is the only place that maps their
    names to (a, b, s), which the basis carries as ``tanh_jacobi``.
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
                                coeff_source=source, closed_table=hermite_function_table)
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
                                coeff_source=source, closed_table=transformed_legendre_table)
    if head == "ultraspherical":
        alpha, = _parse_params(family, tail, 1)
        source = lambda M: rec.build_jacobi(lambda n: rec.ultraspherical_coeffs(alpha, n), M)
        closed = alpha == 0.0  # the Legendre measure
        return TransformedBasis(family, rec.ultraspherical_measure(alpha), source(N),
                                coeff_source=source,
                                closed_table=transformed_legendre_table if closed else None)
    if head == "jacobi":
        alpha, beta = _parse_params(family, tail, 2)
        source = lambda M: rec.jacobi_poly_coeffs(alpha, beta, M)
        return TransformedBasis(family, rec.jacobi_measure(alpha, beta), source(N),
                                coeff_source=source)
    if head == "laguerre":
        alpha = _parse_params(family, tail, 1)[0] if tail else 0.0
        source = lambda M: rec.build_jacobi(lambda n: rec.laguerre_coeffs(alpha, n), M)
        closed = alpha == 0.0  # the Malmquist-Takenaka measure
        return TransformedBasis(family, rec.laguerre_measure(alpha), source(N),
                                coeff_source=source,
                                closed_table=_mt_table if closed else None)
    if head == "mt":
        if tail:
            raise ValueError("mt takes no parameters")
        source = lambda M: rec.build_jacobi(lambda n: rec.laguerre_coeffs(0.0, n), M)
        return TransformedBasis("mt", rec.laguerre_measure(0.0), source(N),
                                coeff_source=source, closed_table=_mt_table,
                                bilateral=True)
    if head in ("conthahn", "tanhjacobi"):
        # one measure at two dilations, so one closed table: the conthahn
        # row at x is 2^{-1/2} times the tanhjacobi row at x / 2
        a, b = _parse_params(family, tail, 2)
        s = 1.0 if head == "conthahn" else 2.0
        source = lambda M: rec.build_jacobi(lambda n: rec.conthahn_coeffs(a, b, n, s), M)
        # For a != b the real-valued system uses the complex square root
        # Gamma(a+i xi/s) Gamma(b-i xi/s), i.e. the canonical transform with
        # the phase of that product; for a = b the phase vanishes identically.
        sig = None if a == b else (lambda xi: specfun.gamma_pair_phase(a, b, xi / s))
        return TransformedBasis(family, rec.conthahn_measure(a, b, s), source(N),
                                coeff_source=source,
                                closed_table=lambda nmax, x: _tanh_jacobi_scan(a, b, nmax, x, s),
                                sigma=sig, tanh_jacobi=(a, b, s))
    if head == "custom-weight":
        if not tail:
            raise ValueError("custom-weight needs an expression")
        from . import expr as _expr
        weight_fn = _expr.compile_function(tail)
        measure = rec.custom_measure(weight_fn)
        source = lambda M: rec.stieltjes(measure, M)
        return TransformedBasis(family, measure, source(N), coeff_source=source)
    if head == "charlier":
        raise ValueError("charlier generates a periodic system; use the periodic module")
    raise ValueError(f"unknown family {family!r}")
