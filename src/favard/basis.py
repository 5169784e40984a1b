"""Orthonormal function systems obtained by transforming weighted polynomials.

Each basis pairs a unit-mass measure w(xi) d xi with its orthonormal
polynomials p_n and represents

    phi_n(x) = (i^n / sqrt(2 pi)) * integral e^{i x xi} p_n(xi) sqrt(w(xi)) d xi,

which satisfies phi_n' = -b_{n-1} phi_{n-1} + i c_n phi_n + b_n phi_{n+1}
with the recurrence coefficients of p_n.  Families with known closed forms
(Hermite, Legendre, Malmquist-Takenaka, tanh-Jacobi) evaluate those
directly; everything else goes through oscillatory quadrature.  The
continuous Hahn families conthahn:a,b and tanhjacobi:a,b are one measure
at dilations 1 and 2, so both take the tanh-Jacobi table.  One table,
``_measure_rules``, gives each measure key its closed table, its exact
Gram rule and its Strang grid pair.

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
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from . import diffop
from . import recurrence as rec
from . import specfun
from .diffop import _I_POWERS
from .quadrature import _SQRT_2PI, _gauss_log_rule, oscillatory_transform
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
# Past this 1 + 4 x^2 rounds to 4 x^2, whose square root is 2|x| exactly.
_MT_BIG = 2.0**26


def hermite_function_table(nmax: int, x) -> np.ndarray:
    """All Hermite functions 0..nmax on a grid, shape (nmax+1, len(x)).

    phi_k = (-1)^k p_k sqrt(w) for the orthonormal p_k of w = e^{-x^2} /
    sqrt(pi): one ``rec._scaled_sweep`` with alternating sign, seeded by phi_0
    = pi^{-1/4} e^{-x^2/2} as the mantissa pi^{-1/4} 2^(t - e) and exponent
    e = floor(t), t = -x^2 / (2 ln 2).  |x| is clamped to _HERMITE_CLAMP
    first: every row is 0.0 beyond it, and x^2 and e stay in range.
    """
    if nmax < 0:
        raise ValueError("index nmax must be >= 0")
    x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)).ravel(), -_HERMITE_CLAMP, _HERMITE_CLAMP)
    t = -x * x / (2.0 * math.log(2.0))
    e = np.floor(t)
    seed = (_PHI0_HERMITE * np.exp2(t - e), e.astype(np.int64))
    return rec._sweep_table(_hermite_matrix(1 << nmax.bit_length()), nmax, x, seed, alternate=True)


# b_k = sqrt((k+1)/2), c_k = 0 for k below a power of two, built once per size
_hermite_matrix = lru_cache(maxsize=16)(
    lambda size: JacobiMatrix(np.sqrt(np.arange(1.0, size + 1.0) * 0.5), np.zeros(size)))


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


def _mt_coefficients(spectrum: np.ndarray, offset: float, n0: int, count: int) -> np.ndarray:
    """<f, phi_n> for n = n0 .. n0 + count - 1 (n0 < 0 < n0 + count <= n0 + M) by the
    M-point midpoint rule on theta_j = -pi + (j + offset) h, h = 2 pi / M, from the FFT
    ``spectrum`` of g = (1 - 2ix) f there: i^n e^{-i n offset h} (h / (2 sqrt(2 pi)))
    spectrum[n mod M], as f conj(phi_n) dx = (-i)^n g e^{-i n theta} d theta / (2 sqrt(2 pi)).

    cos and sin run on |n| over the longer side of n = 0 only, the other side takes
    their conjugates, and the window's two slices multiply that phase in place.
    """
    M, stop = spectrum.size, n0 + count
    h = 2.0 * math.pi / M
    out = np.empty(count, dtype=complex)
    arg = np.arange(max(-n0, stop - 1) + 1) * (offset * h)
    # side[k] and mirror[k - 1] hold n = d k and -d k
    d, side, mirror = ((1, out[-n0:], out[-n0 - 1::-1]) if stop > -n0
                       else (-1, out[-n0::-1], out[1 - n0:]))
    np.cos(arg, out=side.real)
    np.sin(arg, out=arg)
    np.multiply(arg, -d, out=side.imag)
    del arg  # before i^n, whose broadcast product buffers a temporary
    np.conjugate(side[1:mirror.size + 1], out=mirror)
    np.multiply(spectrum[M + n0:], out[:-n0], out=out[:-n0])
    np.multiply(spectrum[:stop], out[-n0:], out=out[-n0:])
    if count % 4:
        out *= _I_POWERS[np.arange(n0, stop) % 4]
    else:  # by fours: i^n has period 4
        out.reshape(-1, 4)[...] *= _I_POWERS[np.arange(n0, n0 + 4) % 4]
    out *= h / (2.0 * _SQRT_2PI)
    return out


@lru_cache(maxsize=32)
def _tanh_jacobi_polys(a: float, b: float, N: int) -> JacobiMatrix:
    return rec.jacobi_poly_coeffs(2.0 * a - 1.0, 2.0 * b - 1.0, N)


def _tanh_jacobi_matrix(a: float, b: float, nmax: int) -> JacobiMatrix:
    """The cached Jacobi(2a-1, 2b-1) matrix covering degree nmax, its size a power of two."""
    return _tanh_jacobi_polys(float(a), float(b), max(8, 1 << int(nmax).bit_length()))


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
    rows = rec._sweep_table(jac, nmax, np.tanh(y), alternate=True)
    rows *= envelope
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
    differentiation matrix.  ``measure.key`` says what the basis is;
    ``family`` is only the spelling it was built from.
    """

    family: str
    measure: MeasureSpec
    jacobi: JacobiMatrix
    coeff_source: Callable[[int], JacobiMatrix] | None = None
    closed_table: Callable | None = None
    sigma: Callable | None = None
    bilateral: bool = False
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
    multiplied by i^n.  A discrete measure (``charlier:<a>``) has no
    quadrature route: ValueError.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if _closed_route(basis, method, basis.closed_table is not None and sigma is None):
        return np.asarray(basis.closed_table(nmax, xs), dtype=complex)
    if basis.measure.kind == "discrete":
        raise ValueError(f"basis {basis.family!r} sits on a lattice: its rows take the "
                         f"closed route only, without a phase")
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


def _hermite_log_weights(jacobi: JacobiMatrix, N: int, nodes=None):
    """Nodes x_i and log weights of the N-point Gauss rule for the Hermite functions.

    Hermite rows (eta = 0) are +-p_n(x) e(x), e^2 = e^{-x^2} / sqrt(pi), so
    w_i = lambda_i / e(x_i)^2 for the Christoffel weights lambda_i, formed
    from log lambda_i (``quadrature._gauss_log_rule``): at the outer nodes
    lambda_i underflows and 1 / e^2 overflows, yet lambda_i p_{N-1}(x_i)^2
    is not small.  ``nodes`` are D's own when given, and are not solved again.
    """
    x, log_w, _ = _gauss_log_rule(jacobi, N, nodes=nodes)
    return x, log_w - 2.0 * (-0.5 * x * x - 0.25 * math.log(math.pi))


def _hermite_rule(basis: TransformedBasis, N: int):
    basis.ensure(N - 1)
    x, log_w = _hermite_log_weights(basis.jacobi, N)
    return x, np.exp(log_w), "gauss-hermite", {"nodes": N}


def _mt_rule(basis: TransformedBasis, N: int):
    """x = tan(theta/2)/2 on N uniform points in theta (``_mt_theta_grid``), where
    phi_m conj(phi_n) dx is (1/2pi) e^{i(m-n)theta} d theta: |m - n| <= N - 1,
    so the trapezoid sum is exact."""
    h, theta, x = _mt_theta_grid(N)
    return x, h * 0.25 / np.cos(0.5 * theta) ** 2, "theta-substitution", {"nodes": N}


def _hahn_rule(basis: TransformedBasis, N: int):
    """The continuous Hahn measure at dilation s has rows +-P_n(t) e(x) at
    t = tanh(s x / 2), e = sqrt(s/2) (1-t)^a (1+t)^b / sqrt(S) its row 0:
    e^2 dx is the unit-mass Jacobi(2a-1, 2b-1) weight in t (dx = (2/s) dy
    cancels the s/2), so the N-point Gauss rule in t serves, with
    w_i = lambda_i / e(x_i)^2 from log lambda_i, at x = (2/s) artanh t."""
    a, b, s = basis.measure.key[1:]
    t, log_w, _ = _gauss_log_rule(_tanh_jacobi_matrix(a, b, N - 1), N)
    x = (2.0 / s) * np.arctanh(t)
    e = _tanh_jacobi_scan(a, b, 0, x, s)[0]  # p_0 = 1: row 0 is e
    return x, np.exp(log_w - 2.0 * np.log(e)), "gauss-jacobi", {"nodes": N}


def _lattice_rule(basis: TransformedBasis, N: int):
    """A lattice system is 2 pi periodic and orthonormal under (1/2pi) dx over
    one period: phi_m conj(phi_n) is a trigonometric polynomial of degree at
    most 2K on the lattice |k| <= K, so the uniform rule on M = 4K > 2K
    points of [-pi, pi), weights 1/M, is exact."""
    K = int(basis.measure.support[1])
    M = 4 * K
    x = 2.0 * math.pi * np.arange(M) / M - math.pi
    return x, np.full(M, 1.0 / M), "trapezoid", {"M": M, "K": K}


def _hermite_grid(basis: TransformedBasis, D: diffop.DiffMatrix):
    """Gauss-Hermite synthesis/analysis pair exact on span{phi_0..phi_{N-1}}.

    The nodes are D's Gauss nodes.  D's eigenvectors are signed so that
    V[k, i] = p_k(x_i) sqrt(lambda_i), and phi_k = (-1)^k p_k sqrt(w), so
    phi_k(x_i) = (-1)^k c_i V[k, i] with c_i = w_i^(-1/2) for the weights
    w_i of the Gram rule (``_hermite_log_weights`` on D's nodes), and the
    grid values c V^T P a (P = diag((-1)^k)) are c times D's coordinates of
    S^-1 a.  When D folds, z(+-x) = (f_0 +- i f_1) / sqrt2 for the pair
    coordinates f of S^-1 a, and f = [E; iO] for [E; O] = enter(sign * a),
    S's real row sign: the grid holds E -+ O at +-x, scaled by c / sqrt2 (by
    c at the centre node 0 of odd N, which is f_0 alone).  Analysis inverts
    synthesis; the weights cancel.  The scale is built on first use, which
    a folded Strang step never makes.  ``rows(grid)`` is phi_0..phi_{N-1}
    on grid.
    """
    eig, N, jacobi = D.eigensystem, D.N, basis.jacobi
    if isinstance(eig, diffop.FoldedEigensystem):
        sign, h, r = diffop._row_signs(N), eig.h, eig.r
        fold = np.where(np.arange(h + r) < r, 1.0, math.sqrt(0.5))
        # f_0 - f_1 at x >= 0 and f_0 + f_1 at -x, and back (the centre is its own mirror)
        nodes = lambda f: np.concatenate(((f[0] + f[1])[r:][::-1], f[0] - f[1]))

        def pairs(u):
            plus, minus = u[h:], np.concatenate((u[h:h + r], u[:h][::-1]))
            return np.stack((0.5 * (plus + minus), 0.5 * (minus - plus)))
    else:
        sign, fold = _I_POWERS[np.arange(N) % 4], 1.0
        nodes = pairs = lambda z: z
    # c at the coordinate nodes: the last h + r of the N, or all N
    scale = cache(lambda: fold * np.exp(
        -0.5 * _hermite_log_weights(jacobi, N, D.nodes)[1][N - eig.coord_nodes.size:]))
    synthesize = lambda a: nodes(scale() * eig.enter(sign * a))
    analyze = lambda u: sign.conj() * eig.leave(pairs(u) / scale())
    rows = lambda grid: hermite_function_table(N - 1, grid)
    return eig.x, synthesize, analyze, rows


def _mt_grid(basis: TransformedBasis, D: diffop.DiffMatrix):
    """Square theta-grid pair for the Malmquist-Takenaka window n = -K..K-1, K = D.N.

    On the N = 2K points x_j of ``_mt_theta_grid`` every phi_n is one
    Fourier mode e^{i n theta_j} times a factor common to all n: analysis is
    the window of one FFT of (1 - 2ix) u times the per-n factor of the map
    ``mt_coeffs_fft`` reads (``_mt_coefficients`` at offset 1/2, taken
    once), and synthesis divides by it before one inverse FFT and by (1 - 2ix) after.
    |phi_n(x_j)|^2 dx/dtheta = 1 / (2 pi) at every node, so with the weights
    h dx/dtheta the pair is exactly unitary: the potential step keeps the
    norm to rounding.  ``rows(grid)`` is phi_n on grid for the window's n.
    """
    import scipy.fft

    K = D.N
    N = 2 * K
    nodes = _mt_theta_grid(N)[2]
    factor = 1.0 - 2j * nodes
    per_n = _mt_coefficients(np.ones(N, dtype=complex), 0.5, -K, N)
    bins = (np.arange(N) + K) % N  # bin n mod N of the window's n, and back
    synthesize = lambda a: scipy.fft.ifft((a / per_n)[bins]) / factor
    analyze = lambda u: per_n * scipy.fft.fft(factor * u)[bins]
    rows = lambda grid: malmquist_takenaka(np.arange(-K, K)[:, None], grid)
    return nodes, synthesize, analyze, rows


@dataclass(frozen=True)
class _Rules:
    """One measure's entry in ``_measure_rules``."""

    closed: Callable | None = None  # closed_table(nmax, x)
    rule: Callable | None = None  # (basis, N) -> x, w, name, metadata
    grid: Callable | None = None  # (basis, D) -> nodes, synthesize, analyze, rows
    bilateral: bool = False  # grid serves the window n = -D.N..D.N-1


def _measure_rules(key) -> _Rules:
    """The closed table, exact rule and Strang grid pair of the measure named
    ``key``, each None where it has none; read per call, so a table replaced
    on this module is the one a new basis takes.

    The rule is N points x_i and weights w_i with sum_i w_i phi_m(x_i)
    conj(phi_n(x_i)) = delta_mn for m, n < N.  Every continuous Hahn measure
    takes the tanh-Jacobi table, whose conthahn row at x is 2^{-1/2} times
    the tanhjacobi row at x / 2; the Charlier lattice's table is built with
    the basis (``periodic.charlier_basis``).
    """
    head = key[0] if key else None
    if head == "hahn":
        a, b, s = key[1:]
        return _Rules(lambda nmax, x: _tanh_jacobi_scan(a, b, nmax, x, s), _hahn_rule)
    if head == "charlier":
        return _Rules(rule=_lattice_rule)
    return {("hermite", 0.0): _Rules(hermite_function_table, _hermite_rule, _hermite_grid),
            ("laguerre", 0.0): _Rules(_mt_table, _mt_rule, _mt_grid, bilateral=True),
            ("jacobi", 0.0, 0.0): _Rules(transformed_legendre_table)}.get(key, _Rules())


def make_basis(family: str, N: int = 64) -> TransformedBasis:
    """Construct a named basis.

    Accepted names: ``hermite``, ``genhermite:<eta>``, ``legendre``,
    ``ultraspherical:<alpha>``, ``jacobi:<alpha>,<beta>``,
    ``laguerre:<alpha>`` (or bare ``laguerre``), ``conthahn:<a>,<b>``,
    ``mt``, ``tanhjacobi:<a>,<b>``, ``custom-weight:<expr>`` (a weight
    expression in the variable x) and ``charlier:<a>``, the periodic system
    of the bilateral Charlier lattice (``periodic.charlier_basis``), whose
    coefficients do not grow past N.  Each measure has one branch, whatever
    its spelling: hermite is genhermite:0, legendre and ultraspherical:<alpha>
    are jacobi:0,0 and jacobi:<alpha>,<alpha>, mt is laguerre:0 indexed
    over all integers, and conthahn and tanhjacobi are the continuous Hahn
    measure at dilation s = 1 and 2.  This is the only place that reads a
    family name: the closed table, like every later dispatch, follows the
    measure's ``key``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    head, _, tail = family.partition(":")
    head = head.strip().lower()
    if head in ("hermite", "legendre", "mt"):
        if tail:
            raise ValueError(f"{head} takes no parameters")
        family = head
    sigma = None
    if head in ("hermite", "genhermite"):
        eta, = _parse_params(family, tail, 1) if head == "genhermite" else [0.0]
        measure = rec.generalized_hermite_measure(eta)
        source = lambda M: rec.build_jacobi(lambda n: rec.generalized_hermite_coeffs(eta, n), M)
    elif head in ("legendre", "ultraspherical", "jacobi"):
        alpha, beta = (_parse_params(family, tail, 2) if head == "jacobi"
                       else 2 * _parse_params(family, tail, 1) if head == "ultraspherical"
                       else [0.0, 0.0])
        measure = rec.jacobi_measure(alpha, beta)
        source = lambda M: rec.jacobi_poly_coeffs(alpha, beta, M)
    elif head in ("laguerre", "mt"):
        alpha, = _parse_params(family, tail, 1) if tail else [0.0]
        measure = rec.laguerre_measure(alpha)
        source = lambda M: rec.build_jacobi(lambda n: rec.laguerre_coeffs(alpha, n), M)
    elif head in ("conthahn", "tanhjacobi"):
        a, b = _parse_params(family, tail, 2)
        s = 1.0 if head == "conthahn" else 2.0
        measure = rec.conthahn_measure(a, b, s)
        source = lambda M: rec.build_jacobi(lambda n: rec.conthahn_coeffs(a, b, n, s), M)
        # For a != b the real-valued system uses the complex square root
        # Gamma(a+i xi/s) Gamma(b-i xi/s), i.e. the canonical transform with
        # the phase of that product; for a = b the phase vanishes identically.
        if a != b:
            sigma = lambda xi: specfun.gamma_pair_phase(a, b, xi / s)
    elif head == "custom-weight":
        if not tail:
            raise ValueError("custom-weight needs an expression")
        from . import expr as _expr
        measure = rec.custom_measure(_expr.compile_function(tail))
        source = lambda M: rec.stieltjes(measure, M)
    elif head == "charlier":
        a, = _parse_params(family, tail, 1)
        from .periodic import charlier_basis
        return charlier_basis(a, N)
    else:
        raise ValueError(f"unknown family {family!r}")
    return TransformedBasis(family, measure, source(N), coeff_source=source,
                            closed_table=_measure_rules(measure.key).closed, sigma=sigma,
                            bilateral=head == "mt")
