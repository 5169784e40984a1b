"""Three-term recurrences of orthonormal polynomial systems.

A probability measure mu on the real line with finite moments determines
orthonormal polynomials p_n satisfying

    xi p_n(xi) = b_{n-1} p_{n-1}(xi) + c_n p_n(xi) + b_n p_{n+1}(xi),

with b_n > 0 and real c_n (Favard's theorem).  This module holds the
coefficient container, closed-form coefficient families, polynomial
evaluation, and the discretized Stieltjes procedure for arbitrary measures.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _panels
from .errors import DegenerateMeasureError
from .specfun import beta as _beta
from .specfun import gamma_abs2

__all__ = [
    "JacobiMatrix",
    "MeasureSpec",
    "build_jacobi",
    "charlier_bilateral",
    "conthahn_coeffs",
    "conthahn_measure",
    "custom_measure",
    "eval_poly",
    "eval_poly_table",
    "generalized_hermite_coeffs",
    "generalized_hermite_measure",
    "hermite_coeffs",
    "hermite_measure",
    "jacobi_coeffs",
    "jacobi_measure",
    "jacobi_poly_coeffs",
    "laguerre_coeffs",
    "laguerre_measure",
    "legendre_measure",
    "stieltjes",
    "ultraspherical_coeffs",
    "ultraspherical_measure",
]


@dataclass(frozen=True, eq=False)
class JacobiMatrix:
    """Recurrence coefficients (b_n, c_n), n = 0..N-1, of an orthonormal system."""

    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if b.ndim != 1 or c.ndim != 1 or b.size != c.size:
            raise ValueError("b and c must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("recurrence coefficients must be finite")
        if np.any(b <= 0.0):
            raise ValueError("off-diagonal coefficients b_n must be positive")

    def __len__(self) -> int:
        return self.b.size


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """A probability measure: continuous density or discrete point masses.

    Continuous measures carry a normalized density ``weight`` on
    ``support`` (endpoints may be infinite) plus interior ``breakpoints``
    where the density is not smooth.  Discrete measures carry ``points``
    and normalized ``masses``.
    """

    kind: str
    support: tuple[float, float]
    weight: Callable | None = None
    points: np.ndarray | None = None
    masses: np.ndarray | None = None
    breakpoints: tuple = ()
    symmetric: bool = False
    # ``tails``: the weight on each infinite side at the scan radii
    _tails: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("continuous", "discrete"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "continuous" and self.weight is None:
            raise ValueError("continuous measure needs a weight")
        if self.kind == "discrete" and (self.points is None or self.masses is None):
            raise ValueError("discrete measure needs points and masses")

    def tails(self) -> dict:
        """{side: w(side * SCAN_RADII)} for each infinite side (-1, +1) of the support.

        The scan is taken once per measure, on first use, and every
        truncated interval of the measure is cut from it
        (``_truncated_interval``): the samples do not depend on the degree.
        """
        for side in _infinite_sides(self.support):
            if side not in self._tails:
                self._tails[side] = _panels.scan(self.weight, side)
        return self._tails


def _infinite_sides(support) -> tuple:
    return tuple(side for side, end in zip((-1, 1), support) if not np.isfinite(end))


def _measure_mass(raw_weight, support, breakpoints, tails) -> float:
    lo, hi = _truncated_interval(support, tails, degree=0)
    edges = _panels.build_edges(
        lo,
        hi,
        width=(hi - lo) / 32.0,
        grade_lo=np.isfinite(support[0]),
        grade_hi=np.isfinite(support[1]),
        interior=breakpoints,
    )
    x, w = _panels.panel_rule(edges)
    return float(np.sum(w * raw_weight(x)))


def _truncated_interval(support, tails, degree):
    """Finite interval outside of which a weight times |xi|^degree is negligible.

    ``tails`` maps each infinite side of ``support`` to the weight's samples
    there (``MeasureSpec.tails``); a finite end is kept.
    """
    lo, hi = support
    if not np.isfinite(lo):
        lo = -_panels.truncation_point(tails[-1], degree)
    if not np.isfinite(hi):
        hi = _panels.truncation_point(tails[1], degree)
    return lo, hi


def continuous_measure(raw_weight, support, *, breakpoints=(), mass=None,
                       symmetric=False) -> MeasureSpec:
    """Wrap a nonnegative integrable density as a unit-mass MeasureSpec.

    Without a given ``mass`` the mass is integrated on the interval cut
    from the raw weight's tail scan, and the measure keeps that scan times
    1/mass as its own ``tails``, so the weight is scanned once either way.
    """
    lo, hi = support
    if not hi > lo:
        raise ValueError("empty support")
    raw_tails = {}
    if mass is None:
        raw_tails = {side: _panels.scan(raw_weight, side) for side in _infinite_sides(support)}
        mass = _measure_mass(raw_weight, support, breakpoints, raw_tails)
    if not (np.isfinite(mass) and mass > 0.0):
        raise DegenerateMeasureError("measure has non-positive or infinite mass")
    inv = 1.0 / mass
    spec = MeasureSpec(
        kind="continuous",
        support=(float(lo), float(hi)),
        weight=lambda xi: raw_weight(xi) * inv,
        breakpoints=tuple(breakpoints),
        symmetric=symmetric,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        # bit for bit what ``weight`` gives at the scan radii
        spec._tails.update((side, vals * inv) for side, vals in raw_tails.items())
    return spec


def hermite_measure() -> MeasureSpec:
    return continuous_measure(
        lambda xi: np.exp(-np.asarray(xi, float) ** 2),
        (-np.inf, np.inf),
        mass=math.sqrt(math.pi),
        symmetric=True,
    )


def ultraspherical_measure(alpha: float) -> MeasureSpec:
    if alpha <= -1.0:
        raise ValueError("ultraspherical exponent must exceed -1")
    return jacobi_measure(alpha, alpha)


def legendre_measure() -> MeasureSpec:
    return jacobi_measure(0.0, 0.0)


def jacobi_measure(alpha: float, beta: float) -> MeasureSpec:
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("jacobi exponents must exceed -1")

    def w(xi):
        xi = np.asarray(xi, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                (xi > -1.0) & (xi < 1.0),
                np.power(np.clip(1.0 - xi, 0.0, None), alpha)
                * np.power(np.clip(1.0 + xi, 0.0, None), beta),
                0.0,
            )
        return out

    mass = 2.0 ** (alpha + beta + 1.0) * _beta(alpha + 1.0, beta + 1.0)
    return continuous_measure(w, (-1.0, 1.0), mass=mass, symmetric=(alpha == beta))


def laguerre_measure(alpha: float = 0.0) -> MeasureSpec:
    if alpha <= -1.0:
        raise ValueError("laguerre exponent must exceed -1")

    def w(xi):
        xi = np.asarray(xi, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(xi > 0.0, np.power(np.clip(xi, 0.0, None), alpha)
                           * np.exp(-np.clip(xi, 0.0, None)), 0.0)
            if alpha == 0.0:
                out = np.where(xi == 0.0, 1.0, out)
        return out

    return continuous_measure(w, (0.0, np.inf), mass=math.gamma(1.0 + alpha))


def generalized_hermite_measure(eta: float) -> MeasureSpec:
    if eta <= -0.5:
        raise ValueError("generalized Hermite exponent must exceed -1/2")

    def w(xi):
        xi = np.asarray(xi, float)
        return np.abs(xi) ** (2.0 * eta) * np.exp(-(xi**2))

    return continuous_measure(
        w, (-np.inf, np.inf), breakpoints=(0.0,),
        mass=math.gamma(eta + 0.5), symmetric=True,
    )


def conthahn_measure(a: float, b: float, dilation: float = 1.0) -> MeasureSpec:
    """Continuous Hahn measure, density ~ |Gamma(a+i xi)Gamma(b-i xi)|^2.

    ``dilation`` s rescales the density to w(xi/s); s = 2 matches the
    hyperbolic-secant systems on the natural x scale.  The mass is Barnes'
    first lemma, s 2 pi Gamma(2a) Gamma(2b) Gamma(a+b)^2 / Gamma(2a+2b).
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("continuous Hahn parameters must be positive")
    s = float(dilation)

    def w(xi):
        u = np.asarray(xi, float) / s
        g = gamma_abs2(a, u)
        return g * g if a == b else g * gamma_abs2(b, u)

    lg = math.lgamma
    mass = s * 2.0 * math.pi * math.exp(lg(2.0 * a) + lg(2.0 * b) + 2.0 * lg(a + b)
                                        - lg(2.0 * a + 2.0 * b))
    return continuous_measure(w, (-np.inf, np.inf), mass=mass, symmetric=True)


def custom_measure(weight_fn, support=(-np.inf, np.inf)) -> MeasureSpec:
    """Unit-mass measure from an arbitrary nonnegative decaying density."""
    return continuous_measure(weight_fn, support)


def hermite_coeffs(n: int) -> tuple[float, float]:
    """(b_n, c_n) for the weight e^{-xi^2}: b_n = sqrt((n+1)/2), c_n = 0."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return math.sqrt((n + 1) / 2.0), 0.0


def ultraspherical_coeffs(alpha: float, n: int) -> tuple[float, float]:
    """(b_n, c_n) for the weight (1-xi^2)^alpha on (-1, 1)."""
    if alpha <= -1.0:
        raise ValueError("ultraspherical exponent must exceed -1")
    if n < 0:
        raise ValueError("index must be >= 0")
    num = (n + 1) * (n + 2 * alpha + 1)
    den = (2 * n + 2 * alpha + 1) * (2 * n + 2 * alpha + 3)
    return math.sqrt(num / den), 0.0


def jacobi_coeffs(alpha: float, beta: float, n: int) -> tuple[float, float]:
    """(b_n, c_n) for the weight (1-xi)^alpha (1+xi)^beta on (-1, 1)."""
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("jacobi exponents must exceed -1")
    if n < 0:
        raise ValueError("index must be >= 0")
    s = alpha + beta
    if n == 0:
        # The n = 0 case of the general formula after cancelling the common
        # (1 + alpha + beta) factor, which vanishes when alpha + beta = -1.
        c = (beta - alpha) / (s + 2.0)
        b2 = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((s + 2.0) ** 2 * (s + 3.0))
    else:
        c = (beta - alpha) * (beta + alpha) / ((2 * n + s) * (2 * n + s + 2.0))
        num = 4.0 * (n + 1) * (n + 1 + alpha) * (n + 1 + beta) * (n + 1 + s)
        den = (2 * n + s + 1.0) * (2 * n + s + 2.0) ** 2 * (2 * n + s + 3.0)
        b2 = num / den
    return math.sqrt(b2), c


def laguerre_coeffs(alpha: float, n: int) -> tuple[float, float]:
    """(b_n, c_n) for the weight xi^alpha e^{-xi} on (0, inf)."""
    if alpha <= -1.0:
        raise ValueError("laguerre exponent must exceed -1")
    if n < 0:
        raise ValueError("index must be >= 0")
    return math.sqrt((n + 1) * (n + 1 + alpha)), 2.0 * n + 1.0 + alpha


def generalized_hermite_coeffs(eta: float, n: int) -> tuple[float, float]:
    """(b_n, c_n) for the weight |xi|^{2 eta} e^{-xi^2}.

    The monic recurrence has beta_n = (n + theta_n)/2 with theta_n = 0 for
    even n and 2 eta for odd n, so b_n = sqrt((n + 1 + theta_{n+1})/2).
    """
    if eta <= -0.5:
        raise ValueError("generalized Hermite exponent must exceed -1/2")
    if n < 0:
        raise ValueError("index must be >= 0")
    theta = 0.0 if (n + 1) % 2 == 0 else 2.0 * eta
    return math.sqrt((n + 1 + theta) / 2.0), 0.0


def conthahn_coeffs(a: float, b: float, n: int, dilation: float = 1.0) -> tuple[float, float]:
    """(b_n, c_n) for ``conthahn_measure(a, b, dilation)``.

    The density is even, so c_n = 0, and with s = 2a + 2b
    b_n^2 = (n+1)(n+s-1)(n+2a)(n+2b)(n+a+b)^2 / ((2n+s-1)(2n+s)^2(2n+s+1)),
    times dilation^2 (the continuous Hahn recurrence with parameters
    (a, b, a, b); Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal
    Polynomials, 2010, sec. 9.4).
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("continuous Hahn parameters must be positive")
    if n < 0:
        raise ValueError("index must be >= 0")
    s = 2.0 * (a + b)
    # (n+s-1)/(2n+s-1) is 1 at n = 0, where both vanish for s = 1
    ratio = 1.0 if n == 0 else (n + s - 1.0) / (2 * n + s - 1.0)
    b2 = (n + 1) * ratio * (n + 2.0 * a) * (n + 2.0 * b) * (n + a + b) ** 2 / (
        (2 * n + s) ** 2 * (2 * n + s + 1.0))
    return dilation * math.sqrt(b2), 0.0


def build_jacobi(coeff_fn: Callable[[int], tuple[float, float]], N: int) -> JacobiMatrix:
    """Assemble a JacobiMatrix from a per-index closed-form coefficient rule."""
    if N <= 0:
        raise ValueError("N must be positive")
    pairs = [coeff_fn(n) for n in range(N)]
    return JacobiMatrix(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))


def eval_poly(jacobi: JacobiMatrix, n: int, xi):
    """p_n(xi), vectorized in xi: row n of ``eval_poly_table(jacobi, n, xi)``.

    The table holds (n+1) xi.size values while it runs; the row is copied
    out of it, so it is freed on return.
    """
    xs = np.asarray(xi, dtype=float)
    p = eval_poly_table(jacobi, n, xs)[n]
    return p.copy() if xs.ndim else float(p[0])


def eval_poly_table(jacobi: JacobiMatrix, nmax: int, xi) -> np.ndarray:
    """Stacked values p_0..p_nmax at xi; shape (nmax+1,) + xi.shape.

    One ``_scaled_sweep`` of p_{k+1} = ((xi - c_k) / b_k) p_k - (b_{k-1} /
    b_k) p_{k-1}; a value past the double range is +-inf.  ``eval_poly`` is row n.
    """
    if nmax < 0 or nmax >= len(jacobi):
        raise IndexError(f"polynomial degree {nmax} outside 0..{len(jacobi) - 1}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return _sweep_table(jacobi, nmax, xi.ravel()).reshape((nmax + 1,) + xi.shape)


# Bound, in bits, on the growth of the mantissas of ``_scaled_sweep`` between two
# rescalings: squares stay below 2^960, so a sum of up to 2^60 cannot overflow.
_GROWTH_BITS = 480.0


def _scaled_sweep(jacobi: JacobiMatrix, nmax: int, x: np.ndarray, seed=None,
                  alternate: bool = False, out=None):
    """Blocks (k0, rows, exps) of the three-term recurrence over degrees 0..nmax.

    At the flat points x, rows[j] 2^exps is s^k p_k(x) g(x) for k = k0 + j:
    p_k are the orthonormal polynomials of ``jacobi``, s = -1 with
    ``alternate`` (else 1), and g = m 2^e for a ``seed`` (m, e) of mantissas
    and int64 exponents (g = 1 without one), so a seed that underflows, such
    as a Gaussian, keeps every digit.  The first block is row 0.

    Rows k+1 of a block are seeded with (x - c_k) (1/b_k), or (c_k - x)
    (1/b_k), by one broadcast, and each degree then takes three in-place
    ufuncs: row *= m_k, row -= (b_{k-1} (1/b_k)) m_{k-1}.  A block runs while
    the bounds log2 max((max|x - c_k| + b_{k-1}) / b_k, 1) on the growth of
    max(|m_{k+1}|, |m_k|), summed, stay within ``_GROWTH_BITS``.  A rescale
    then brings each point's max(|m_k|, |m_{k-1}|) into [1/2, 1) by a power
    of two, in a new exps array; a point with a mantissa in (0, 2^-511)
    keeps its scale, as its products could round as subnormals at one scale
    and not at another.  So any such rescaling gives the same bits.

    The rows are out[k0:k1] of an (nmax+1, x.size) ``out``, which the sweep
    reads until its next block, or else a buffer that the next block reuses.
    """
    b, c = jacobi.b[:nmax], jacobi.c[:nmax]
    inv_b = 1.0 / b
    b_prev = np.concatenate(([0.0], b[:-1]))
    lo, hi = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    reach = np.maximum(hi - c, c - lo)  # max |x - c_k|
    growth = np.log2(np.maximum((reach + b_prev) * inv_b, 1.0)).tolist()
    ratio = (b_prev * inv_b).tolist()
    # with a zero diagonal (a symmetric family) every x - c_k is one row
    shifted = None if c.any() else (np.subtract(0.0, x) if alternate else x)
    inv_b, c = inv_b[:, None], c[:, None]
    cur, exps = (np.ones(x.size), np.zeros(x.size, dtype=np.int64)) if seed is None else seed
    bits = 0.0 if seed is None else float(np.log2(np.max(np.abs(cur), initial=1.0)))
    prev, term = np.zeros(x.size), np.empty(x.size)
    rows = np.empty((1, x.size)) if out is None else out
    rows[0] = cur
    yield 0, rows[:1], exps
    k0 = 0
    while k0 < nmax:
        if bits + growth[k0] > _GROWTH_BITS:
            shift = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))[1]
            shift[np.minimum(np.frexp(cur)[1], np.frexp(prev)[1]) < -510] = 0
            cur, prev, exps = np.ldexp(cur, -shift), np.ldexp(prev, -shift), exps + shift
            bits = 0.0
        k1, bits = k0 + 1, bits + growth[k0]  # one step at least, however large
        while k1 < nmax and bits + growth[k1] <= _GROWTH_BITS:
            bits += growth[k1]
            k1 += 1
        if out is None and rows.shape[0] < k1 - k0:
            rows = np.empty((k1 - k0, x.size))
        block = rows[:k1 - k0] if out is None else out[k0 + 1:k1 + 1]
        if shifted is None:
            np.subtract(*((c[k0:k1], x) if alternate else (x, c[k0:k1])), out=block)
            block *= inv_b[k0:k1]
        else:
            np.multiply(shifted, inv_b[k0:k1], out=block)
        for k, row in enumerate(block, k0):
            row *= cur
            np.multiply(prev, ratio[k], out=term)
            row -= term
            prev, cur = cur, row
        if out is None:  # the next block reuses the buffer
            prev, cur = prev.copy(), cur.copy()
        yield k0 + 1, block, exps
        k0 = k1


def _sweep_table(jacobi: JacobiMatrix, nmax: int, x: np.ndarray, seed=None,
                 alternate: bool = False) -> np.ndarray:
    """Rows 0..nmax of ``_scaled_sweep``, each value m 2^e rounded once: beyond
    e in [-1022, 1023], m first takes the exact 2^(e - s) for the clipped s
    (capped at 2^1023); a product that leaves the normal range below is a
    value under 2^-2044, above one that overflows unless m is 0 or subnormal.
    """
    table = np.empty((nmax + 1, x.size))
    starts = [(k0, exps) for k0, _, exps in _scaled_sweep(jacobi, nmax, x, seed, alternate, table)]
    # the rows between two rescales share one exponent array, and one lift
    runs = [run for i, run in enumerate(starts) if i == 0 or run[1] is not starts[i - 1][1]]
    for (k0, exps), (k1, _) in zip(runs, runs[1:] + [(nmax + 1, None)]):
        rows = table[k0:k1]
        if not exps.any():
            continue
        if exps.min() < -1022 or exps.max() > 1023:
            s = np.clip(exps, -1022, 1023)
            rows *= np.ldexp(1.0, np.minimum(exps - s, 1023))
            exps = s
        rows *= np.ldexp(1.0, exps)
    return table


def _discretize(measure: MeasureSpec, M: int, degree: int):
    """Point-mass discretization (nodes, weights) resolving moments to ``degree``."""
    if measure.kind == "discrete":
        return np.asarray(measure.points, float), np.asarray(measure.masses, float)
    lo, hi = _truncated_interval(measure.support, measure.tails(), degree)
    panels = max(8, int(np.ceil(M / _panels.GL_ORDER)))
    edges = _panels.build_edges(
        lo,
        hi,
        width=(hi - lo) / panels,
        grade_lo=np.isfinite(measure.support[0]),
        grade_hi=np.isfinite(measure.support[1]),
        interior=measure.breakpoints,
    )
    x, w = _panels.panel_rule(edges)
    return x, w * measure.weight(x)


def stieltjes(measure: MeasureSpec, N: int) -> JacobiMatrix:
    """Recurrence coefficients of ``measure`` by the discretized Stieltjes procedure.

    Parameters
    ----------
    measure : MeasureSpec
        Unit-mass measure with at least N points of increase.
    N : int
        Number of coefficient pairs (b_n, c_n), n < N, to compute.

    Notes
    -----
    The discretized measure (nodes xi_j, weights w_j) is run through the
    Stieltjes procedure on the vectors q_k = p_k(xi_j) sqrt(w_j), unit in
    the Euclidean norm (Gautschi, *Orthogonal Polynomials: Computation and
    Approximation*, 2004, ch. 2): c_k = q_k . (xi q_k), and
    b_k = |xi q_k - c_k q_k - b_{k-1} q_{k-1}| normalizes q_{k+1}.  This is
    the Lanczos iteration on diag(xi), ``_lanczos``.  A continuous measure,
    discretized on about M = max(360, 24 N) points (a discrete one keeps
    its own point masses), takes the plain update, O(N M): it agrees with
    full reorthogonalization to 7e-16 relative in b_n and to 1e-15 of
    max |xi_j| in c_n on exp(-xi^2), exp(-xi^4) and exp(-|xi|) up to
    N = 256.  A discrete measure is where Gautschi
    cautions that the plain update loses accuracy as N nears the number of
    support points (the stable Lanczos-type updates are RKPW; Gragg &
    Harrod, Numer. Math. 44, 1984): on the 161-point Charlier lattice
    a = 0.1, K = 80 it is off by 1.7e-4 relative in b_n at N = 64.  So a
    discrete measure reorthogonalizes every new vector against all kept
    ones, O(N^2 M), and matches a 50-digit run to rounding there.  A
    discrete measure with P positive masses has b_{P-1} = 0 exactly, so
    N >= P raises ``DegenerateMeasureError`` before the iteration, as does
    a b_k below 1e-14 of the node scale inside it.
    """
    return _lanczos(measure, N)[0]


def _lanczos(measure: MeasureSpec, N: int):
    """``stieltjes`` with its Lanczos vectors: (JacobiMatrix, Q).

    On a discrete measure Q holds q_0..q_N as its N + 1 rows, each new
    vector reorthogonalized against the kept ones by classical Gram-Schmidt
    applied twice; Q[n, j] = sqrt(w_j) p_n(xi_j).  A continuous measure
    keeps only the last two vectors, and Q is None.  A symmetric measure
    has c_k = 0 by parity (p_k^2 is even), so c_k is set to 0.0 rather
    than summed to rounding: on the Charlier lattice a = 0.5 the sum left
    up to 5.9e-15 at N = 32, enough to keep ``golub_welsch`` and
    ``DiffMatrix.eigensystem`` off their zero-diagonal routes.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    nodes, weights = _discretize(measure, max(360, 24 * N), degree=2 * N)
    count = np.count_nonzero(weights > 0.0)
    if count <= N:
        raise DegenerateMeasureError(
            f"measure supports only {count} orthonormal polynomials, "
            f"and {N} coefficient pairs need {N + 1}"
        )
    scale = max(1.0, float(np.max(np.abs(nodes))))
    Q = np.empty((N + 1, nodes.size)) if measure.kind == "discrete" else None
    q = np.sqrt(np.maximum(weights, 0.0))
    q /= np.linalg.norm(q)
    b = np.empty(N)
    c = np.empty(N)
    q_prev = np.zeros_like(q)
    b_prev = 0.0
    for k in range(N):
        v = nodes * q
        c[k] = 0.0 if measure.symmetric else q @ v
        v -= c[k] * q + b_prev * q_prev
        if Q is not None:
            Q[k] = q
            for _ in range(2):
                v -= Q[:k + 1].T @ (Q[:k + 1] @ v)
        b[k] = np.linalg.norm(v)
        if b[k] <= 1e-14 * scale:
            raise DegenerateMeasureError(
                f"recurrence breakdown at index {k}: measure effectively has "
                f"fewer than {N} points of increase"
            )
        q_prev, q = q, v / b[k]
        b_prev = b[k]
    if Q is not None:
        Q[N] = q
    return JacobiMatrix(b, c), Q


def jacobi_poly_coeffs(alpha: float, beta: float, N: int) -> JacobiMatrix:
    """Recurrence coefficients of the Jacobi weight (1-xi)^alpha (1+xi)^beta."""
    return build_jacobi(lambda n: jacobi_coeffs(alpha, beta, n), N)


def charlier_bilateral(a: float, K: int | None = None) -> MeasureSpec:
    """Bilateral Charlier measure: mass ~ a^|k| / |k|! at each integer k.

    Requires a > 0.  The normalizing constant of the full lattice sum is
    1/(2 e^a - 1); the lattice is truncated at |k| <= K with K chosen so
    a^K / K! < 1e-22, and the truncated masses are renormalized to unit sum.
    """
    if a <= 0.0:
        raise ValueError("bilateral Charlier parameter must be positive")
    if K is None:
        K = 1
        while a**K / math.factorial(K) >= 1e-22:
            K += 1
    if K < 1:
        raise ValueError("K must be at least 1")
    k = np.arange(-K, K + 1)
    logmass = np.abs(k) * math.log(a) - np.array([math.lgamma(abs(i) + 1.0)
                                                  for i in range(-K, K + 1)])
    masses = np.exp(logmass)
    masses /= masses.sum()
    return MeasureSpec(
        kind="discrete",
        support=(float(-K), float(K)),
        points=k.astype(float),
        masses=masses,
        symmetric=True,
    )
