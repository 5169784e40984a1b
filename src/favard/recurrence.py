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
    name: str = ""
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


def continuous_measure(raw_weight, support, *, breakpoints=(), name="",
                       mass=None, symmetric=False) -> MeasureSpec:
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
        name=name,
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
        name="hermite",
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
    name = "legendre" if alpha == beta == 0.0 else f"jacobi:{alpha},{beta}"
    return continuous_measure(
        w, (-1.0, 1.0), mass=mass, name=name, symmetric=(alpha == beta)
    )


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

    return continuous_measure(
        w, (0.0, np.inf), mass=math.gamma(1.0 + alpha),
        name=f"laguerre:{alpha}", symmetric=False,
    )


def generalized_hermite_measure(eta: float) -> MeasureSpec:
    if eta <= -0.5:
        raise ValueError("generalized Hermite exponent must exceed -1/2")

    def w(xi):
        xi = np.asarray(xi, float)
        return np.abs(xi) ** (2.0 * eta) * np.exp(-(xi**2))

    return continuous_measure(
        w, (-np.inf, np.inf), breakpoints=(0.0,),
        mass=math.gamma(eta + 0.5), name=f"genhermite:{eta}", symmetric=True,
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
    return continuous_measure(
        w, (-np.inf, np.inf), mass=mass, name=f"conthahn:{a},{b}", symmetric=True,
    )


def custom_measure(weight_fn, support=(-np.inf, np.inf), *, name="custom") -> MeasureSpec:
    """Unit-mass measure from an arbitrary nonnegative decaying density."""
    return continuous_measure(weight_fn, support, name=name)


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

    One sweep of the forward three-term recurrence
    p_{k+1} = ((xi - c_k) p_k - b_{k-1} p_{k-1}) / b_k, each step written
    straight into its row by in-place ufuncs in that order of operations;
    ``eval_poly`` is its row n.
    """
    if nmax < 0 or nmax >= len(jacobi):
        raise IndexError(f"polynomial degree {nmax} outside 0..{len(jacobi) - 1}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    table = np.empty((nmax + 1,) + xi.shape)
    table[0] = 1.0
    term = np.empty_like(xi)
    b, c = jacobi.b[:nmax].tolist(), jacobi.c[:nmax].tolist()
    for k in range(nmax):
        p = np.subtract(xi, c[k], out=table[k + 1])
        p *= table[k]
        if k:  # p_{-1} = 0, and t - 0.0 is t bit for bit
            np.multiply(table[k - 1], b[k - 1], out=term)
            p -= term
        p /= b[k]
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
    keeps only the last two vectors, and Q is None.
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
        c[k] = q @ v
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
        name=f"charlier:{a}",
        symmetric=True,
    )
