"""Reference values for every benchmark op, computed without favard.

Each function here builds the expected answer of one op kind from closed
forms or from SciPy, never from the package under test.  The ``*_error``
helpers turn a result into one nonnegative error figure; ``Check`` pairs it
with the tolerance the op must meet.  Tolerances follow the package's own
tests and acceptance criteria; none is widened to hide a known defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp


class OracleUnavailable(RuntimeError):
    """An oracle could not be evaluated at all (as opposed to a result that
    misses it).  The benchmark exits nonzero when this happens."""


def reference(make, *args):
    """``make(*args)``, a reference value; if it cannot be built the oracle
    is unavailable.  Every other exception a check raises comes from the
    result it inspects and fails that op."""
    try:
        return make(*args)
    except OracleUnavailable:
        raise
    except Exception as exc:
        raise OracleUnavailable(f"{getattr(make, '__name__', make)}: {exc!r}") from exc


@dataclass(frozen=True)
class Check:
    """Outcome of comparing one op's result with its oracle.

    ``verdict`` overrides the error/tolerance comparison where the oracle
    is a verdict of its own (the ``pass`` field of a verification report).
    """

    error: float
    tolerance: float
    verdict: bool | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.verdict is not None:
            return self.verdict
        return bool(np.isfinite(self.error) and self.error <= self.tolerance)


def max_abs(a, b) -> float:
    """Largest entrywise difference; infinite when the shapes differ."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    diff = np.abs(a - b)
    return float(np.max(diff)) if diff.size else 0.0


def worst(errors) -> float:
    """The largest of several error figures, NaN if any is NaN (Python's
    ``max`` would drop a NaN that is not first)."""
    return float(np.max(np.fromiter(errors, dtype=float)))


# ---------------------------------------------------------------- Hermite


def coherent_coeffs(s: float, N: int) -> np.ndarray:
    """Hermite-function coefficients of pi^{-1/4} e^{-(x-s)^2/2}.

    favard's Hermite functions carry a (-1)^n sign, so the coherent-state
    coefficients are e^{-s^2/4} (-s/sqrt2)^n / sqrt(n!).
    """
    n = np.arange(N)
    if s == 0.0:
        out = np.zeros(N)
        out[0] = 1.0
        return out
    logmag = -0.25 * s * s + n * math.log(abs(s) / math.sqrt(2.0)) - 0.5 * sp.gammaln(n + 1.0)
    return np.exp(logmag) * np.sign(-s) ** n


def coherent_x(s: float):
    return lambda x: math.pi ** -0.25 * np.exp(-0.5 * (np.asarray(x, dtype=float) - s) ** 2)


def coherent_fourier(s: float):
    """Unitary Fourier transform of ``coherent_x(s)``."""
    return lambda xi: (math.pi ** -0.25 * np.exp(-0.5 * np.asarray(xi, dtype=float) ** 2)
                       * np.exp(-1j * s * np.asarray(xi, dtype=float)))


def hermite_table(nmax: int, x) -> np.ndarray:
    """Hermite functions 0..nmax (favard's sign convention) from SciPy's
    physicists' polynomials, normalized in log space; for |x| <= 12, n <= 64."""
    x = np.asarray(x, dtype=float)
    n = np.arange(nmax + 1)
    lognorm = -0.5 * (n * math.log(2.0) + sp.gammaln(n + 1.0) + 0.5 * math.log(math.pi))
    H = np.stack([sp.eval_hermite(int(k), x) for k in n])
    return ((-1.0) ** n * np.exp(lognorm))[:, None] * H * np.exp(-0.5 * x * x)[None, :]


def hermite_recurrence_table(nmax: int, x) -> np.ndarray:
    """Hermite functions 0..nmax by the normalized three-term recurrence;
    valid for any n at |x| <= 30 (no underflow of the seed)."""
    x = np.asarray(x, dtype=float)
    t = np.empty((nmax + 1, x.size))
    t[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        t[1] = math.sqrt(2.0) * x * t[0]
    for k in range(1, nmax):
        t[k + 1] = math.sqrt(2.0 / (k + 1)) * x * t[k] - math.sqrt(k / (k + 1.0)) * t[k - 1]
    return t * ((-1.0) ** np.arange(nmax + 1))[:, None]


def harmonic_phases(coeffs: np.ndarray, T: float) -> np.ndarray:
    """Exact flow of u_t = i u_xx - i x^2 u on Hermite coefficients."""
    n = np.arange(coeffs.size)
    return coeffs * np.exp(-1j * (2 * n + 1) * T)


def strang_bound(s: float, T: float, tau: float) -> float:
    """Second-order Strang bound 2 (1 + s^2) T tau^2 for a coherent state
    at s under the harmonic potential.  The measured err / (T tau^2) is
    0.60-0.84 for s in [0.5, 1.5] at N = 512, so the bound has a 4-8x
    margin while staying below 1e-3 at every step size the workload uses."""
    return 2.0 * (1.0 + s * s) * T * tau * tau


def free_gaussian(s: float, t: float, x) -> np.ndarray:
    """Exact solution of u_t = i u_xx from pi^{-1/4} e^{-(x-s)^2/2}."""
    z = 1.0 + 2.0j * t
    x = np.asarray(x, dtype=float)
    return math.pi ** -0.25 * np.exp(-((x - s) ** 2) / (2.0 * z)) / np.sqrt(z)


def hermite_bands(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (b_n, c_n), n < N, of the orthonormal Hermite recurrence."""
    return np.sqrt((np.arange(N) + 1.0) / 2.0), np.zeros(N)


def legendre_bands(N: int) -> tuple[np.ndarray, np.ndarray]:
    n = np.arange(N) + 1.0
    return n / np.sqrt((2.0 * n - 1.0) * (2.0 * n + 1.0)), np.zeros(N)


def laguerre_bands(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Laguerre(0), the measure behind the Malmquist-Takenaka family."""
    return np.arange(N) + 1.0, 2.0 * np.arange(N) + 1.0


def band_apply(b: np.ndarray, c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(D a)_m = b_{m-1} a_{m-1} + i c_m a_m - b_m a_{m+1} from closed-form bands."""
    N = a.size
    out = 1j * c[:N] * a
    out[1:] += b[: N - 1] * a[:-1]
    out[:-1] -= b[: N - 1] * a[1:]
    return out


# --------------------------------------------------------------- Gauss rules


def sturm_radius(b: np.ndarray, c: np.ndarray) -> float:
    """Largest |eigenvalue| of the symmetric tridiagonal (c, b) by Sturm-
    sequence bisection: the count of negative pivots of J - lambda I is the
    number of eigenvalues below lambda."""

    def below(lam: float) -> int:
        count, d = 0, 1.0
        for k in range(c.size):
            d = (c[k] - lam) - (b[k - 1] ** 2 / d if k else 0.0)
            if d == 0.0:
                d = -1e-300
            count += d < 0.0
        return count

    bound = float(np.max(np.abs(c)) + 2.0 * np.max(np.abs(b)))
    extremes = []
    for want_top in (True, False):
        lo, hi = -bound, bound
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            # top: largest lambda with count < N; bottom: smallest with count >= 1
            if (below(mid) < c.size) if want_top else (below(mid) < 1):
                lo = mid
            else:
                hi = mid
        extremes.append(0.5 * (lo + hi))
    return max(abs(e) for e in extremes)


def gauss_rule(family: str, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and unit-mass weights from SciPy."""
    if family == "hermite":
        x, w = sp.roots_hermite(N)
        return x, w / math.sqrt(math.pi)
    if family == "legendre":
        x, w = sp.roots_legendre(N)
        return x, w / 2.0
    raise OracleUnavailable(f"no Gauss reference for {family!r}")


def gauss_error(nodes, weights, ref_nodes, ref_weights) -> float:
    """max(node error / max|node|, relative weight error).

    A reference weight that underflows to zero while the computed one is
    positive counts as an infinite relative error; it is reported, not
    hidden.
    """
    node_err = max_abs(nodes, ref_nodes) / max(1.0, float(np.max(np.abs(ref_nodes))))
    w = np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(w - ref_weights) / ref_weights
    rel = np.where((ref_weights == 0.0) & (w == 0.0), 0.0, rel)
    rel = np.where(np.isnan(rel), np.inf, rel)
    return worst((node_err, float(np.max(rel))))


# ---------------------------------------------------------------- Legendre


def legendre_table(nmax: int, x) -> np.ndarray:
    """Transformed Legendre functions (-1)^n sqrt((2n+1)/pi) j_n(x)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    rows = []
    for n in range(nmax + 1):
        j = sp.spherical_jn(n, ax) * np.where(x < 0, (-1.0) ** n, 1.0)
        rows.append((-1.0) ** n * math.sqrt((2 * n + 1) / math.pi) * j)
    return np.stack(rows)


def legendre_bump_x(k: int):
    """f(x) = (2 pi)^{-1/2} int_{-1}^{1} e^{i x xi} (1 - xi^2)^k d xi
    = (2 pi)^{-1/2} k! 2^{k+1} j_k(x) / x^k, with the series near x = 0."""
    scale = math.factorial(k) * 2.0 ** (k + 1) / math.sqrt(2.0 * math.pi)
    dfact = float(sp.factorial2(2 * k + 1, exact=True))

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        big = np.abs(x) > 1e-2
        out[big] = sp.spherical_jn(k, x[big]) / x[big] ** k
        small = x[~big] ** 2
        out[~big] = (1.0 - small / (2 * (2 * k + 3))
                     + small * small / (8 * (2 * k + 3) * (2 * k + 5))) / dfact
        return scale * out

    return f


class LegendreProjector:
    """Exact Legendre-basis coefficients of (1 - xi^2)^k e^{i tau xi} on the
    Fourier side: (-i)^n sqrt((2n+1)/2) int P_n(xi) G(xi) d xi, by a Gauss-
    Legendre rule far above the polynomial degree of the integrand."""

    def __init__(self, N: int, points: int | None = None):
        points = points or (N + 160)
        self.xi, self.w = np.polynomial.legendre.leggauss(points)
        P = np.empty((N, points))
        P[0] = 1.0
        if N > 1:
            P[1] = self.xi
        for n in range(1, N - 1):
            P[n + 1] = ((2 * n + 1) * self.xi * P[n] - n * P[n - 1]) / (n + 1)
        n = np.arange(N)
        self.rows = ((-1j) ** n * np.sqrt((2 * n + 1) / 2.0))[:, None] * P

    def coeffs(self, k: int, tau: float = 0.0) -> np.ndarray:
        G = (1.0 - self.xi ** 2) ** k * np.exp(1j * tau * self.xi)
        return self.rows @ (self.w * G)


# ------------------------------------------------------- Malmquist-Takenaka


def mt_phi(n: int, x) -> np.ndarray:
    """sqrt(2/pi) i^n ((1+2ix)/(1-2ix))^n / (1-2ix), with the Moebius factor
    written as e^{2i arctan 2x}."""
    x = np.asarray(x, dtype=float)
    return (math.sqrt(2.0 / math.pi) * 1j ** (n % 4)
            * np.exp(2j * n * np.arctan(2.0 * x)) / (1.0 - 2.0j * x))


def mt_span(indices, coeffs):
    idx = [int(i) for i in indices]
    cs = [complex(c) for c in coeffs]
    return lambda x: sum(c * mt_phi(i, x) for i, c in zip(idx, cs))


MT_README_RATE = 1.0 + math.sqrt(2.0)
# ||1/(1+(2x)^4)||^2 = (1/2) int du / (1+u^4)^2 = 3 pi / (8 sqrt 2)
MT_README_NORM2 = 3.0 * math.pi / (8.0 * math.sqrt(2.0))


def mt_readme(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + (2.0 * x) ** 4)


# --------------------------------------------------------------- tanh-Jacobi


def tanh_jacobi_phi(a: float, b: float, n: int, x) -> np.ndarray:
    """(-1)^n (1-tanh x)^a (1+tanh x)^b p_n(tanh x) / sqrt(S) with p_n the
    Jacobi(2a-1, 2b-1) polynomial orthonormal for the unit-mass measure."""
    al, be = 2.0 * a - 1.0, 2.0 * b - 1.0
    x = np.asarray(x, dtype=float)
    mass = 2.0 ** (al + be + 1.0) * sp.beta(al + 1.0, be + 1.0)
    if n == 0:
        hn = mass
    else:
        hn = (2.0 ** (al + be + 1.0) / (2 * n + al + be + 1.0)
              * math.exp(sp.gammaln(n + al + 1.0) + sp.gammaln(n + be + 1.0)
                         - sp.gammaln(n + al + be + 1.0) - sp.gammaln(n + 1.0)))
    p = sp.eval_jacobi(n, al, be, np.tanh(x)) / math.sqrt(hn / mass)
    with np.errstate(over="ignore"):
        lo = 2.0 / (np.exp(2.0 * x) + 1.0)
        hi = 2.0 / (np.exp(-2.0 * x) + 1.0)
    return (-1.0) ** n * lo ** a * hi ** b * p / math.sqrt(mass)


def tanh_span(a: float, b: float, indices, coeffs):
    idx = [int(i) for i in indices]
    cs = [float(c) for c in coeffs]
    return lambda x: sum(c * tanh_jacobi_phi(a, b, i, x) for i, c in zip(idx, cs))


def closed_table(family: str, nmax: int, x) -> np.ndarray:
    """phi_0..phi_nmax of a closed-form family on x."""
    if family == "hermite":
        return hermite_table(nmax, x)
    if family == "legendre":
        return legendre_table(nmax, x)
    if family == "mt":
        return np.stack([mt_phi(n, x) for n in range(nmax + 1)])
    if family.startswith("tanhjacobi:"):
        a, b = (float(p) for p in family.split(":", 1)[1].split(","))
        return np.stack([tanh_jacobi_phi(a, b, n, x) for n in range(nmax + 1)])
    raise OracleUnavailable(f"no closed form for {family!r}")


# ------------------------------------------------------------------- CLI


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        return [], np.empty((0, 0))
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))
