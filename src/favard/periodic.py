"""Periodic orthonormal systems from discrete measures on the integer lattice.

A measure sigma with point masses sigma_k at the integers k produces the
2*pi-periodic functions

    phi_n(x) = i^n * sum_k sqrt(sigma_k) p_n(k) e^{ikx},

where p_n are the orthonormal polynomials of sigma.  These are orthonormal
with respect to (1/(2*pi)) * integral over one period, and they satisfy the
same tridiagonal differential recurrence as the continuous transforms:

    phi_n' = -b_{n-1} phi_{n-1} + i c_n phi_n + b_n phi_{n+1}.

The concrete family built here uses the bilateral Charlier measure, whose
masses decay factorially, so a modest lattice cutoff K already resolves the
sums to full double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import recurrence as rec
from .diffop import _I_POWERS

__all__ = [
    "PeriodicBasis",
    "charlier_basis",
    "periodic_phi",
    "periodic_gram",
    "periodic_diff_check",
]


@dataclass(frozen=True)
class PeriodicBasis:
    """A periodic orthonormal system built from a discrete lattice measure.

    ``measure`` holds the point masses sigma_k on the integers |k| <= K,
    ``jacobi`` the recurrence coefficients of its orthonormal polynomials,
    and ``K`` the lattice cutoff.  The cutoff is chosen when the measure is
    constructed so that the discarded tail sum_{|k|>K} sigma_k p_n(k)^2 is
    below 1e-20 for every degree n the recurrence table covers.
    """

    measure: rec.MeasureSpec
    jacobi: rec.JacobiMatrix
    K: int
    _roots: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.measure.kind != "discrete":
            raise ValueError("periodic bases require a discrete measure")
        points = np.asarray(self.measure.points, dtype=float)
        if not np.allclose(points, np.round(points)):
            raise ValueError("measure points must sit on the integer lattice")
        object.__setattr__(self, "_roots", np.sqrt(np.asarray(self.measure.masses, dtype=float)))

    @property
    def length(self) -> int:
        return len(self.jacobi)


def _tails(a: float, jacobi: rec.JacobiMatrix, cuts, nmax: int) -> np.ndarray:
    """``_tail_beyond`` at each cutoff in the increasing ``cuts``, from one
    polynomial table over k = cuts[0] + 1 .. cuts[-1] + 60.

    Each entry equals the call with its cutoff alone bit for bit: the table
    and the masses are elementwise, and each sum runs over its own 60
    contiguous terms.
    """
    first, last = cuts[0] + 1, cuts[-1] + 60
    kk = np.arange(first, last + 1, dtype=float)
    logm = kk * math.log(a) - np.array([math.lgamma(v + 1.0) for v in range(first, last + 1)])
    masses = 2.0 * np.exp(logm) / (2.0 * math.exp(a) - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = masses * rec.eval_poly_table(jacobi, nmax, kk) ** 2
    out = np.empty(len(cuts))
    for i, K in enumerate(cuts):
        sums = terms[:, K + 1 - first:K + 61 - first].sum(axis=1)
        out[i] = np.max(sums) if np.all(np.isfinite(sums)) else np.inf
    return out


def _tail_beyond(a: float, jacobi: rec.JacobiMatrix, K: int, nmax: int) -> float:
    """max_n sum_{|k|>K} sigma_k p_n(k)^2 with the exact bilateral masses."""
    return float(_tails(a, jacobi, [K], nmax)[0])


def charlier_basis(a: float, N: int = 32, K: int | None = None) -> PeriodicBasis:
    """Periodic basis of the bilateral Charlier measure with parameter ``a``.

    ``N`` is the number of recurrence coefficients to prepare, which bounds
    the largest usable degree.  When ``K`` is not given, the cutoff is the
    first of K_1, K_1 + 4, K_1 + 8, ... at which the discarded tail
    sum_{|k|>K} sigma_k p_n(k)^2 stays below 1e-20 for every prepared
    degree; K_1 is the first of K_0, K_0 + 4, ... (K_0 from the
    factorial-decay rule of the measure) whose lattice holds the N + 1
    points that N recurrence coefficients need.  The mass-decay rule alone
    is not enough because p_n(k)^2 grows rapidly past the lattice edge.
    Every candidate is tested against one recurrence, built on the last
    candidate up to the generous lattice K_0 + 4 ceil((3N/2 + 8) / 4) (the
    chosen K was at most K_0 + 1.25 N for a from 0.1 to 5 and N up to 64).
    It differs from a passing candidate's only through masses that the test
    bounds, far below rounding.  The basis is then built once at the first
    K that passes, and its own recurrence is tested again.  Should that
    test fail, or no candidate up to the generous lattice pass, the cutoff
    steps on by 4, building each lattice, until one passes.

    The basis is returned only if p_0..p_{N-1} are orthonormal on their
    lattice to 1e-10, else ValueError: for small ``a`` the masses outrun
    double precision as N nears the lattice size (at a = 0.1, 7e-10 at
    N = 40 and 1e-2 at N = 64, on any lattice).
    """
    def build(cut):
        measure = rec.charlier_bilateral(a, K=cut)
        return measure, rec.stieltjes(measure, N), int(round(measure.support[1]))

    def passes(jacobi, lattice):
        return _tail_beyond(a, jacobi, lattice, N - 1) < 1e-20

    if K is not None:
        measure, jacobi, lattice = build(K)
        if not passes(jacobi, lattice):
            raise ValueError(
                f"K = {K} violates the truncation-tail invariant for degrees below {N}"
            )
    else:
        base = int(round(rec.charlier_bilateral(a).support[1]))
        room = -(-N // 2)  # the first lattice 2K + 1 with N + 1 points
        first = base + 4 * max(0, math.ceil((room - base) / 4))
        cuts = list(range(first, base + 4 * math.ceil((1.5 * N + 8) / 4) + 1, 4))
        measure, jacobi, lattice = build(cuts[-1])
        passed = np.flatnonzero(_tails(a, jacobi, cuts, N - 1) < 1e-20)
        if passed.size and cuts[passed[0]] != lattice:
            measure, jacobi, lattice = build(cuts[passed[0]])
        while not passes(jacobi, lattice):
            measure, jacobi, lattice = build(lattice + 4)
    basis = PeriodicBasis(measure=measure, jacobi=jacobi, K=lattice)
    table = _poly_table(basis, N - 1)
    err = float(np.max(np.abs((table * measure.masses) @ table.T - np.eye(N))))
    if not err <= 1e-10:
        raise ValueError(
            f"degrees below {N} of the Charlier measure a = {a} are orthonormal on "
            f"their {2 * lattice + 1}-point lattice only to {err:.1e} in double precision"
        )
    return basis


def _poly_table(basis: PeriodicBasis, nmax: int) -> np.ndarray:
    """Rows p_0..p_nmax evaluated at the lattice points."""
    if nmax + 1 > basis.length:
        raise ValueError(
            f"degree {nmax} needs {nmax + 1} recurrence coefficients, basis has {basis.length}"
        )
    return rec.eval_poly_table(basis.jacobi, nmax, np.asarray(basis.measure.points, dtype=float))


def periodic_phi(basis: PeriodicBasis, n: int, x):
    """Evaluate phi_n(x) = i^n sum_k sqrt(sigma_k) p_n(k) e^{ikx}.

    ``x`` may be a scalar or an array; the result matches its shape.  The
    lattice sum runs over |k| <= K, which resolves the series to roundoff
    by construction of the measure.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    table = _poly_table(basis, n)
    amps = basis._roots * table[n]
    xs = np.asarray(x, dtype=float)
    k = np.asarray(basis.measure.points, dtype=float)
    vals = (1j**n) * np.exp(1j * np.multiply.outer(xs, k)) @ amps
    return vals if xs.ndim else complex(vals)


def periodic_gram(basis: PeriodicBasis, N: int, M: int = 4096) -> np.ndarray:
    """Gram matrix of phi_0..phi_{N-1} by the M-point trapezoid rule.

    G[m, n] = (1/(2*pi)) * integral phi_m conj(phi_n) over one period.  The
    integrand is a trigonometric polynomial of degree at most 2K, so the
    uniform rule is exact once M exceeds that; ``M >= 4K`` is required as a
    safety margin and anything smaller raises.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if M < 4 * basis.K:
        raise ValueError(
            f"M = {M} breaks trapezoid exactness: need M >= 4K = {4 * basis.K}"
        )
    x = 2.0 * np.pi * np.arange(M) / M - np.pi
    table = _poly_table(basis, N - 1)
    amps = basis._roots * table  # (N, lattice)
    k = np.asarray(basis.measure.points, dtype=float)
    phases = np.exp(1j * np.multiply.outer(k, x))  # (lattice, M)
    rows = _I_POWERS[np.arange(N) % 4][:, None] * (amps @ phases)  # (N, M)
    return (rows @ rows.conj().T) / M


def periodic_diff_check(basis: PeriodicBasis, N: int, M: int = 257) -> float:
    """Largest residual of the differential recurrence for n < N.

    phi_n' is formed term by term (each lattice mode differentiates to ik
    times itself) and compared against -b_{n-1} phi_{n-1} + i c_n phi_n +
    b_n phi_{n+1} on an M-point grid over one period.  Both sides are exact
    finite sums, so the residual is pure roundoff.
    """
    if N < 1:
        raise ValueError("N must be positive")
    table = _poly_table(basis, N)  # rows 0..N, so phi_N is available
    k = np.asarray(basis.measure.points, dtype=float)
    amps = basis._roots * table
    x = 2.0 * np.pi * np.arange(M) / M - np.pi
    modes = np.exp(1j * np.multiply.outer(k, x))  # (lattice, M)
    powers = _I_POWERS[np.arange(N + 1) % 4][:, None]
    phi = powers * (amps @ modes)
    dphi = powers * ((amps * k) @ modes) * 1j
    b = basis.jacobi.b
    c = basis.jacobi.c
    worst = 0.0
    for n in range(N):
        rhs = 1j * c[n] * phi[n] + b[n] * phi[n + 1]
        if n > 0:
            rhs = rhs - b[n - 1] * phi[n - 1]
        worst = max(worst, float(np.max(np.abs(dphi[n] - rhs))))
    return worst
