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
from .diffop import _I_POWERS, _recurrence_residual

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
    ``K`` the lattice cutoff, and ``amplitudes`` the (N + 1) x (2K + 1)
    Fourier coefficients A[n, k] = sqrt(sigma_k) p_n(k) of phi_0..phi_N,
    N = len(jacobi).  They are the Lanczos vectors of diag(k) from the
    start vector sqrt(sigma) that ``jacobi`` comes from, run on a longer
    lattice and restricted to |k| <= K, so they never pass through the
    three-term recurrence.  The cutoff is chosen when the basis is built
    so that the discarded tail sum_{|k|>K} A[n, k]^2 is below 1e-20 for
    every degree n < N.
    """

    measure: rec.MeasureSpec
    jacobi: rec.JacobiMatrix
    K: int
    amplitudes: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if self.measure.kind != "discrete":
            raise ValueError("periodic bases require a discrete measure")
        points = np.asarray(self.measure.points, dtype=float)
        if not np.allclose(points, np.round(points)):
            raise ValueError("measure points must sit on the integer lattice")
        if np.shape(self.amplitudes) != (len(self.jacobi) + 1, points.size):
            raise ValueError("amplitudes need one row per degree 0..N and one column per point")

    @property
    def length(self) -> int:
        return len(self.jacobi)


# The largest share sum_{|k|>K} A[n, k]^2 of a degree n < N that a cutoff
# K may leave off its lattice.
_TAIL_BOUND = 1e-20


def charlier_basis(a: float, N: int = 32) -> PeriodicBasis:
    """Periodic basis of the bilateral Charlier measure with parameter ``a``.

    ``N`` is the number of recurrence coefficients to prepare, which bounds
    the largest usable degree.  The cutoff is the first of K_1, K_1 + 4,
    K_1 + 8, ... at which the discarded tail sum_{|k|>K} A[n, k]^2 stays
    below ``_TAIL_BOUND`` = 1e-20 for every degree n < N; K_1 is the first
    of K_0, K_0 + 4, ... (K_0 from the factorial-decay rule of the measure)
    whose lattice holds the N + 1 points that N recurrence coefficients
    need.  The mass-decay rule alone is not enough because p_n(k)^2 grows
    rapidly past the lattice edge.  One Lanczos run on the generous lattice
    K_0 + 4 ceil((3N/2 + 8) / 4) gives every candidate's tail, by one
    reversed cumulative sum of its squared vectors; the candidates stop
    short of that lattice, and the chosen K lay at least 12 points inside
    it for a from 0.1 to 5 and N up to 128.  The basis keeps that run's
    recurrence coefficients and its vectors restricted to |k| <= K, which
    differ from a second run at K only through the discarded tail, below
    1e-20.  ValueError if no candidate holds the tail.

    The basis is returned only if its amplitude rows 0..N-1 are orthonormal
    on the chosen lattice to 1e-10, else ValueError.  Being reorthogonalized
    Lanczos vectors cut where their tails are below 1e-20, they are so to
    rounding (at most 1.1e-15 for a from 0.1 to 5 and N = 2..69, 96 and
    128), so this is a check.
    """
    base = int(round(rec.charlier_bilateral(a).support[1]))
    room = -(-N // 2)  # the first lattice 2K + 1 with N + 1 points
    first = base + 4 * max(0, math.ceil((room - base) / 4))
    probe = base + 4 * math.ceil((1.5 * N + 8) / 4)
    cuts = np.arange(first, probe, 4)
    jacobi, vectors = rec._lanczos(rec.charlier_bilateral(a, K=probe), N)
    squares = vectors[:N] ** 2
    # beyond[n, j] = sum over |k| > j of A[n, k]^2 on the probe lattice
    folded = squares[:, probe + 1:] + squares[:, probe - 1::-1]
    beyond = np.cumsum(folded[:, ::-1], axis=1)[:, ::-1]
    passed = cuts[np.max(beyond[:, cuts], axis=0) < _TAIL_BOUND]
    if not passed.size:
        raise ValueError(
            f"no cutoff K <= {cuts[-1]} holds the truncation tail below {_TAIL_BOUND:g} "
            f"for degrees below {N}"
        )
    K = int(passed[0])
    amplitudes = vectors[:, probe - K:probe + K + 1]
    err = float(np.max(np.abs(amplitudes[:N] @ amplitudes[:N].T - np.eye(N))))
    if not err <= 1e-10:
        raise ValueError(
            f"degrees below {N} of the Charlier measure a = {a} are orthonormal on "
            f"their {2 * K + 1}-point lattice only to {err:.1e} in double precision"
        )
    return PeriodicBasis(measure=rec.charlier_bilateral(a, K=K), jacobi=jacobi, K=K,
                         amplitudes=amplitudes)


def _rows(basis: PeriodicBasis, x, start: int, stop: int, weights=1.0) -> np.ndarray:
    """phi_start..phi_{stop-1} at ``x``, shape (stop - start,) + x.shape.

    One product of the amplitude rows, each mode scaled by ``weights``
    (``1j * k`` differentiates), with the modes e^{ikx}, times i^n; a stack
    of weights gives a leading axis with one block of rows per weight.
    """
    if stop > basis.length + 1:
        raise ValueError(
            f"degree {stop - 1} needs {stop - 1} recurrence coefficients, basis has {basis.length}"
        )
    xs = np.asarray(x, dtype=float)
    k = np.asarray(basis.measure.points, dtype=float)
    modes = np.exp(1j * np.multiply.outer(k, xs.ravel()))  # (lattice, points)
    powers = _I_POWERS[np.arange(start, stop) % 4][:, None]
    rows = powers * ((basis.amplitudes[start:stop] * weights) @ modes)
    return rows.reshape(rows.shape[:-1] + xs.shape)


def periodic_phi(basis: PeriodicBasis, n: int, x):
    """Evaluate phi_n(x) = i^n sum_k sqrt(sigma_k) p_n(k) e^{ikx}.

    ``x`` may be a scalar or an array; the result matches its shape.  The
    lattice sum runs over |k| <= K, which resolves the series to roundoff
    by construction of the measure.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    vals = _rows(basis, x, n, n + 1)[0]
    return vals if vals.ndim else complex(vals)


def periodic_gram(basis: PeriodicBasis, N: int) -> np.ndarray:
    """Gram matrix of phi_0..phi_{N-1} by the 4K-point trapezoid rule.

    G[m, n] = (1/(2*pi)) * integral phi_m conj(phi_n) over one period.  The
    integrand is a trigonometric polynomial of degree at most 2K, so the
    uniform rule on M = 4K points, which exceeds 2K, is exact.
    """
    if N < 1:
        raise ValueError("N must be positive")
    M = 4 * basis.K
    x = 2.0 * np.pi * np.arange(M) / M - np.pi
    rows = _rows(basis, x, 0, N)  # (N, M)
    return (rows @ rows.conj().T) / M


def periodic_diff_check(basis: PeriodicBasis, N: int) -> float:
    """Largest residual of the differential recurrence for n < N.

    phi_n' is formed term by term (each lattice mode differentiates to ik
    times itself) and compared against -b_{n-1} phi_{n-1} + i c_n phi_n +
    b_n phi_{n+1} on 257 points over one period.  Both sides are exact
    finite sums, so the residual is pure roundoff.
    """
    if N < 1:
        raise ValueError("N must be positive")
    x = 2.0 * np.pi * np.arange(257) / 257 - np.pi
    k = np.asarray(basis.measure.points, dtype=float)
    # rows 0..N, so phi_N is available, and their derivatives
    phi, dphi = _rows(basis, x, 0, N + 1, np.stack([np.ones_like(k), 1j * k])[:, None])
    return _recurrence_residual(basis.jacobi, phi, dphi, N)
