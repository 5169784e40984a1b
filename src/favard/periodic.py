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
sums to full double precision.  ``charlier_basis`` is what
``make_basis("charlier:<a>", N)`` returns: a ``TransformedBasis`` on the
lattice measure whose closed table is a ``LatticeTable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis as basis_mod
from . import recurrence as rec
from .diffop import _I_POWERS

__all__ = [
    "LatticeTable",
    "charlier_basis",
    "periodic_phi",
    "periodic_gram",
]


@dataclass(frozen=True, eq=False)
class LatticeTable:
    """The closed table of a lattice system: phi_n(x) = i^n sum_k A[n, k] e^{ikx}.

    ``amplitudes`` holds the (N + 1) x (2K + 1) Fourier coefficients
    A[n, k] = sqrt(sigma_k) p_n(k) of phi_0..phi_N on the lattice
    |k| <= K.  Called as ``closed_table(nmax, x)`` it returns rows
    0..nmax, shape (nmax + 1, len(x)); ``with_derivative`` also returns
    their derivatives, exact on the Fourier side.
    """

    amplitudes: np.ndarray

    def __call__(self, nmax: int, x) -> np.ndarray:
        return self._sums(nmax, x, np.ones((1, self.amplitudes.shape[1])))[0]

    def with_derivative(self, nmax: int, x) -> tuple[np.ndarray, np.ndarray]:
        """Rows 0..nmax and their derivatives: e^{ikx} differentiates to ik e^{ikx}."""
        k = self._lattice()
        return tuple(self._sums(nmax, x, np.stack([np.ones_like(k), 1j * k])))

    def _lattice(self) -> np.ndarray:
        K = self.amplitudes.shape[1] // 2
        return np.arange(-K, K + 1.0)

    def _sums(self, nmax: int, x, weights: np.ndarray) -> np.ndarray:
        """i^n sum_k w_k A[n, k] e^{ikx} for n <= nmax and each row w of
        ``weights``, shape (len(weights), nmax + 1, len(x)): one product of
        the weighted amplitude rows with the modes."""
        if nmax >= len(self.amplitudes):
            raise ValueError(f"degree {nmax} needs {nmax} recurrence coefficients, "
                             f"basis has {len(self.amplitudes) - 1}")
        xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        modes = np.exp(1j * np.multiply.outer(self._lattice(), xs))  # (lattice, points)
        sums = (self.amplitudes[:nmax + 1] * weights[:, None, :]) @ modes
        return _I_POWERS[np.arange(nmax + 1) % 4][:, None] * sums


# The largest share sum_{|k|>K} A[n, k]^2 of a degree n < N that a cutoff
# K may leave off its lattice.
_TAIL_BOUND = 1e-20


def charlier_basis(a: float, N: int = 32) -> basis_mod.TransformedBasis:
    """``charlier:<a>``: the periodic basis of the bilateral Charlier measure.

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
    return basis_mod.TransformedBasis(f"charlier:{a!r}", rec.charlier_bilateral(a, K=K), jacobi,
                                      closed_table=LatticeTable(amplitudes))


def periodic_phi(basis: basis_mod.TransformedBasis, n: int, x):
    """phi_n(x) of a lattice basis: ``basis.phi``."""
    return basis_mod.phi(basis, n, x)


def periodic_gram(basis: basis_mod.TransformedBasis, N: int) -> np.ndarray:
    """Gram matrix of phi_0..phi_{N-1} by the 4K-point trapezoid rule of ``verify.check_gram``."""
    from . import verify

    return verify._rule_gram(basis, N)[0]
