"""Truncated differentiation matrices D_N and the operators built from them.

In a transformed basis the derivative acts on expansion coefficients as the
skew-Hermitian tridiagonal matrix with D_{m,m-1} = b_{m-1}, D_{m,m} = i c_m,
D_{m,m+1} = -b_m, the principal N x N section of the differential recurrence.
With S = diag((-i)^n) and J the N x N Jacobi matrix (diagonal c,
off-diagonal b), D = S (i J) S^-1.  One real eigensystem J = V diag(x) V^T,
computed once per DiffMatrix and cached, therefore diagonalizes every
function of D: e^{tau D} is the phase tau x on the Gauss nodes x, the free
Schroedinger flow e^{i t D^2} the phase -t x^2, and the spectral radius is
max |x|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import EigenError
from .recurrence import JacobiMatrix

__all__ = ["DiffMatrix", "apply", "build", "expm_apply", "spectral_radius"]


@dataclass(frozen=True)
class DiffMatrix:
    """Skew-Hermitian tridiagonal differentiation matrix, stored as bands.

    ``sub[m-1]`` is the entry (m, m-1) = b_{m-1}, ``diag[m]`` the imaginary
    part c_m of the entry (m, m) = i c_m, and ``super[m]`` the entry
    (m, m+1) = -b_m; storage is O(N).
    """

    sub: np.ndarray
    diag: np.ndarray
    super: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sub", np.asarray(self.sub, dtype=float))
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "super", np.asarray(self.super, dtype=float))
        if self.diag.ndim != 1 or self.diag.size < 1:
            raise ValueError("diag must hold at least one entry")
        if self.sub.shape != (self.diag.size - 1,) or self.super.shape != self.sub.shape:
            raise ValueError("band lengths must be N-1, N, N-1")

    @property
    def N(self) -> int:
        return self.diag.size

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, V) with J = V diag(x) V^T for the Jacobi section J.

        J has diagonal c and off-diagonal b, so x are the Gauss nodes of the
        N-point rule.  Computed on first use, then cached; the LAPACK driver
        is pinned so no library default picks it.
        """
        try:
            return eigh_tridiagonal(self.diag, self.sub, lapack_driver="stemr")
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise EigenError(f"tridiagonal eigensolve failed for N={self.N}: {exc}") from exc

    def dense(self) -> np.ndarray:
        """The full complex N x N matrix; for small-N checks only."""
        D = np.zeros((self.N, self.N), dtype=complex)
        np.fill_diagonal(D, 1j * self.diag)
        idx = np.arange(self.N - 1)
        D[idx + 1, idx] = self.sub
        D[idx, idx + 1] = self.super
        return D


def build(J: JacobiMatrix, N: int) -> DiffMatrix:
    """Principal N x N section of the differentiation matrix for J."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > len(J):
        raise IndexError(f"need {N} coefficient pairs, have {len(J)}")
    b = np.asarray(J.b[: N - 1], dtype=float)
    return DiffMatrix(b, np.asarray(J.c[:N], dtype=float), -b)


def _vector_of(a) -> np.ndarray:
    values = getattr(a, "values", a)
    return np.asarray(values, dtype=complex)


def _rewrap(a, values: np.ndarray):
    wrap = getattr(a, "with_values", None)
    return wrap(values) if wrap is not None else values


def apply(D: DiffMatrix, a):
    """Coefficients of u' given coefficients a of u; O(N).

    Accepts a plain complex vector or a CoefficientVector and returns the
    same kind.
    """
    v = _vector_of(a)
    if v.shape != (D.N,):
        raise ValueError(f"coefficient length {v.shape} does not match N={D.N}")
    out = 1j * D.diag * v
    out[1:] += D.sub * v[:-1]
    out[:-1] += D.super * v[1:]
    return _rewrap(a, out)


def _real_times(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """M @ z for a real matrix M and a complex vector z.

    M acts on the N x 2 stack of real and imaginary parts: a real-times-complex
    product would copy M to complex on every call.
    """
    y = M @ np.column_stack((z.real, z.imag))
    return y[:, 0] + 1j * y[:, 1]


def _to_spectral(D: DiffMatrix, v: np.ndarray) -> np.ndarray:
    """V^T S^-1 v with S = diag((-i)^n): coefficients in D's eigenbasis."""
    _, V = D.eigensystem
    return _real_times(V.T, 1j ** (np.arange(D.N) % 4) * v)


def _from_spectral(D: DiffMatrix, z: np.ndarray) -> np.ndarray:
    """S V z: the inverse of _to_spectral."""
    _, V = D.eigensystem
    return (-1j) ** (np.arange(D.N) % 4) * _real_times(V, z)


def _eigen_apply(D: DiffMatrix, factor: np.ndarray, v: np.ndarray) -> np.ndarray:
    """f(D) v = S V diag(factor) V^T S^-1 v, factor holding f at D's eigenvalues i x."""
    return _from_spectral(D, factor * _to_spectral(D, v))


def expm_apply(D: DiffMatrix, tau: float, a):
    """e^{tau D} a, unitary to rounding.

    e^{tau D} = S V diag(e^{i tau x}) V^T S^-1 from the cached eigensystem:
    translation by tau is a phase on the Gauss nodes x.
    """
    v = _vector_of(a)
    if v.shape != (D.N,):
        raise ValueError(f"coefficient length {v.shape} does not match N={D.N}")
    x, _ = D.eigensystem
    return _rewrap(a, _eigen_apply(D, np.exp(1j * tau * x), v))


def spectral_radius(D: DiffMatrix) -> float:
    """max |eigenvalue| of D.

    The eigenvalues of D are i times those of the Jacobi truncation J, so
    this is the largest-magnitude Gauss node of the underlying N-point rule.
    """
    return float(np.max(np.abs(D.eigensystem[0])))
