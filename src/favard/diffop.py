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

When the diagonal c is exactly zero (every symmetric family: Hermite,
Legendre, ultraspherical, generalized Hermite, continuous Hahn and
tanh-Jacobi), the even/odd split of the rows turns J into the Golub-Kahan
form [[0, B], [B^T, 0]] with B an (N+1)//2-square lower bidiagonal
(``_lapack.split_bidiagonal``).  Its nodes are +-sigma for the singular
values sigma of B, and with B = Q diag(sigma) P^T the eigenvector of
+-sigma_i is [q_i; +-p_i] / sqrt2 (the centre node 0 of odd N has
[q_0; 0]).  So the operator is solved at half size and never squared: dqds
gives sigma to high relative accuracy, the same nodes as the Gauss rule,
and divide and conquer gives Q and P.  The eigensystem stays folded: only
the columns of the nodes x >= 0 are kept, as two real blocks of about
N/2 x N/2, and every product with V becomes two half-size products.
Operators with any nonzero c_n (Laguerre, MT, custom weights) keep the
full V from LAPACK's ``stemr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import singular_values, singular_vectors, split_bidiagonal
from .errors import EigenError
from .recurrence import JacobiMatrix

__all__ = ["DiffMatrix", "Eigensystem", "FoldedEigensystem", "apply", "build", "expm_apply",
           "spectral_radius"]


@dataclass(frozen=True)
class DiffMatrix:
    """Skew-Hermitian tridiagonal differentiation matrix, stored as bands.

    ``sub[m-1]`` is the entry (m, m-1) = b_{m-1} and ``diag[m]`` the
    imaginary part c_m of the entry (m, m) = i c_m; skew-Hermitian symmetry
    fixes the entry (m, m+1) = -b_m, read as ``super[m]``.  Storage is O(N).
    """

    sub: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sub", np.asarray(self.sub, dtype=float))
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        if self.diag.ndim != 1 or self.diag.size < 1:
            raise ValueError("diag must hold at least one entry")
        if self.sub.shape != (self.diag.size - 1,):
            raise ValueError("band lengths must be N-1 and N")

    @property
    def N(self) -> int:
        return self.diag.size

    @property
    def super(self) -> np.ndarray:
        """The superdiagonal -sub."""
        return -self.sub

    @cached_property
    def eigensystem(self) -> Eigensystem | FoldedEigensystem:
        """J = V diag(x) V^T for the Jacobi section J (diagonal c, off-diagonal b).

        x are the Gauss nodes of the N-point rule.  Computed on first use,
        then cached; a zero diagonal is solved at half size and kept folded
        (``_folded_eigensystem``), any other one by ``stemr``, pinned so no
        library default picks the driver.
        """
        if not np.any(self.diag):
            return _folded_eigensystem(self.sub)
        try:
            x, V = eigh_tridiagonal(self.diag, self.sub, lapack_driver="stemr")
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise EigenError(f"tridiagonal eigensolve failed for N={self.N}: {exc}") from exc
        return Eigensystem(x, _sign_columns(V))

    def dense(self) -> np.ndarray:
        """The full complex N x N matrix; for small-N checks only."""
        D = np.zeros((self.N, self.N), dtype=complex)
        np.fill_diagonal(D, 1j * self.diag)
        idx = np.arange(self.N - 1)
        D[idx + 1, idx] = self.sub
        D[idx, idx + 1] = self.super
        return D


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, **kwargs) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh_tridiagonal``, with SciPy imported on first use."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(d, e, **kwargs)


def build(J: JacobiMatrix, N: int) -> DiffMatrix:
    """Principal N x N section of the differentiation matrix for J."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > len(J):
        raise IndexError(f"need {N} coefficient pairs, have {len(J)}")
    b = np.asarray(J.b[: N - 1], dtype=float)
    return DiffMatrix(b, np.asarray(J.c[:N], dtype=float))


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
    out[:-1] -= D.sub * v[1:]
    return _rewrap(a, out)


def _real_times(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """M @ z for a real matrix M and a complex vector or matrix z.

    M acts on the real view of z, real and imaginary parts side by side
    (N x 2 for a vector): a real-times-complex product would copy M to
    complex on every call.
    """
    z = np.ascontiguousarray(z, dtype=complex)
    pairs = z.view(float).reshape(z.shape[0], 2 * math.prod(z.shape[1:]))
    return (M @ pairs).view(complex).reshape(M.shape[0], *z.shape[1:])


def _sign_columns(V: np.ndarray) -> np.ndarray:
    """V with each column signed so that V[k, i] = p_k(x_i) sqrt(lambda_i).

    The sign is read off the last row: for ascending nodes the zeros of
    p_{N-1} interlace those of p_N, so p_{N-1}(x_i) has the sign
    (-1)^{N-1-i}, and the last entry of an eigenvector of an unreduced
    tridiagonal matrix never vanishes.  The first row cannot serve: stemr
    returns V[0, i] = 0.0 exactly at tail nodes where lambda_i underflows.
    """
    N = V.shape[0]
    want = (-1.0) ** (N - 1 - np.arange(N))
    V *= np.where(V[-1] * want < 0.0, -1.0, 1.0)
    return V


class Eigensystem:
    """Ascending nodes x and products with the eigenvectors V of J = V diag(x) V^T.

    Each column of V is signed so that V[k, i] = p_k(x_i) sqrt(lambda_i)
    (see _sign_columns).
    """

    def __init__(self, x: np.ndarray, V: np.ndarray):
        self.x = x
        self._V = V

    def times(self, z: np.ndarray) -> np.ndarray:
        """V z for a complex vector, or matrix of columns, z."""
        return _real_times(self._V, z)

    def t_times(self, w: np.ndarray) -> np.ndarray:
        """V^T w for a complex vector, or matrix of columns, w."""
        return _real_times(self._V.T, w)


class FoldedEigensystem:
    """Eigensystem's products for a Jacobi section with zero diagonal, folded by parity.

    With N = 2h + r (r = N mod 2, the centre node 0) the node of column
    N-1-i is -x_i and V[k, N-1-i] = (-1)^k V[k, i].  Only the columns of the
    r + h nodes x >= 0 are kept, by row parity: U = V[0::2, h:] and
    W = V[1::2, h+r:] (the odd rows vanish at the centre); x holds all N
    ascending nodes, mirrored exactly.  A vector z over the nodes folds into
    e = (z(0), z(x) + z(-x)) and d = z(x) - z(-x), and

        V z = [U e; W d]  (even rows; odd rows),
        (V^T w)(+-x) = (U^T w_even)(x) +- (W^T w_odd)(x).
    """

    def __init__(self, x: np.ndarray, U: np.ndarray, W: np.ndarray):
        self.x, self.U, self.W = x, U, W
        self.h, self.r = x.size // 2, x.size % 2

    def fold(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(e, d) for z over the ascending nodes."""
        h, r = self.h, self.r
        lo, hi = z[:h][::-1], z[h + r:]
        return np.concatenate((z[h:h + r], hi + lo)), hi - lo

    def unfold(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The vector over the ascending nodes that is a + b at x, a - b at -x, a at 0."""
        r = self.r
        return np.concatenate(((a[r:] - b)[::-1], a[:r], a[r:] + b))

    def times(self, z: np.ndarray) -> np.ndarray:
        """V z for a complex vector z."""
        e, d = self.fold(z)
        out = np.empty(self.x.size, dtype=complex)
        out[0::2] = _real_times(self.U, e)
        out[1::2] = _real_times(self.W, d)
        return out

    def t_times(self, w: np.ndarray) -> np.ndarray:
        """V^T w for a complex vector w."""
        return self.unfold(_real_times(self.U.T, w[0::2]), _real_times(self.W.T, w[1::2]))


def _folded_eigensystem(b: np.ndarray) -> FoldedEigensystem:
    """The folded eigensystem of the Jacobi section with zero diagonal and off-diagonal b.

    With B = Q diag(sigma) P^T (``_lapack.split_bidiagonal``; sigma from dqds,
    Q and P from divide and conquer), U holds the columns q_i / sqrt2 and W
    the columns p_i / sqrt2, ascending in sigma; the centre column q_0 of odd
    N is kept whole and its padded p_0 dropped.  Each pair (q_i, p_i) is
    signed together by _sign_columns' last-row rule, read from the block that
    holds row N-1.
    """
    N = b.size + 1
    h, r = N // 2, N % 2
    d, e = split_bidiagonal(b, N)
    sigma = singular_values(d, e)[::-1]
    Q, P = singular_vectors(d, e)
    Q, P = Q[:, ::-1], P[:h, ::-1][:, r:]
    last = Q[-1] if r else P[-1]
    want = (-1.0) ** (N - 1 - h - np.arange(h + r))
    scale = np.full(h + r, np.sqrt(0.5))
    scale[:r] = 1.0
    scale[last * want < 0.0] *= -1.0
    return FoldedEigensystem(np.concatenate((-sigma[r:][::-1], sigma)), Q * scale, P * scale[r:])


# i^n by n mod 4, and (-i)^n = _I_POWERS[-n % 4]; bit for bit the values
# of 1j ** (n % 4) and (-1j) ** (n % 4), signed zeros included
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def _to_spectral(D: DiffMatrix, v: np.ndarray) -> np.ndarray:
    """V^T S^-1 v with S = diag((-i)^n): coefficients in D's eigenbasis."""
    return D.eigensystem.t_times(_I_POWERS[np.arange(D.N) % 4] * v)


def _from_spectral(D: DiffMatrix, z: np.ndarray) -> np.ndarray:
    """S V z: the inverse of _to_spectral."""
    return _I_POWERS[-np.arange(D.N) % 4] * D.eigensystem.times(z)


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
    return _rewrap(a, _eigen_apply(D, np.exp(1j * tau * D.eigensystem.x), v))


def spectral_radius(D: DiffMatrix) -> float:
    """max |eigenvalue| of D.

    The eigenvalues of D are i times those of the Jacobi truncation J, so
    this is the largest-magnitude Gauss node of the underlying N-point rule.
    """
    return float(np.max(np.abs(D.eigensystem.x)))


def _recurrence_residual(J: JacobiMatrix, phi: np.ndarray, dphi: np.ndarray, N: int) -> float:
    """max over n < N of |phi_n' + b_{n-1} phi_{n-1} - i c_n phi_n - b_n phi_{n+1}|.

    ``phi`` holds rows phi_0..phi_N and ``dphi`` the derivatives of at
    least the first N, each row on the same points: the differential
    recurrence that D_N truncates, read off sampled rows.
    """
    b, c = J.b[:N, None], J.c[:N, None]
    rhs = 1j * c * phi[:N] + b * phi[1:N + 1]
    rhs[1:] -= b[:-1] * phi[:N - 1]
    return float(np.max(np.abs(dphi[:N] - rhs)))
