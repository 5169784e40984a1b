"""Truncated differentiation matrices D_N and the operators built from them.

In a transformed basis the derivative acts on expansion coefficients as the
skew-Hermitian tridiagonal matrix with D_{m,m-1} = b_{m-1}, D_{m,m} = i c_m,
D_{m,m+1} = -b_m, the principal N x N section of the differential recurrence.
With S = diag((-i)^n) and J the N x N Jacobi matrix (diagonal c,
off-diagonal b), D = S (i J) S^-1.  One real eigensystem J = V diag(x) V^T,
computed once per DiffMatrix and cached, therefore diagonalizes every
function of D: e^{t P(D)} for a polynomial P is the factor e^{t P(i x)}
on the Gauss nodes x (translation is P(z) = z, the free Schroedinger flow
i z^2, heat z^2), and the spectral radius is max |x|.

When the diagonal c is exactly zero (every symmetric family: Hermite,
Legendre, ultraspherical, generalized Hermite, continuous Hahn,
tanh-Jacobi and the Charlier lattice), D is real skew-symmetric and the eigensystem is its real
Schur form (Ward & Gray, ACM TOMS 4, 1978).  The even/odd split of the rows
turns J into the Golub-Kahan form [[0, B], [B^T, 0]] with B an
(N+1)//2-square lower bidiagonal (``_lapack.split_bidiagonal``); its nodes
are +-sigma for the singular values sigma of B = Q diag(sigma) P^T (the
centre node 0 of odd N has q_0 alone).  dqds gives sigma to high relative
accuracy, the same nodes as the Gauss rule, and divide and conquer gives Q
and P.  With the signs of S folded into their rows, Q and P are the two
blocks of D's orthogonal real Schur vectors, in which D is
diag([[0, -sigma_i], [sigma_i, 0]]): in the coordinates
(a, b) = (Q^T v_even, P^T v_odd), e^{tau D} turns each pair
(a_i, b_i) by the angle tau sigma_i, and an even function such as the free
flow is one factor on both.  Every product is half size and real.
Operators with any nonzero c_n (Laguerre, MT, custom weights) keep the
full V from LAPACK's ``dstemr``, its rows signed the same way.

Either way the nodes x are ``DiffMatrix.nodes``, from the one node solve
``_lapack.gauss_nodes`` that ``quadrature.golub_welsch`` reads too, so D's
spectrum is the Gauss rule's nodes bit for bit, and the spectral radius
needs no vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._lapack import eigenvectors, gauss_nodes, singular_vectors, split_bidiagonal
from .recurrence import JacobiMatrix

__all__ = ["DiffMatrix", "Eigensystem", "FoldedEigensystem", "apply", "build", "expm_apply",
           "flow", "spectral_radius"]


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
        if not (np.isfinite(self.sub).all() and np.isfinite(self.diag).all()):
            raise ValueError("bands must be finite")

    @property
    def N(self) -> int:
        return self.diag.size

    @property
    def super(self) -> np.ndarray:
        """The superdiagonal -sub."""
        return -self.sub

    @cached_property
    def nodes(self) -> np.ndarray:
        """The ascending eigenvalues x of the Jacobi section J (diagonal c,
        off-diagonal b): the Gauss nodes of the N-point rule, from
        ``_lapack.gauss_nodes``.  Computed on first use, then cached."""
        return gauss_nodes(self.diag, self.sub)

    @cached_property
    def eigensystem(self) -> Eigensystem | FoldedEigensystem:
        """J = V diag(x) V^T over ``nodes`` x.

        Computed on first use, then cached; a zero diagonal is solved at half
        size into the real Schur form (``_folded_eigensystem``), any other one
        by ``dstemr``, whose vectors are paired with the nodes in ascending
        order.
        """
        if not np.any(self.diag):
            return _folded_eigensystem(self.nodes, self.sub)
        return Eigensystem(self.nodes, _sign_columns(eigenvectors(self.diag, self.sub)))

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
    return DiffMatrix(J.b[:N - 1], J.c[:N])


def _vector_of(a, N: int | None = None) -> np.ndarray:
    """The values of a as a complex vector; ValueError unless it has N of them, when N is given."""
    v = np.asarray(getattr(a, "values", a), dtype=complex)
    if N is not None and v.shape != (N,):
        raise ValueError(f"coefficient length {v.shape} does not match N={N}")
    return v


def _rewrap(a, values: np.ndarray):
    wrap = getattr(a, "with_values", None)
    return wrap(values) if wrap is not None else values


def apply(D: DiffMatrix, a):
    """Coefficients of u' given coefficients a of u; O(N).

    Accepts a plain complex vector or a CoefficientVector and returns the
    same kind.
    """
    v = _vector_of(a, D.N)
    out = 1j * D.diag * v
    out[1:] += D.sub * v[:-1]
    out[:-1] -= D.sub * v[1:]
    return _rewrap(a, out)


def _real_times(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """M @ z for a complex vector or matrix z.

    A real M acts on the real view of z, real and imaginary parts side by
    side (N x 2 for a vector): a real-times-complex product would copy M to
    complex on every call.
    """
    if np.iscomplexobj(M):
        return M @ z
    z = np.ascontiguousarray(z, dtype=complex)
    pairs = z.view(float).reshape(z.shape[0], 2 * math.prod(z.shape[1:]))
    return np.matmul(M, pairs).view(complex).reshape(M.shape[0], *z.shape[1:])


def _pairs(z: np.ndarray) -> np.ndarray:
    """The real (..., 2) view of a contiguous complex array: real and imaginary parts."""
    return z.view(float).reshape(*z.shape, 2)


def _occupied(v: np.ndarray) -> int:
    """1 + the index of the last nonzero entry along the last axis of v, in
    any vector of a stack; 0 when v holds zeros only."""
    if v[..., -1].any():
        return v.shape[-1]
    nonzero = np.flatnonzero(v.any(axis=tuple(range(v.ndim - 1))) if v.ndim > 1 else v)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _row_signs(N: int) -> np.ndarray:
    """(-1)^(k//2) for k < N: S = diag((-i)^k) is this sign times -i on the odd rows."""
    return np.where(np.arange(N) % 4 < 2, 1.0, -1.0)


def _last_row_signs(last: np.ndarray) -> np.ndarray:
    """+-1 per column, so that V[k, i] = p_k(x_i) sqrt(lambda_i), from ``last``, the
    last row (k = N-1) of the columns of the len(last) largest nodes, ascending.

    The zeros of p_{N-1} interlace those of p_N, so p_{N-1}(x_i) has the sign
    (-1)^{N-1-i}, and the last entry of an eigenvector of an unreduced
    tridiagonal matrix never vanishes.  The first row cannot serve: dstemr
    returns V[0, i] = 0.0 exactly at tail nodes where lambda_i underflows.
    """
    return np.where(last * (-1.0) ** np.arange(last.size - 1, -1, -1) < 0.0, -1.0, 1.0)


def _sign_columns(V: np.ndarray) -> np.ndarray:
    """V, the eigenvectors of all N nodes, each column signed in place by ``_last_row_signs``."""
    V *= _last_row_signs(V[-1])
    return V


class Eigensystem:
    """D's coordinates z = V^T S^-1 v over the ascending nodes x of J = V diag(x) V^T.

    Each column of V is signed so that V[k, i] = p_k(x_i) sqrt(lambda_i)
    (see _sign_columns).  S's row sign is folded into the stored rows,
    R = diag((-1)^(k//2)) V, so S^-1 leaves only a factor i on the odd rows.
    """

    def __init__(self, x: np.ndarray, V: np.ndarray):
        self.x = self.coord_nodes = x
        self.R = _row_signs(x.size)[:, None] * V
        self._i_odd, self._flow = np.where(np.arange(x.size) % 2, 1j, 1.0), (None,)

    def enter(self, v: np.ndarray) -> np.ndarray:
        """V^T S^-1 v, reading the rows up to the last nonzero coefficient only."""
        n = _occupied(v)
        return _real_times(self.R[:n].T, (v[..., :n] * self._i_odd[:n]).T).T

    def leave(self, z: np.ndarray) -> np.ndarray:
        """S V z: the inverse of enter."""
        v = _real_times(self.R, z.T).T
        v[..., 1::2] *= -1j
        return v


class FoldedEigensystem:
    """The real Schur form of D for a zero diagonal: orthogonal blocks Q, P by row parity.

    With N = 2h + r (r = N mod 2, the centre node 0), x holds all N
    ascending nodes, mirrored exactly, and coord_nodes the m = h + r nodes
    x >= 0.  Q (m columns) acts on the even rows of a coefficient vector and
    P (h columns, no centre) on the odd rows, S's row sign (-1)^(k//2)
    folded into both.  Each vector v of a stack has the coordinates
    f = [Q^T v_even; P^T v_odd], 2 x m with 0 in the odd row's centre slot,
    and v = [Q f_0; P f_1] by rows.  For z = V^T S^-1 v over the nodes,
    f_0 = (z(x) + z(-x)) / sqrt2 (z(0) at the centre) and
    f_1 = -i (z(x) - z(-x)) / sqrt2.
    """

    def __init__(self, x: np.ndarray, Q: np.ndarray, P: np.ndarray):
        self.x, self.Q, self.P, self._flow = x, Q, P, (None,)
        self.h, self.r = x.size // 2, x.size % 2
        self.coord_nodes = x[self.h:]

    def enter(self, v: np.ndarray) -> np.ndarray:
        """f for v: two real products reading the rows up to the last nonzero coefficient only."""
        n = _occupied(v)
        f = np.zeros(v.shape[:-1] + (2, self.h + self.r), dtype=complex)
        pairs, out = _pairs(np.ascontiguousarray(v, dtype=complex)), _pairs(f)
        np.matmul(self.Q[:(n + 1) // 2].T, pairs[..., 0:n:2, :], out=out[..., 0, :, :])
        np.matmul(self.P[:n // 2].T, pairs[..., 1:n:2, :], out=out[..., 1, self.r:, :])
        return f

    def leave(self, f: np.ndarray) -> np.ndarray:
        """The coefficients [Q f_0; P f_1] of f: the inverse of enter."""
        v = np.empty(f.shape[:-2] + (self.x.size,), dtype=complex)
        pairs, out = _pairs(np.ascontiguousarray(f)), _pairs(v)
        np.matmul(self.Q, pairs[..., 0, :, :], out=out[..., 0::2, :])
        np.matmul(self.P, pairs[..., 1, self.r:, :], out=out[..., 1::2, :])
        return v


_TURN = np.array([[-1.0], [1.0]])  # (f_0, f_1) -> (-f_1, f_0), a quarter turn, with f[::-1]


def _folded_eigensystem(x: np.ndarray, b: np.ndarray) -> FoldedEigensystem:
    """The real Schur form of the Jacobi section with zero diagonal, off-diagonal b and nodes x.

    The nodes x >= 0 are the singular values sigma of B = Q diag(sigma) P^T
    (``_lapack.split_bidiagonal``), and Q and P come from divide and
    conquer; the columns are put in ascending sigma.  The centre column q_0
    of odd N has no partner in P, whose padded row and column are dropped.
    Each pair (q_i, p_i) is signed together by ``_last_row_signs``, read from
    the block that holds row N-1; then the rows take S's sign.
    """
    N = b.size + 1
    h, r = N // 2, N % 2
    Q, P = singular_vectors(*split_bidiagonal(b, N))
    Q, P = Q[:, ::-1], P[:h, ::-1][:, r:]
    flip = _last_row_signs(Q[-1] if r else P[-1])
    rows = _row_signs(N)[:, None]
    return FoldedEigensystem(x, rows[0::2] * Q * flip, rows[1::2] * P * flip[r:])


# i^n by n mod 4, and (-i)^n = _I_POWERS[-n % 4]; bit for bit the values
# of 1j ** (n % 4) and (-1j) ** (n % 4), signed zeros included
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])
_LOG_MAX = math.log(np.finfo(float).max)  # e^y overflows past it


def _horner(t: float, c: list, x: np.ndarray) -> np.ndarray:
    """sum_k (t c[k]) x^k by Horner's rule in x, skipping zero c[k]: ((t c[2]) x) x for c[2] x^2."""
    y = t * c[-1]
    for ck in c[-2::-1]:
        y = y * x + t * ck if ck else y * x
    return y


@lru_cache(maxsize=64)
def _terms(P: tuple, folds: bool) -> tuple:
    """P(i x) = sum_k q_k x^k, q_k = P[k] i^k: the q_k, or when D folds the even q_k and
    the angles Im q_k of the odd ones, None for none; ValueError for a complex odd P[k]."""
    k, P = np.arange(len(P)), np.asarray(P, dtype=complex)
    if np.any(P[1::2].imag):
        raise ValueError(f"P's odd coefficients must be real, got P = {tuple(P.tolist())}")
    q, odd = P * _I_POWERS[k % 4], (k % 2 == 1) & folds
    return tuple(c.tolist() if c.any() else None
                 for c in (np.where(odd, 0, q), np.where(odd, q.imag, 0)))


def _factors(eig, t: float, P) -> tuple:
    """(m, cos, sin) of e^{t P(D)} in eig's coordinates (see ``flow``), None for a
    part that P lacks; those of the last (t, P) stay in eig._flow for the next call."""
    if eig._flow[0] != (key := (t, tuple(P))):
        even, odd = _terms(key[1], isinstance(eig, FoldedEigensystem))
        x, bound = eig.coord_nodes, 0.0
        for ck in key[1][::-1]:  # |t P(i x)| and each Horner partial sum stay below bound
            bound = bound * max(1.0, -float(x[0]), float(x[-1])) + abs(float(t) * complex(ck))
        y = None if even is None or not bound < 1e300 else _horner(t, even, x)
        if not bound < 1e300 or (y is not None and any(ck.real for ck in even)
                                 and np.max(y.real) > _LOG_MAX):
            raise ValueError(f"e^(t P(D)) overflows at t = {t}")
        theta = None if odd is None else _horner(t, odd, x)
        turn = (None, None) if odd is None else (np.cos(theta), _TURN * np.sin(theta))
        eig._flow = key, (None if y is None else np.exp(y), *turn)
    return eig._flow[1]


def flow(D: DiffMatrix, t: float, P, a):
    """e^{t P(D)} a for the polynomial P(z) = sum_k P[k] z^k, its odd coefficients real.

    In the cached eigensystem's coordinates it is the factor e^{t P(i x)} at
    the Gauss nodes x, by Horner's rule on t P[k] i^k; for a zero diagonal
    P's even part is one factor on both rows and its odd part turns each
    pair.  ValueError when a factor overflows or |t P(i x)| could pass 1e300.
    """
    v = _vector_of(a, D.N)
    eig = D.eigensystem
    m, cos, sin = _factors(eig, t, P)
    z = eig.enter(v) if m is None else m * eig.enter(v)
    if cos is not None:
        z = z * cos + z[::-1] * sin
    return _rewrap(a, eig.leave(z))


def expm_apply(D: DiffMatrix, tau: float, a):
    """e^{tau D} a, translation by tau: ``flow`` with P(z) = z, unitary to rounding."""
    return flow(D, tau, (0, 1), a)


def spectral_radius(D: DiffMatrix) -> float:
    """max |eigenvalue| of D: D's eigenvalues are i times the Gauss nodes ``D.nodes``
    of the N-point rule, so this is the largest |node|, with no eigenvector solved for."""
    return float(np.max(np.abs(D.nodes)))


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
