"""Gauss quadrature from recurrence coefficients, and the oscillatory transform:
the one quadrature route to the Fourier integrals that define phi_n for a
family without a closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _panels
from ._lapack import singular_values, split_bidiagonal
from .errors import AccuracyError, EigenError
from .recurrence import JacobiMatrix, MeasureSpec, _truncated_interval, eval_poly_table

__all__ = ["QuadratureRule", "golub_welsch", "integrate", "oscillatory_transform"]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss rule for a unit-mass measure: nodes ascending, weights non-negative.

    A weight is zero only where the true Gauss weight lies below the smallest
    normal double (``np.finfo(float).tiny``); every other weight carries
    relative accuracy.
    """

    nodes: np.ndarray
    weights: np.ndarray


# Bound, in bits, on the growth of max(|p_k|, |p_{k-1}|) between two
# rescalings of the Christoffel sum: squares stay below 2^960, so a sum of
# up to 2^60 of them cannot overflow.
_GROWTH_BITS = 480.0
# Recurrence steps per block; the squares of a block are summed at once.
_BLOCK = 32


def _christoffel_log_weights(nodes: np.ndarray, jacobi: JacobiMatrix, N: int) -> np.ndarray:
    """log(1 / sum_{k<N} p_k(x_i)^2) at nodes x_i of the N-point rule.

    The nodes may be all N of them or, for a zero diagonal, the nonnegative
    ones: the sum is even in x there, so the weights mirror exactly.

    Every term of the sum is positive and each p_k(x_i) comes from the
    orthonormal recurrence, so the weights carry relative accuracy however
    small they are (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004, sec. 3.1).  A per-node power-of-two scale keeps the
    values in range for any N: a rescale happens only when a precomputed
    bound on the growth since the last one would exceed ``_GROWTH_BITS``.
    """
    n, m = N - 1, nodes.size
    b, c = jacobi.b[:n], jacobi.c[:n]
    inv_b = 1.0 / b
    b_prev = np.concatenate(([0.0], b[:-1]))
    # p_{k+1} = (x - c_k) / b_k * p_k - b_{k-1} / b_k * p_{k-1}; at every
    # node |p_{k+1}| <= growth_k * max(|p_k|, |p_{k-1}|).
    reach = np.maximum(np.abs(nodes[-1] - c), np.abs(nodes[0] - c))
    growth = np.log2(np.maximum((reach + b_prev) * inv_b, 1.0)).tolist()
    ratio = (b_prev * inv_b).tolist()
    prev, cur = np.zeros(m), np.ones(m)
    total = np.ones(m)  # sum of p_k^2 so far, in units of 4^exps
    exps = np.zeros(m)
    rows = np.empty((_BLOCK, m))
    k0, bits = 0, 0.0
    while k0 < n:
        if bits + growth[k0] > _GROWTH_BITS:
            e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))[1]
            cur, prev, total = np.ldexp(cur, -e), np.ldexp(prev, -e), np.ldexp(total, -2 * e)
            exps += e
            bits = 0.0
        k1 = k0
        # a block takes at least one step, so a single step's bound above
        # _GROWTH_BITS cannot stall the loop
        while k1 < n and k1 - k0 < _BLOCK and (k1 == k0 or bits + growth[k1] <= _GROWTH_BITS):
            bits += growth[k1]
            k1 += 1
        block = rows[: k1 - k0]
        scaled = np.subtract(nodes, c[k0:k1, None])
        scaled *= inv_b[k0:k1, None]
        for j, row in enumerate(block):
            np.multiply(scaled[j], cur, out=row)
            row -= ratio[k0 + j] * prev
            prev, cur = cur, row
        # keep the last two rows before the block buffer is reused
        prev, cur = prev.copy(), cur.copy()
        np.square(block, out=block)
        total += block.sum(axis=0)
        k0 = k1
    return -np.log(total) - (2.0 * math.log(2.0)) * exps


def _unit_weights(log_w: np.ndarray) -> np.ndarray:
    """Weights e^{log_w} scaled to unit sum; those below the smallest normal double are 0.0."""
    weights = np.exp(log_w - log_w.max())
    weights /= weights.sum()
    weights[weights < np.finfo(float).tiny] = 0.0
    return weights


def golub_welsch(jacobi: JacobiMatrix, N: int) -> QuadratureRule:
    """N-point Gauss rule from the leading N x N block of the Jacobi matrix.

    With a zero diagonal (every symmetric family) the block is, after the
    even/odd split of its rows, [[0, B], [B^T, 0]] for an (N+1)//2-square
    lower bidiagonal B (``_lapack.split_bidiagonal``), and the nodes are
    +-sigma for the singular values sigma of B.  These come from dqds
    (LAPACK ``dlasq1``), which works on B itself and gives every sigma,
    the smallest included, to high relative accuracy; the centre node of
    odd N is exactly 0 and the nodes mirror exactly.  Any other diagonal
    takes the eigenvalues of the block from LAPACK ``sterf``.  Both drivers
    are pinned, so no library default decides them.  Weights come from the
    Christoffel sum w_i = 1 / sum_{k<N} p_k(x_i)^2 over the normalized
    recurrence rather than from squared eigenvector entries: they carry
    relative accuracy, so tail weights far below 1e-16 are right to about
    1e-11 of their own size (Hermite, N up to 4096), not merely small.  On
    the split route the sum runs over the nodes x >= 0 only and the weights
    are mirrored, so they too are exactly symmetric.  Weights are
    normalized to unit sum; a weight whose true value is below
    ``np.finfo(float).tiny`` is returned as 0.0, since a subnormal cannot
    carry relative accuracy.  The rule depends on ``jacobi`` and N alone
    and integrates polynomials of degree <= 2N - 1 exactly against the
    measure ``jacobi`` comes from.
    """
    nodes, log_w = _gauss_log_rule(jacobi, N)
    return QuadratureRule(nodes=nodes, weights=_unit_weights(log_w))


def _gauss_log_rule(jacobi: JacobiMatrix, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log Christoffel weights of ``golub_welsch``'s N-point rule.

    The weights are log(1 / sum_{k<N} p_k(x_i)^2), unnormalized and never
    clipped, so a caller that divides them by a tiny function value keeps
    their relative accuracy where the unit weights are 0.0.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    if N > len(jacobi):
        raise IndexError(f"need {N} coefficient pairs, have {len(jacobi)}")
    if N == 1:
        return np.array([jacobi.c[0]]), np.zeros(1)
    if not np.any(jacobi.c[:N]):
        r = N % 2
        half = singular_values(*split_bidiagonal(jacobi.b, N))[::-1]
        log_w = _christoffel_log_weights(half, jacobi, N)
        return (np.concatenate((-half[r:][::-1], half)),
                np.concatenate((log_w[r:][::-1], log_w)))
    from scipy.linalg import eigvalsh_tridiagonal

    try:
        # JacobiMatrix has already checked that its coefficients are finite
        nodes = eigvalsh_tridiagonal(jacobi.c[:N], jacobi.b[: N - 1], check_finite=False,
                                     lapack_driver="sterf")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenError(f"tridiagonal eigensolve failed for N={N}: {exc}") from exc
    return nodes, _christoffel_log_weights(nodes, jacobi, N)


def integrate(f, rule: QuadratureRule) -> float | complex:
    """Integral of f against the rule's measure: sum of w_i f(x_i)."""
    vals = np.asarray(f(rule.nodes))
    if not np.all(np.isfinite(vals)):
        bad = int(np.nonzero(~np.isfinite(np.atleast_1d(vals)))[0][0])
        raise ValueError(f"integrand non-finite at node {rule.nodes[bad]!r}")
    total = np.sum(rule.weights * vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


_SQRT_2PI = math.sqrt(2.0 * math.pi)
# The largest gap between two refinement levels at which the transform
# accepts the finer one (``oscillatory_transform``).
_TOL = 1e-10


def _transform_interval(measure: MeasureSpec, degree: int) -> tuple[float, float]:
    """The truncated support [lo, hi] the transform of rows 0..degree integrates over.

    An infinite side is cut where sqrt(w) max(1, |xi|)^degree falls below
    1e-18 of its scanned maximum (``_panels.truncation_point``), from the
    square roots of the measure's one weight scan (``MeasureSpec.tails``).
    """
    with np.errstate(invalid="ignore"):
        roots = {side: np.sqrt(vals) for side, vals in measure.tails().items()}
    return _truncated_interval(measure.support, roots, degree)


def _transform_edges(measure, interval, degree, freq, refine, half=False):
    """Panel edges on the truncated support ``interval`` at refinement level ``refine``.

    ``interval`` is ``_transform_interval(measure, degree)``.  Level 0 takes
    panels at most min(4 pi / (1 + freq), 4 (hi - lo) / max(8, degree))
    wide, about 16 Gauss nodes per wavelength of e^{i x xi} at the largest
    |x|; each level halves the width.  With ``half`` the edges cover
    [0, hi] only, with the panel width of the whole rule, grading toward 0
    when 0 is a breakpoint: for a symmetric measure the rule on them, with
    doubled weights, stands for the whole line.
    """
    lo, hi = interval
    support, breakpoints = measure.support, measure.breakpoints
    width = 4.0 * min((hi - lo) / max(8, degree), math.pi / (1.0 + freq)) / 2.0**refine
    return _panels.build_edges(
        0.0 if half else lo,
        hi,
        width=width,
        grade_lo=0.0 in breakpoints if half else np.isfinite(support[0]),
        grade_hi=np.isfinite(support[1]),
        interior=breakpoints,
    )


def _unit_phase(arg: np.ndarray) -> np.ndarray:
    """e^{i arg} from one cosine and one sine per entry."""
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _times(table: np.ndarray, factor: np.ndarray, out: np.ndarray) -> None:
    """out = table @ factor for a complex factor; a real table takes one real product."""
    if np.iscomplexobj(table):
        np.matmul(table, factor, out=out)
    else:
        np.matmul(table, factor.view(float), out=out.view(float))


def oscillatory_transform(jacobi: JacobiMatrix, nmax: int, measure: MeasureSpec, x, *,
                          phase=None) -> np.ndarray:
    """Rows (1/sqrt(2 pi)) integral e^{i x xi} p_n(xi) sqrt(w(xi)) d xi, n = 0..nmax.

    ``p_n`` are the orthonormal polynomials of ``jacobi`` and w is the
    weight of the continuous ``measure``; for the points of the flat array
    ``x`` the result has shape (nmax+1, len(x)).  One rule of Gauss panels
    on the truncated support (``_transform_interval``, cut from the
    measure's one weight scan) serves every row and point.  This is the one
    place that sizes the rule.  Its first level (``_transform_edges``) takes
    panels at most 4 pi / (1 + max|x|) wide, about 16 nodes per wavelength
    of e^{i x xi}; the panel count is doubled until two levels agree to
    ``_TOL`` everywhere, and the finer of the two is returned.  A Gauss
    panel converges once it resolves its integrand (Trefethen, SIAM Review
    50, 2008), so the doublings also resolve a real phase sigma(xi), which
    ``phase`` adds inside the kernel, whatever its frequency: no bound on
    sigma' is needed.  Six doublings reach panels 1/64 of the first level's
    width; failure there, as under a phase too steep for them, raises
    AccuracyError carrying the estimate.

    The Fourier kernel is built per panel, not per node.  The panels of a
    level are grouped by width (``_panels.width_classes``): every node is
    xi = m_q + h t_k with a panel midpoint m_q, its class half-width h and
    one of the GL_ORDER Gauss offsets t_k, so e^{i x xi} is the panel factor
    e^{i x m_q} times the offset factor e^{i x h t_k}: 2 (panels +
    GL_ORDER * classes) trigonometric calls per point where a kernel per
    node takes 2 per node.  The table of p_n(xi) sqrt(w(xi)) times the
    Gauss weights, and times e^{i sigma(xi)} with a phase, meets the
    factors in whichever order costs less: a class of more panels than
    rows goes through one matrix product with its panel factors and is
    then summed against its offset factors; the kernel entries of the
    other classes (graded panels, mostly alone in their class) are formed
    as products of the two factors and go through one matrix product
    together.  Intermediates are chunked over x to about 2^21 entries.

    A symmetric measure without a phase folds: p_n has the parity of n and
    sqrt(w) is even, so the integral is twice that over [0, hi] of
    cos(x xi) (even n) or i sin(x xi) (odd n).  The rule is then the
    mirrored half rule (same panel width, doubled weights), and only the
    real parts of the even rows and the imaginary parts of the odd rows are
    kept.
    """
    xs = np.asarray(x, dtype=float)
    rows = nmax + 1
    order = _panels.GL_ORDER
    freq = float(np.max(np.abs(xs), initial=0.0))
    fold = measure.symmetric and phase is None
    # every refinement level shares the one truncated interval
    interval = _transform_interval(measure, nmax)

    def sqrt_weight(xi):
        return np.sqrt(measure.weight(xi))

    def evaluate(refine: int) -> np.ndarray:
        edges = _transform_edges(measure, interval, nmax, freq, refine, half=fold)
        half, mids, counts = _panels.width_classes(edges)
        hq = np.repeat(half, counts)
        # node (k, q) is m_q + h t_k; a class is a block of panels q
        xi = (mids + hq * _panels.GL_NODES[:, None]).ravel()
        w = (hq * _panels.GL_WEIGHTS[:, None]).ravel()
        table = eval_poly_table(jacobi, nmax, xi) * ((2.0 if fold else 1.0) * w
                                                     * sqrt_weight(xi))
        if phase is not None:
            table = table * np.exp(1j * phase(xi))
        table = table.reshape(rows, order, mids.size)
        offsets = (half[:, None] * _panels.GL_NODES).ravel()
        panels = [slice(s, s + n) for s, n in zip(np.cumsum(counts) - counts, counts)]
        wide = counts > rows
        in_narrow = np.repeat(~wide, counts)
        n_narrow = int(in_narrow.sum())
        t_narrow = table[:, :, in_narrow].reshape(rows, order * n_narrow)
        out = np.empty((rows, xs.size), dtype=complex)
        per_point = mids.size + order * (half.size + n_narrow + rows)
        step = max(16, (1 << 21) // per_point)
        for start in range(0, xs.size, step):
            xc = xs[start:start + step]
            panel = _unit_phase(np.outer(mids, xc))
            offset = _unit_phase(np.outer(offsets, xc)).reshape(half.size, order, xc.size)
            kernel = np.empty((order, n_narrow, xc.size), dtype=complex)
            j = 0
            for c in np.flatnonzero(~wide):
                np.multiply(offset[c][:, None, :], panel[None, panels[c], :],
                            out=kernel[:, j:j + counts[c], :])
                j += counts[c]
            acc = out[:, start:start + step]
            _times(t_narrow, kernel.reshape(order * n_narrow, xc.size), acc)
            part = np.empty((rows * order, xc.size), dtype=complex)
            for c in np.flatnonzero(wide):
                q = panels[c]
                _times(table[:, :, q].reshape(rows * order, counts[c]), panel[q], part)
                acc += np.einsum("nkx,kx->nx", part.reshape(rows, order, xc.size), offset[c])
        if fold:
            out[0::2].imag = 0.0
            out[1::2].real = 0.0
        out /= _SQRT_2PI
        return out

    prev = evaluate(0)
    est = np.inf
    for refine in range(1, 7):
        cur = evaluate(refine)
        est = float(np.max(np.abs(cur - prev), initial=0.0))
        if est <= _TOL:
            return cur
        prev = cur
    raise AccuracyError(
        f"oscillatory transform did not reach tol={_TOL:g}; estimate {est:g}",
        estimate=est,
    )
