"""Gauss quadrature from recurrence coefficients, and the oscillatory transform:
the one quadrature route to the Fourier integrals that define phi_n for a
family without a closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _panels
from ._lapack import gauss_nodes
from .diffop import _real_times
from .errors import AccuracyError
from .recurrence import (JacobiMatrix, MeasureSpec, _scaled_sweep, _truncated_interval,
                         eval_poly_table)

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


def _christoffel_sums(nodes: np.ndarray, jacobi: JacobiMatrix, N: int, rows: int = 0):
    """sum_{k<N} p_k(x_i)^2 = total_i 4^last_i at nodes x_i of the N-point rule, and a table.

    The nodes may be all N of them or, for a zero diagonal, the nonnegative
    ones: the sum is even in x there, so the weights mirror exactly.

    Every term of the sum is positive and each p_k(x_i) comes from the
    orthonormal recurrence, so the Christoffel weights 1 / sum carry
    relative accuracy however small they are (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, 2004, sec. 3.1).  It is
    summed over the blocks of one ``_scaled_sweep`` in units of 4^e for its
    exponents e, in range for any N.  The table is p_k(x_i) sqrt(lambda_i),
    k < ``rows``: at most 1.
    """
    total = np.zeros(nodes.size)  # sum of p_k^2 so far, in units of 4^last
    last = np.zeros(nodes.size, dtype=np.int64)
    table = np.empty((rows, nodes.size))
    kept = []  # (k0, k1, exponents) of the rows in the table
    for k0, block, exps in _scaled_sweep(jacobi, N - 1, nodes):
        if exps is not last:  # a rescale
            total, last = np.ldexp(total, 2 * (last - exps)), exps
        if k0 < rows:
            k1 = min(k0 + block.shape[0], rows)
            table[k0:k1] = block[:k1 - k0]
            kept.append((k0, k1, exps))
        np.square(block, out=block)
        total += block.sum(axis=0)
    # p_k sqrt(lambda) = m 2^e / sqrt(total 4^last) for a row kept at exponent e
    for k0, k1, exps in kept:
        table[k0:k1] *= np.ldexp(1.0, exps - last) / np.sqrt(total)
    return total, last, table


def _log_weights(total: np.ndarray, last: np.ndarray) -> np.ndarray:
    """log(1 / (total 4^last)), the log Christoffel weights."""
    return -np.log(total) - (2.0 * math.log(2.0)) * last


def _unit_weights(total: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Weights 1 / (total 4^last) scaled to unit sum; below the smallest normal double, 0.0.

    Each is formed as its ratio to the largest, (total_top / total_i)
    4^(last_top - last_i): one rounded division and an exact power of two,
    so a weight near 1e-300 keeps a few ulps where e^{log w} would round
    log w ~ -690 first and lose about 1e-13 of it.
    """
    top = np.argmax(_log_weights(total, last))
    weights = np.ldexp(total[top] / total, 2 * (last[top] - last))
    weights /= weights.sum()
    weights[weights < np.finfo(float).tiny] = 0.0
    return weights


def golub_welsch(jacobi: JacobiMatrix, N: int) -> QuadratureRule:
    """N-point Gauss rule from the leading N x N block of the Jacobi matrix.

    The nodes are the block's eigenvalues from ``_lapack.gauss_nodes``, the
    one node solve, which ``DiffMatrix.nodes`` reads too: for a zero
    diagonal (every symmetric family) +-sigma for the singular values sigma
    of the split bidiagonal (``_lapack.split_bidiagonal``), from dqds, each
    to high relative accuracy, mirrored exactly about the centre node 0 of
    odd N; for any other diagonal LAPACK ``dsterf``.  Both run through
    SciPy's LAPACK capsules (``_lapack``), and no library default picks the
    driver.  Weights come from the Christoffel sum
    w_i = 1 / sum_{k<N} p_k(x_i)^2 over the normalized recurrence rather
    than from squared eigenvector entries: they carry relative accuracy,
    so tail weights far below 1e-16 are right to about
    1e-11 of their own size (Hermite, N up to 4096), not merely small; at
    the rule's own nodes the ten smallest normal Hermite weights of N =
    4096 match the exact Christoffel sum to 1.6e-14 (``_unit_weights``).  On
    the split route the sum runs over the nodes x >= 0 only and the weights
    are mirrored, so they too are exactly symmetric.  Weights are
    normalized to unit sum; a weight whose true value is below
    ``np.finfo(float).tiny`` is returned as 0.0, since a subnormal cannot
    carry relative accuracy.  The rule depends on ``jacobi`` and N alone
    and integrates polynomials of degree <= 2N - 1 exactly against the
    measure ``jacobi`` comes from.
    """
    nodes, total, last, _ = _gauss_sums(jacobi, N)
    return QuadratureRule(nodes=nodes, weights=_unit_weights(total, last))


def _gauss_log_rule(jacobi: JacobiMatrix, N: int, rows: int = 0):
    """Nodes and log Christoffel weights of ``golub_welsch``'s N-point rule, and a weighted table.

    The weights are log(1 / sum_{k<N} p_k(x_i)^2), unnormalized and never
    clipped, so a caller that divides them by a tiny function value keeps
    their relative accuracy where the unit weights are 0.0.  The table
    (``rows`` <= N) is at the nodes the sum ran on: all N, or for a zero
    diagonal the last (N+1)//2, which are >= 0.
    """
    nodes, total, last, table = _gauss_sums(jacobi, N, rows)
    return nodes, _log_weights(total, last), table


def _gauss_sums(jacobi: JacobiMatrix, N: int, rows: int = 0):
    """Nodes, the Christoffel sums (total, last) of ``_christoffel_sums`` at every
    node, and its table, for ``golub_welsch``'s N-point rule."""
    if N <= 0:
        raise ValueError("N must be positive")
    if N > len(jacobi):
        raise IndexError(f"need {N} coefficient pairs, have {len(jacobi)}")
    nodes = gauss_nodes(jacobi.c[:N], jacobi.b)
    if np.any(jacobi.c[:N]):
        return (nodes, *_christoffel_sums(nodes, jacobi, N, rows))
    r = N % 2
    total, last, table = _christoffel_sums(nodes[N // 2:], jacobi, N, rows)
    mirror = lambda v: np.concatenate((v[r:][::-1], v))
    return nodes, mirror(total), mirror(last), table


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
            acc[...] = _real_times(t_narrow, kernel.reshape(order * n_narrow, xc.size))
            for c in np.flatnonzero(wide):
                q = panels[c]
                part = _real_times(table[:, :, q].reshape(rows * order, counts[c]), panel[q])
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
