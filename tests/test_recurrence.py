"""Recurrence coefficients: closed forms vs hand formulas and the
discretized Stieltjes procedure."""

import numpy as np
import pytest

from favard import recurrence as rec
from favard.errors import DegenerateMeasureError
from favard.specfun import gamma_abs2


def jacobi_b_hand(alpha: float, beta: float, n: int) -> float:
    # orthonormal off-diagonal from the monic beta_n of the Jacobi weight
    # (1-x)^alpha (1+x)^beta: beta_n = 4n(n+a)(n+b)(n+a+b) /
    # ((2n+a+b)^2 (2n+a+b+1)(2n+a+b-1)), b_n = sqrt(beta_{n+1}).
    m = n + 1
    s = alpha + beta
    if m == 1:
        # the (m+s)/(2m+s-1) factor cancels at m = 1
        return float(np.sqrt(4.0 * (1 + alpha) * (1 + beta) / ((2 + s) ** 2 * (3 + s))))
    num = 4.0 * m * (m + alpha) * (m + beta) * (m + s)
    den = (2 * m + s) ** 2 * (2 * m + s + 1) * (2 * m + s - 1)
    return float(np.sqrt(num / den))


def test_hermite_coeffs_closed_form():
    for n in range(20):
        b, c = rec.hermite_coeffs(n)
        assert c == 0.0
        assert abs(b - np.sqrt((n + 1) / 2.0)) < 1e-15


def test_laguerre_coeffs_closed_form():
    for alpha in (0.0, 1.0, 2.5):
        for n in range(12):
            b, c = rec.laguerre_coeffs(alpha, n)
            assert abs(c - (2 * n + alpha + 1)) < 1e-13
            assert abs(b - np.sqrt((n + 1) * (n + alpha + 1))) < 1e-13


def test_jacobi_coeffs_match_hand_formula():
    for alpha, beta in ((0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (-0.5, 0.5), (2.0, 3.0)):
        for n in range(10):
            b, c = rec.jacobi_coeffs(alpha, beta, n)
            assert abs(b - jacobi_b_hand(alpha, beta, n)) < 1e-13
            if alpha == beta:
                assert abs(c) < 1e-15


def test_ultraspherical_is_jacobi_aa():
    # weight (1 - x^2)^alpha, i.e. Jacobi with both exponents alpha
    for alpha in (0.0, 1.0, 1.5):
        for n in range(8):
            bu, cu = rec.ultraspherical_coeffs(alpha, n)
            bj, cj = rec.jacobi_coeffs(alpha, alpha, n)
            assert abs(bu - bj) < 1e-14
            assert abs(cu - cj) < 1e-14


def test_stieltjes_reproduces_closed_forms():
    cases = [
        ("hermite", rec.hermite_measure(), lambda n: rec.hermite_coeffs(n)),
        ("legendre", rec.legendre_measure(), lambda n: rec.jacobi_coeffs(0.0, 0.0, n)),
        ("ultraspherical:1", rec.ultraspherical_measure(1.0),
         lambda n: rec.ultraspherical_coeffs(1.0, n)),
        ("laguerre:0", rec.laguerre_measure(0.0), lambda n: rec.laguerre_coeffs(0.0, n)),
        ("laguerre:1", rec.laguerre_measure(1.0), lambda n: rec.laguerre_coeffs(1.0, n)),
    ]
    for name, measure, coeff in cases:
        J = rec.stieltjes(measure, 11)
        for n in range(11):
            b, c = coeff(n)
            assert abs(J.b[n] - b) < 1e-10, (name, n)
            assert abs(J.c[n] - c) < 1e-10, (name, n)


def test_eval_poly_table_orthonormal_under_quadrature():
    from favard.quadrature import golub_welsch
    m = rec.hermite_measure()
    J = rec.stieltjes(m, 24)
    rule = golub_welsch(J, 24)
    table = rec.eval_poly_table(J, 11, rule.nodes)
    G = (table * rule.weights) @ table.T
    assert np.max(np.abs(G - np.eye(12))) < 1e-12


def test_eval_poly_scalar_matches_table():
    J = rec.build_jacobi(rec.hermite_coeffs, 12)
    xi = 0.83
    table = rec.eval_poly_table(J, 6, np.array([xi]))
    for n in range(7):
        assert abs(rec.eval_poly(J, n, xi) - table[n, 0]) < 1e-14


def sweep_per_step(jacobi, nmax, x, seed=None, alternate=False):
    # rec._scaled_sweep one degree at a time in temporaries: the same
    # arithmetic, p_{k+1} = ((x - c_k) (1/b_k)) p_k - (b_{k-1} (1/b_k)) p_{k-1}
    # with (c_k - x) for alternating signs, and a rescale to [1/2, 1) (none
    # at a point with a mantissa below 2^-511) before every step whose growth
    # bound would pass the budget; each row is lifted by ldexp on its own
    b, c = jacobi.b[:nmax], jacobi.c[:nmax]
    inv_b = 1.0 / b
    b_prev = np.concatenate(([0.0], b[:-1]))
    lo, hi = (x.min(), x.max()) if x.size else (0.0, 0.0)
    with np.errstate(invalid="ignore"):
        reach = np.maximum(np.abs(hi - c), np.abs(lo - c))
        growth = np.log2(np.maximum((reach + b_prev) * inv_b, 1.0))
    cur, e = (np.ones(x.size), np.zeros(x.size, dtype=np.int64)) if seed is None else seed
    prev = np.zeros(x.size)
    rows = np.empty((nmax + 1, x.size))
    rows[0] = np.ldexp(cur, e)
    bits = float(np.log2(np.max(np.abs(cur), initial=1.0)))
    for k in range(nmax):
        if bits + growth[k] > rec._GROWTH_BITS:
            shift = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))[1]
            tiny = [(m != 0.0) & (np.abs(m) < 2.0**-511) for m in (cur, prev)]
            shift[tiny[0] | tiny[1]] = 0
            cur, prev, e = np.ldexp(cur, -shift), np.ldexp(prev, -shift), e + shift
            bits = 0.0
        bits += growth[k]
        seed_k = (c[k] - x if alternate else x - c[k]) * inv_b[k]
        prev, cur = cur, seed_k * cur - (b_prev[k] * inv_b[k]) * prev
        rows[k + 1] = np.ldexp(cur, e)
    return rows


@pytest.mark.parametrize("family", ["hermite", "laguerre", "jacobi", "custom"])
@pytest.mark.parametrize("nmax", [0, 1, 2, 37, 199])
def test_eval_poly_table_in_place_matches_out_of_place_bitwise(family, nmax):
    J = {"hermite": lambda: rec.build_jacobi(rec.hermite_coeffs, 200),
         "laguerre": lambda: rec.build_jacobi(lambda n: rec.laguerre_coeffs(0.5, n), 200),
         "jacobi": lambda: rec.jacobi_poly_coeffs(0.3, -0.4, 200),
         "custom": lambda: rec.stieltjes(rec.custom_measure(lambda x: np.exp(-x**4)), 200)}[family]()
    # blocked, in place and lifted once per block, the sweep is the
    # per-step one bit for bit: signed and subnormal points, and -1e200,
    # whose rows pass the double range, included
    rng = np.random.default_rng(nmax)
    grids = [np.concatenate([rng.uniform(-3.0, 3.0, 101), [0.0, -0.0, 1e-310, 40.0, -1e200]]),
             rng.uniform(-2.0, 2.0, (6, 5))]
    for xi in grids:
        with np.errstate(over="ignore", invalid="ignore"):
            got = rec.eval_poly_table(J, nmax, xi)
            want = sweep_per_step(J, nmax, xi.ravel()).reshape(got.shape)
        assert got.shape == (nmax + 1,) + xi.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_charlier_bilateral_masses():
    m = rec.charlier_bilateral(0.5, 20)
    assert m.kind == "discrete"
    assert np.all(np.diff(m.points) == 1.0)
    assert abs(np.sum(m.masses) - 1.0) < 1e-14
    # symmetric lattice, masses proportional to a^|k|/|k|!
    k0 = np.argmin(np.abs(m.points))
    assert abs(m.masses[k0 + 1] / m.masses[k0] - 0.5) < 1e-13
    assert abs(m.masses[k0 + 2] / m.masses[k0] - 0.125) < 1e-13


def test_stieltjes_discrete_degenerate():
    # N orthonormal polynomials need at least N support points
    m = rec.charlier_bilateral(0.5, 3)
    with pytest.raises((ValueError, DegenerateMeasureError)):
        rec.stieltjes(m, 12)


def test_custom_measure_positive_weight_required():
    with pytest.raises(ValueError):
        rec.custom_measure(lambda x: -np.ones_like(x), (-1.0, 1.0))


def test_callable_weight_not_finite_past_its_decay_builds():
    # cosh overflows at |x| = 713.2 of the tail scan, where exp(-x^2) cosh(x)
    # has long decayed: a plain callable's NaN samples there count as a
    # decayed tail, as the expression's do, and the two routes agree
    import warnings
    from favard.expr import compile_function
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = rec.stieltjes(rec.custom_measure(lambda x: np.exp(-x * x) * np.cosh(x)), 12)
        ref = rec.stieltjes(rec.custom_measure(compile_function("exp(-x^2)*cosh(x)")), 12)
    assert np.array_equal(J.b, ref.b) and np.array_equal(J.c, ref.c)


def test_callable_weight_not_finite_in_its_bulk_is_refused():
    # log(x) is NaN on the whole left side: no decayed sample comes before it
    with pytest.raises(ValueError, match="non-finite"):
        rec.custom_measure(lambda x: np.log(x))


@pytest.mark.parametrize("a,b,dilation", [(1.0, 1.0, 1.0), (1.0, 0.5, 1.0), (0.25, 0.25, 1.0),
                                          (0.75, 0.75, 2.0), (0.5, 1.5, 2.0)])
def test_conthahn_coeffs_match_stieltjes(a, b, dilation):
    # a + b = 1/2 takes the n = 0 limit of (n+s-1)/(2n+s-1)
    N = 48
    measure = rec.conthahn_measure(a, b, dilation)
    ref = rec.stieltjes(measure, N)
    J = rec.build_jacobi(lambda n: rec.conthahn_coeffs(a, b, n, dilation), N)
    assert not np.any(J.c)
    assert np.max(np.abs(J.b / ref.b - 1.0)) < 5e-12
    assert np.max(np.abs(ref.c)) < 1e-13


def test_conthahn_equal_parameters_square_one_weight(monkeypatch):
    # for a == b the density is |Gamma(a + iu)|^2 squared, evaluated once
    raw = []
    wrap = rec.continuous_measure

    def keep(raw_weight, *args, **kwargs):
        raw.append(raw_weight)
        return wrap(raw_weight, *args, **kwargs)

    monkeypatch.setattr(rec, "continuous_measure", keep)
    xi = np.linspace(-30.0, 30.0, 121)
    for a in (0.5, 0.75, 1.0):
        rec.conthahn_measure(a, a, dilation=2.0)
        assert np.array_equal(raw[-1](xi), gamma_abs2(a, xi / 2.0) ** 2), a


@pytest.mark.parametrize("dilation", [1.0, 2.0])
def test_conthahn_coeffs_and_mass_match_mpmath_moments(dilation):
    # a = 1, b = 1/2: |Gamma(1+iu) Gamma(1/2+iu)|^2 = 2 pi^2 u / sinh(2 pi u);
    # 40-digit moments, the monic recurrence from them, and the mass
    mpmath = pytest.importorskip("mpmath")
    N = 6
    measure = rec.conthahn_measure(1.0, 0.5, dilation)
    with mpmath.workdps(40):
        s = mpmath.mpf(dilation)

        def w(x):
            t = 2 * mpmath.pi * x / s
            return mpmath.pi * (t / mpmath.sinh(t) if t else 1)

        moments = [2 * mpmath.quad(lambda x: x**k * w(x), [0, mpmath.inf]) if k % 2 == 0
                   else 0 for k in range(2 * N + 1)]

        def dot(p, q):
            return sum(pi * qj * moments[i + j] for i, pi in enumerate(p) for j, qj in enumerate(q))

        # monic p_{n+1} = x p_n - beta_n p_{n-1} (the density is even)
        prev, cur, norms = [], [mpmath.mpf(1)], [moments[0]]
        for n in range(N):
            beta = norms[-1] / norms[-2] if n else 0
            nxt = [0] + cur
            for i, v in enumerate(prev):
                nxt[i] -= beta * v
            prev, cur = cur, nxt
            norms.append(dot(cur, cur))
        want = [float(mpmath.sqrt(norms[n + 1] / norms[n])) for n in range(N)]
        mass = float(moments[0])
    got = [rec.conthahn_coeffs(1.0, 0.5, n, dilation)[0] for n in range(N)]
    assert np.max(np.abs(np.array(got) / want - 1.0)) < 1e-14
    assert abs(measure.weight(0.3) * mass / float(w(mpmath.mpf(0.3))) - 1.0) < 1e-14


def _stieltjes_reorthogonalized(nodes, weights, N):
    # the Lanczos iteration on diag(nodes) from the square-root weights with
    # full reorthogonalization against every earlier q_k, repeated once:
    # O(N^2 M), the stable reference for the O(N M) update
    Q = np.empty((N + 1, nodes.size))
    Q[0] = np.sqrt(weights) / np.linalg.norm(np.sqrt(weights))
    b, c = np.empty(N), np.empty(N)
    for k in range(N):
        q = Q[k]
        v = nodes * q
        c[k] = q @ v
        v -= c[k] * q + (b[k - 1] * Q[k - 1] if k else 0.0)
        for _ in range(2):
            v -= Q[:k + 1].T @ (Q[:k + 1] @ v)
        b[k] = np.linalg.norm(v)
        Q[k + 1] = v / b[k]
    return b, c


def _discretized(measure, N):
    return rec._discretize(measure, max(360, 24 * N), degree=2 * N)


@pytest.mark.parametrize("N", [12, 64, 256])
@pytest.mark.parametrize("weight", [lambda x: np.exp(-x * x), lambda x: np.exp(-x ** 4),
                                    lambda x: np.exp(-np.abs(x))],
                         ids=["exp(-x^2)", "exp(-x^4)", "exp(-|x|)"])
def test_stieltjes_matches_full_reorthogonalization(weight, N):
    # on the same discretization: b to 1e-15 relative; c to 1e-13, or to
    # 1e-15 of the largest node where the nodes reach beyond 100 (exp(-|x|)
    # at N = 256 reaches 760, where both c are about 6e-13 off their exact 0)
    measure = rec.custom_measure(weight)
    nodes, weights = _discretized(measure, N)
    b, c = _stieltjes_reorthogonalized(nodes, weights, N)
    J = rec.stieltjes(measure, N)
    assert np.max(np.abs(J.b - b) / b) <= 1e-15
    assert np.max(np.abs(J.c - c)) <= max(1e-13, 1e-15 * np.max(np.abs(nodes)))


def _stieltjes_50_digits(measure, N):
    # the plain Stieltjes update run at 50 digits on the measure's double
    # points and masses: (b, c) as doubles; an independent reference for
    # the discrete route, which reorthogonalizes in double precision
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(x)) for x in measure.points]
        ws = [mpmath.mpf(float(w)) for w in measure.masses]
        total = mpmath.fsum(ws)
        q = [mpmath.sqrt(w / total) for w in ws]
        q_prev, b_prev = [mpmath.mpf(0)] * len(q), mpmath.mpf(0)
        want_b, want_c = [], []
        for _ in range(N):
            v = [x * y for x, y in zip(xs, q)]
            c = mpmath.fdot(q, v)
            v = [vi - c * qi - b_prev * pi for vi, qi, pi in zip(v, q, q_prev)]
            b = mpmath.sqrt(mpmath.fdot(v, v))
            want_b.append(float(b))
            want_c.append(float(c))
            q_prev, q, b_prev = q, [vi / b for vi in v], b
    return np.array(want_b), np.array(want_c)


@pytest.mark.parametrize("K", [6, 10, 20, 50])
def test_stieltjes_on_charlier_lattices_up_to_2k(K):
    # the discrete iteration holds to the last pair a lattice of 2K + 1
    # points has, and the next one, b_{2K} = 0, raises.  Up to K = 20 the
    # plain update would hold too; at K = 50 it is off by 2e-5 relative in
    # b_n, and only the reorthogonalized one holds
    measure = rec.charlier_bilateral(0.5, K)
    b, c = _stieltjes_50_digits(measure, 2 * K)
    for N in range(1, 2 * K + 1):
        J = rec.stieltjes(measure, N)
        assert np.max(np.abs(J.b - b[:N]) / b[:N]) <= 1e-15, N
        assert np.max(np.abs(J.c - c[:N])) <= 1e-13, N
    with pytest.raises(DegenerateMeasureError):
        rec.stieltjes(measure, 2 * K + 1)


def test_stieltjes_holds_on_a_lattice_near_its_size():
    # N = 64 pairs on the 161-point Charlier lattice a = 0.1, K = 80, against
    # the 50-digit run; the plain update without reorthogonalization was off
    # by 1.7e-4 relative in b_n and 1.4e-4 in c_n here
    measure = rec.charlier_bilateral(0.1, 80)
    want_b, want_c = _stieltjes_50_digits(measure, 64)
    J = rec.stieltjes(measure, 64)
    assert np.max(np.abs(J.b / want_b - 1.0)) <= 2e-15
    assert np.max(np.abs(J.c - want_c)) <= 1e-15 * 80


def test_custom_gaussian_matches_the_hermite_recurrence():
    J = rec.stieltjes(rec.custom_measure(lambda x: np.exp(-x * x)), 12)
    want = rec.build_jacobi(rec.hermite_coeffs, 12)
    assert np.max(np.abs(J.b - want.b) / want.b) <= 1e-15
    assert np.max(np.abs(J.c)) <= 1e-15
