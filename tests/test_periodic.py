"""Periodic systems from the bilateral Charlier measure, make_basis's
charlier:<a>: lattice sums, orthonormality on the circle, exact
differential recurrence."""

import json
import math

import numpy as np
import pytest

from favard import basis as bas
from favard import cli
from favard import periodic as per
from favard import recurrence as rec
from favard import verify as ver


def bilateral_masses(a, ks):
    # a^|k|/|k|! over the full lattice sum 2e^a - 1, recomputed from scratch
    logm = np.array([abs(k) * math.log(a) - math.lgamma(abs(k) + 1.0) for k in ks])
    return np.exp(logm) / (2.0 * math.exp(a) - 1.0)


def direct_lattice_sum(a, basis, n, x):
    # independent assembly: i^n sum_k sqrt(sigma_k) p_n(k) e^{ikx}, with p_n
    # from the three-term recurrence rather than the amplitudes it checks
    ks = basis.measure.points
    table = rec.eval_poly_table(basis.jacobi, n, ks)
    return (1j ** n) * np.sum(np.sqrt(bilateral_masses(a, ks)) * table[n] * np.exp(1j * ks * x))


def lattice_K(basis):
    return int(basis.measure.support[1])


def diff_residual(basis, N):
    return ver.check_recurrence(basis, N).max_abs_error


def tail_beyond(a, basis, N):
    # max_n sum_{|k|>K} sigma_k p_n(k)^2 for n < N over the 60 points past
    # each edge, with p_n from the recurrence evaluated past the lattice
    K = lattice_K(basis)
    ks = np.arange(K + 1, K + 61, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = 2.0 * bilateral_masses(a, ks) * rec.eval_poly_table(basis.jacobi, N - 1, ks) ** 2
    return float(np.max(terms.sum(axis=1)))


def test_phi0_frozen_value():
    basis = per.charlier_basis(0.5, N=16)
    got = per.periodic_phi(basis, 0, 0.0)
    # frozen from the direct lattice-sum oracle
    assert abs(got - 2.3466885836778277) < 1e-14
    assert abs(got.imag) < 1e-15


def test_periodic_phi_matches_direct_sum():
    basis = per.charlier_basis(0.5, N=16)
    for n, x in ((0, 0.0), (2, 1.1), (5, -2.4), (9, 0.7)):
        direct = direct_lattice_sum(0.5, basis, n, x)
        got = per.periodic_phi(basis, n, x)
        assert abs(got - direct) < 1e-13, (n, x)


def test_lattice_grows_until_tail_invariant():
    # truncation tail sum_{|k|>K} sigma_k p_n(k)^2 must sit below 1e-20,
    # which pushes K well past the naive a^K/K! heuristic
    for a, N, K in ((0.5, 8, 27), (0.5, 16, 35), (0.5, 32, 47), (1.0, 16, 39)):
        basis = per.charlier_basis(a, N=N)
        assert lattice_K(basis) == K, (a, N)
        assert tail_beyond(a, basis, N) < 1e-20


def test_charlier_refuses_when_no_cutoff_holds_the_tail(monkeypatch):
    # a tighter tail bound moves the cutoff out along K_1 + 4j; a bound that
    # no candidate short of the probe lattice meets is refused
    assert lattice_K(per.charlier_basis(0.5, N=14)) == 31
    monkeypatch.setattr(per, "_TAIL_BOUND", 1e-30)
    basis = per.charlier_basis(0.5, N=14)
    assert lattice_K(basis) == 39 and tail_beyond(0.5, basis, 14) < 1e-30
    monkeypatch.setattr(per, "_TAIL_BOUND", 1e-60)
    with pytest.raises(ValueError, match="no cutoff K <= 47 holds the truncation tail below 1e-60"):
        per.charlier_basis(0.5, N=14)


def test_two_pi_periodicity_and_realness():
    basis = per.charlier_basis(0.5, N=12)
    x = np.linspace(-3.0, 3.0, 11)
    for n in (0, 3, 8):
        v = per.periodic_phi(basis, n, x)
        w = per.periodic_phi(basis, n, x + 2.0 * np.pi)
        assert np.max(np.abs(v - w)) < 1e-12
        # i^n phase makes the functions real on the real line
        assert np.max(np.abs(v.imag)) < 1e-12


def test_gram_identity_trapezoid():
    # the 4K-point rule is exact: it matches a 4096-point one on phi_n
    basis = per.charlier_basis(0.5, N=8)
    G = per.periodic_gram(basis, 8)
    assert np.max(np.abs(G - np.eye(8))) < 1e-12
    x = 2.0 * np.pi * np.arange(4096) / 4096 - np.pi
    rows = np.array([per.periodic_phi(basis, n, x) for n in range(8)])
    assert np.max(np.abs(G - rows @ rows.conj().T / 4096)) < 1e-14


def test_differential_recurrence_exact():
    basis = per.charlier_basis(0.5, N=16)
    assert diff_residual(basis, 4) < 1e-13
    assert diff_residual(basis, 14) < 1e-12


def test_normalization_l2_on_circle():
    # orthonormal in L2(dx/2pi): the mean of |phi_n|^2 over a period is 1
    basis = per.charlier_basis(1.0, N=6)
    M = 4 * lattice_K(basis) + 8
    x = -np.pi + 2.0 * np.pi * np.arange(M) / M
    for n in (0, 4):
        v = per.periodic_phi(basis, n, x)
        assert abs(np.mean(np.abs(v) ** 2) - 1.0) < 1e-12


def test_charlier_parameter_validation():
    with pytest.raises(ValueError):
        per.charlier_basis(0.0, N=8)
    with pytest.raises(ValueError):
        per.charlier_basis(-1.0, N=8)


# The cutoffs an earlier search chose, which built and tested each K_0 + 4j
# in turn on the three-term recurrence evaluated past the lattice; the
# Lanczos tails keep every one.  Where the factorial-decay lattice K_0 holds
# fewer than the N + 1 points that N coefficients need (0.1 at N = 32, N = 64
# for 0.5, 1 and 2) the candidates start at the first K_0 + 4j that holds
# them; at N = 2 K_0 + 1 (0.1 at N = 27, K_0 = 13) that is K_0 + 4, and the
# cutoff is the one the search from K_0 chose.  Sizes that search refused
# (0.1 from N = 38, 0.2 from N = 64) are absent
PARENT_K = {
    0.1: {8: 21, 14: 25, 27: 33, 32: 37},
    0.2: {8: 23, 14: 27, 32: 39, 40: 47, 48: 51},
    0.5: {8: 27, 14: 31, 32: 47, 40: 51, 48: 59, 64: 71, 69: 71},
    1.0: {8: 31, 14: 39, 32: 55, 40: 59, 48: 67, 64: 79, 69: 83, 96: 103},
    2.0: {8: 37, 14: 45, 32: 65, 40: 69, 48: 77, 64: 89, 69: 93, 96: 117, 128: 137},
    5.0: {8: 51, 14: 59, 32: 83, 40: 91, 48: 99, 64: 115, 69: 119, 96: 143, 128: 171},
}


@pytest.mark.parametrize("a", sorted(PARENT_K))
def test_cutoff_search_builds_at_most_twice(monkeypatch, a):
    # one Lanczos run, on a lattice longer than the chosen K, gives every
    # candidate's tail and the basis itself; the chosen K's tail under the
    # recurrence evaluated past the lattice is below 1e-20 too
    lattices = []
    lanczos = per.rec._lanczos

    def counted(measure, N):
        lattices.append(int(measure.support[1]))
        return lanczos(measure, N)

    monkeypatch.setattr(per.rec, "_lanczos", counted)
    for N, K in PARENT_K[a].items():
        lattices.clear()
        basis = per.charlier_basis(a, N=N)
        assert lattice_K(basis) == K, (a, N)
        assert len(lattices) == 1 and lattices[0] >= K + 12, (a, N, lattices)
        assert tail_beyond(a, basis, N) < 1e-20


@pytest.mark.parametrize("a,N", [(0.1, 32), (0.1, 37), (0.1, 40), (0.1, 48), (0.1, 64),
                                 (0.2, 64), (0.5, 64), (1.0, 64), (2.0, 64)])
def test_cutoff_search_starts_at_a_lattice_with_room(a, N):
    # the factorial-decay lattice K_0 holds fewer than N + 1 points here;
    # the search starts at the first one that holds them.  The amplitudes
    # are Lanczos vectors, so degrees near the lattice size resolve to
    # rounding, where the three-term recurrence evaluated on the lattice
    # lost 7e-10 (0.1, 40) to 1e-2 (0.1, 64) of orthonormality
    basis = per.charlier_basis(a, N=N)
    assert 2 * lattice_K(basis) + 1 >= N + 1
    gram = per.periodic_gram(basis, N)
    assert np.max(np.abs(gram - np.eye(N))) <= 1e-14
    assert diff_residual(basis, N - 1) <= 1e-13


def test_periodic_eval_builds_a_small_parameter_lattice(capsys):
    assert cli.main(["periodic", "eval", "--a", "0.1", "--n", "0:30"]) == 0
    assert capsys.readouterr().out.count("\n") > 31
    assert cli.main(["periodic", "eval", "--a", "0.1", "--n", "0:62"]) == 0
    assert capsys.readouterr().out.count("\n") > 63
    assert cli.main(["verify", "gram", "--family", "charlier:0.1", "--N", "62"]) == 0
    report, = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["max_abs_error"] <= 1e-14
    assert report["metadata"]["K"] == lattice_K(per.charlier_basis(0.1, N=64))


def test_charlier_is_a_make_basis_family():
    # one basis type: the lattice measure, the Lanczos recurrence of the
    # cutoff search and a closed table, with no coefficient source
    basis = bas.make_basis("charlier:0.5", N=16)
    same = per.charlier_basis(0.5, N=16)
    assert isinstance(basis, bas.TransformedBasis) and basis.family == "charlier:0.5"
    assert basis.measure.kind == "discrete" and basis.coeff_source is None
    assert lattice_K(basis) == lattice_K(same) == 35
    assert np.array_equal(basis.jacobi.b, same.jacobi.b)
    x = np.linspace(-3.0, 3.0, 7)
    table = bas.phi_grid(basis, 15, x)
    assert np.array_equal(table, basis.closed_table(15, x))
    assert np.array_equal(table[5], bas.phi(basis, 5, x))
    assert bas.phi(basis, 5, 1.1) == per.periodic_phi(basis, 5, 1.1)
    with pytest.raises(ValueError, match="no coefficients beyond 16"):
        basis.ensure(16)
    with pytest.raises(ValueError, match="expects 1 parameter"):
        bas.make_basis("charlier", N=8)


def test_quadrature_route_refuses_a_lattice():
    # a discrete measure has no Fourier integral to take: the refusal names
    # the closed route instead of failing inside the transform
    basis = bas.make_basis("charlier:0.5", N=8)
    x = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="closed route only"):
        bas.phi_grid(basis, 3, x, method="quadrature")
    with pytest.raises(ValueError, match="closed route only"):
        bas.phi_grid(basis, 3, x, sigma=lambda xi: xi)


def test_symmetric_lattice_has_an_exactly_zero_diagonal():
    # c_n = 0 by parity, so the Gauss rule and D take their half-size routes
    from favard import diffop
    from favard.quadrature import golub_welsch

    basis = bas.make_basis("charlier:0.5", N=32)
    assert not np.any(basis.jacobi.c)
    assert isinstance(diffop.build(basis.jacobi, 32).eigensystem, diffop.FoldedEigensystem)
    rule = golub_welsch(basis.jacobi, 31)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1]) and rule.nodes[15] == 0.0


def test_periodic_eval_is_basis_eval_of_charlier(capsys):
    grid = ["--n", "0:3", "--grid", "-pi:pi:0.25"]
    assert cli.main(["periodic", "eval", "--a", "0.5", *grid]) == 0
    alias = capsys.readouterr().out
    assert cli.main(["basis", "eval", "--family", "charlier:0.5", *grid]) == 0
    assert capsys.readouterr().out == alias


@pytest.mark.parametrize("argv", [
    ["coeffs", "--family", "charlier:0.5", "--f", "exp(-x^2)", "--N", "8"],
    ["schrodinger", "--basis", "charlier:0.5", "--N", "8", "--f0", "exp(-x^2)",
     "--T", "0.2", "--tau", "0.1"],
    ["verify", "pw-support", "--family", "charlier:0.5"],
    ["basis", "eval", "--family", "charlier:0.5", "--method", "quadrature"],
])
def test_line_only_commands_refuse_charlier(argv, capsys):
    assert cli.main(argv) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("favard: ") and got.err.count("\n") == 1
