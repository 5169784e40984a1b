"""The benchmark's tracer changes no result: each traced layer returns the same
bits with and without ``perfbench/tracer.py``'s wrappers installed, and no
traced call raises, also on bases and operators built before the tracer
installs or used after it is gone."""

import importlib.util
import json
import pathlib

import numpy as np

from favard import basis, coeffs, diffop, quadrature, recurrence, schrodinger, verify

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _results():
    """One small call of each layer, each from a fresh basis, read through the
    module attributes that the tracer replaces."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = {}
    for family, N in (("hermite", 32), ("hermite", 31), ("mt", 32)):
        bas = basis.make_basis(family, N=N)
        out[f"strang {family} {N}"] = schrodinger.strang_propagate(
            a[:N], 0.05, 4, lambda x: x * x, bas).values
    J = recurrence.build_jacobi(recurrence.hermite_coeffs, 32)
    D = diffop.build(J, 32)
    out["free_coeff_step"] = schrodinger.free_coeff_step(D, 0.3, a)
    out["expm_apply"] = diffop.expm_apply(D, 0.7, a)
    out["apply"] = diffop.apply(D, a)
    out["spectral_radius"] = diffop.spectral_radius(D)
    rule = quadrature.golub_welsch(J, 24)
    out["golub_welsch"] = np.concatenate((rule.nodes, rule.weights))
    x = np.linspace(-4.0, 4.0, 9)
    out["phi_grid"] = basis.phi_grid(basis.make_basis("legendre", N=8), 7, x)
    out["mt_coeffs_fft"] = coeffs.mt_coeffs_fft(lambda t: 1.0 / (1.0 + 4.0 * t * t), 32).values
    out["tanh_chebyshev_coeffs"] = coeffs.tanh_chebyshev_coeffs(
        lambda t: 1.0 / np.cosh(t), (0.25, 0.25), 16).values
    out["coeffs_fourier_side"] = coeffs.coeffs_fourier_side(
        lambda xi: np.exp(-xi * xi / 4.0) / np.sqrt(2.0), basis.make_basis("hermite", N=16),
        16).values
    return out


def test_traced_layers_return_the_same_bits():
    plain = _results()
    tracer = _tracer_module().Tracer()
    with tracer:
        traced = _results()
    assert traced.keys() == plain.keys()
    for name, value in plain.items():
        assert np.array_equal(traced[name], value, equal_nan=True), name
    assert not any(tracer.errors.values())
    for name in ("schrodinger.strang_propagate", "schrodinger.free_coeff_step",
                 "diffop.expm_apply", "diffop.apply", "diffop.spectral_radius",
                 "quadrature.golub_welsch", "basis.phi_grid", "coeffs.mt_coeffs_fft",
                 "coeffs.tanh_chebyshev_coeffs", "coeffs.coeffs_fourier_side"):
        assert tracer.calls[name] >= 1, name
    assert not hasattr(schrodinger.strang_propagate, "__wrapped__")  # uninstalled


CHECKED = ("hermite", "mt", "legendre", "laguerre:0", "tanhjacobi:0.75,0.75", "conthahn:1,1",
           "charlier:0.5")


def _built():
    """Bases and D operators for ``_reused``, built under whatever tracer state
    the caller is in."""
    J = recurrence.build_jacobi(recurrence.hermite_coeffs, 32)
    objs = {family: basis.make_basis(family, N=12) for family in CHECKED}
    objs.update({"strang hermite": basis.make_basis("hermite", N=32),
                 "strang mt": basis.make_basis("mt", N=32),
                 "D": diffop.build(J, 32),
                 "D mt": diffop.build(basis.make_basis("mt", N=16).jacobi, 16)})
    return objs


def _reused(objs):
    """Every layer call on the objects of ``_built``; a check report as its
    JSON text, so that a changed strategy or metadata shows too."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = {}
    for name in ("strang hermite", "strang mt"):
        out[name] = schrodinger.strang_propagate(a, 0.05, 4, lambda x: x * x, objs[name]).values
    for name in ("D", "D mt"):
        D, v = objs[name], a[:objs[name].N]
        out[f"expm_apply {name}"] = diffop.expm_apply(D, 0.7, v)
        out[f"free_coeff_step {name}"] = schrodinger.free_coeff_step(D, 0.3, v)
        # flow is reached through no traced name: heat and Airy run on the
        # eigensystem that the traced expm_apply and free_coeff_step share
        out[f"heat {name}"] = diffop.flow(D, 0.3, (0, 0, 1), v)
        out[f"airy {name}"] = diffop.flow(D, 0.2, (0, 0, 0, -1), v)
    for family in CHECKED:
        for check in (verify.check_gram, verify.check_recurrence):
            out[f"{check.__name__} {family}"] = json.dumps(check(objs[family]).as_dict())
    return out


def test_objects_built_outside_the_tracer_give_the_same_bits():
    # the traced half of a benchmark run reuses bases and operators built
    # before the tracer replaced the module attributes they may hold, and a
    # run checks after uninstalling what it built inside
    tracer = _tracer_module().Tracer()
    before = _built()
    plain = _reused(before)
    with tracer:
        traced = _reused(before)
        inside = _built()
    after = _reused(inside)
    assert traced.keys() == plain.keys() == after.keys()
    for name, value in plain.items():
        assert np.array_equal(traced[name], value), name
        assert np.array_equal(after[name], value), name
    assert not any(tracer.errors.values()), tracer.errors
    for name in ("schrodinger.strang_propagate", "schrodinger.free_coeff_step",
                 "diffop.expm_apply", "verify.check_gram", "verify.check_recurrence"):
        assert tracer.calls[name] >= 1, name
