"""Coefficient decay in the Malmquist-Takenaka basis, after Weideman.

The MT expansion of an analytic function converges at a rate set by how far
the function's singularities sit from the basis poles under the Cayley-type
map.  Four classic test functions show the four regimes: geometric decay,
algebraic decay, and two stretched-exponential laws.

The quoted rates assume basis poles at +-i (unit half-width); this package
places them at +-i/2, so each test function is sampled as f(2x) to put the
singularity geometry in the quoted frame.

Run: python3 demos/decay_rates.py
"""

import numpy as np

from favard.coeffs import decay_fit, mt_coeffs_fft

N = 4096


def sech(t):
    t = np.abs(t)
    return 2.0 * np.exp(-t) / (1.0 + np.exp(-2.0 * t))


def main():
    cases = [
        ("1/(1+x^4)", lambda x: 1.0 / (1.0 + (2 * x) ** 4),
         "exponential", 1.0 + np.sqrt(2.0), "rho = 1+sqrt(2)"),
        ("sin(x)/(1+x^4)", lambda x: np.sin(2 * x) / (1.0 + (2 * x) ** 4),
         "algebraic", 2.25, "s = 9/4"),
        ("exp(-x^2)", lambda x: np.exp(-(2 * x) ** 2),
         "stretched:0.6666666666666666", 1.5, "c = 3/2, p = 2/3"),
        ("sech(x)", lambda x: sech(2 * x),
         "stretched:0.5", 2.0, "c = 2, p = 1/2"),
    ]
    print(f"MT coefficients via FFT, N = {N}; least-squares decay fits")
    print()
    for label, f, model, expected, note in cases:
        a = mt_coeffs_fft(f, N)
        fit = decay_fit(a, model, skip=8)
        kind = model.split(":")[0]
        print(f"  f(x) = {label:16s} {kind:12s} fitted {fit.param:8.5f}   "
              f"expected {expected:8.5f}   ({note}, r^2 = {fit.r2:.6f})")


if __name__ == "__main__":
    main()
