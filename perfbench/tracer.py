"""Per-layer spans around favard's public functions, installed from outside.

``Tracer.install()`` replaces every module attribute through which a traced
function can be reached (the defining module, modules that imported it by
name, the package namespace) with one timing wrapper, and ``uninstall()``
puts the originals back.  No source file of the package changes.  A span's
self time is its duration minus the durations of the traced spans it
directly caused.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS: dict[str, tuple[str, ...]] = {
    "recurrence": ("build_jacobi", "stieltjes", "eval_poly_table", "eval_poly"),
    "quadrature": ("golub_welsch", "oscillatory_transform"),
    "basis": ("make_basis", "phi_grid", "phi", "hermite_function_table"),
    "diffop": ("build", "apply", "expm_apply", "spectral_radius"),
    "coeffs": ("coeffs_fourier_side", "coeffs_xspace", "mt_coeffs_fft",
               "tanh_chebyshev_coeffs", "decay_fit"),
    "periodic": ("charlier_basis", "periodic_phi", "periodic_gram"),
    "schrodinger": ("strang_propagate", "free_coeff_step"),
    "verify": ("check_gram", "check_recurrence", "check_cramer", "check_ramanujan",
               "check_tanh_jacobi_identity", "check_pw_support"),
    "expr": ("compile_function", "evaluate"),
    "cli": ("main",),
}


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if index < len(args) else None


# Work counters: metric name -> (traced function, amount per call).
WORK = {
    "basis.phi_grid.row_points": (
        "basis.phi_grid",
        lambda a, k: (int(_arg(a, k, 1, "nmax")) + 1) * int(np.size(_arg(a, k, 2, "x")))),
    "quadrature.golub_welsch.nodes": (
        "quadrature.golub_welsch", lambda a, k: int(_arg(a, k, 1, "N"))),
    "schrodinger.strang_propagate.steps": (
        "schrodinger.strang_propagate", lambda a, k: int(_arg(a, k, 2, "steps"))),
}

# Functions whose time is fitted against N: name -> position of N.
SCALING = {
    "coeffs.mt_coeffs_fft": 1,
    "coeffs.tanh_chebyshev_coeffs": 2,
    "coeffs.coeffs_fourier_side": 2,
    "quadrature.golub_welsch": 1,
}

KRYLOV_PARENT = "diffop.expm_apply"
KRYLOV_CHILD = "diffop.apply"
OUTPUT_BYTES = "cli.main.output_bytes"


class Tracer:
    """Collects calls, total and self time, errors and work counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.krylov_calls = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call of ``fn`` under ``name``."""
        module = name.split(".", 1)[0]
        work = [(metric, amount) for metric, (target, amount) in WORK.items() if target == name]
        size_at = SCALING.get(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[0].split(".", 1)[0] != module:
                    self.errors[module] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    if name == KRYLOV_CHILD and parent[0] == KRYLOV_PARENT:
                        self.krylov_calls += 1
                for metric, amount in work:
                    self.counts[metric] += amount(args, kwargs)
                if size_at is not None:
                    self.sizes[name].append((int(_arg(args, kwargs, size_at, "N")), elapsed))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, metric: str, amount: float) -> None:
        self.counts[metric] += amount

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYERS function on every favard module that exposes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"favard.{module}")
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self.wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "favard" or modname.startswith("favard.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def n_exponent(self, name: str) -> float:
        """Least-squares slope of log(median time) against log N; 0 when
        fewer than two sizes were timed."""
        by_size: dict[int, list[float]] = defaultdict(list)
        for n, t in self.sizes.get(name, ()):
            by_size[n].append(t)
        if len(by_size) < 2:
            return 0.0
        ns = sorted(by_size)
        logs_n = [math.log(n) for n in ns]
        logs_t = [math.log(max(float(np.median(by_size[n])), 1e-12)) for n in ns]
        return float(np.polyfit(logs_n, logs_t, 1)[0])

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for module, names in LAYERS.items():
            for fname in names:
                key = f"{module}.{fname}"
                out[f"{key}.calls"] = (self.calls[key], "count")
                out[f"{key}.total_s"] = (self.total[key], "s")
                out[f"{key}.self_s"] = (self.self_time[key], "s")
            out[f"{module}.errors"] = (self.errors[module], "count")
        expm_calls = self.calls[KRYLOV_PARENT]
        out["diffop.expm_apply.krylov_per_call"] = (
            self.krylov_calls / expm_calls if expm_calls else 0.0, "calls/call")
        for metric in WORK:
            out[metric] = (self.counts[metric], "count")
        out[OUTPUT_BYTES] = (self.counts[OUTPUT_BYTES], "bytes")
        for key in SCALING:
            out[f"{key}.n_exponent"] = (self.n_exponent(key), "slope")
        return out
