"""Benchmark for favard: one seeded workload, timed, checked and reported.

Run from the root of a checkout that holds ``src/favard``:

    python3 perfbench/run.py --workload transforms --seed 1 --seconds 20 --trace 0

``--workload`` is ``transforms``, ``propagate``, ``cli`` or ``all``.  A run
measures a fixed number of whole rounds of the workload's op mix: as many
as keep its ops busy for ``--seconds`` at the reference speed below
(``ROUND_S``), and for an end-to-end run at least ``MIN_ROUNDS``.  So the
same seed and ``--seconds`` give the same ops, attempted and failed counts
on every run, however the machine drifts.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs half the time untraced and half traced and reports the per-layer
metrics of the traced half, plus the tracing overhead in ops per second.
Every metric is printed by name with its unit and sample count; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are rescaled to a reference machine speed: a fixed NumPy/SciPy loop
(``calibrate.py``) runs before every op, and each op's latency is multiplied
by the loop's reference time over its median time around that op, leaving
out the loop run right after it.  The raw figures are printed next to the
rescaled ones.

Exit codes: 0 after a complete run (ops may have failed their oracles; see
``correct`` and ``failed``), 2 when the package or an argument is missing,
3 when an oracle could not be evaluated at all.
"""

from __future__ import annotations

import os
import sys

# One thread everywhere: the machine is shared and small.  Set before NumPy
# is imported, here and (through the environment) in every child process.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "FAVARD_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import oracles as O  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXIT_MISSING = 2
EXIT_ORACLE = 3
SETUP_REPEATS = 5
# The tail is the 11th slowest op.  Four cli commands take from 0.3 s to
# 9 s (verify all --family legendre, schrodinger --N 512, verify gram for
# conthahn and custom-weight) and run once per round, so an end-to-end run
# measures at least three rounds: twelve samples of them, and the tail
# falls among them.
MIN_ROUNDS = 3
# Busy seconds of one round of each workload at the reference speed, as
# measured at the commit that defined the benchmark; they turn --seconds
# into a number of rounds.
ROUND_S = {"transforms": 1.4, "propagate": 1.75, "cli": 13.0}
# A run starts no new round after this many wall seconds of timed phases
# (half of them in each phase of a traced run), so a much slower program
# still ends within the time a run is given; such a run says so in its
# output.
PHASE_CAP_S = 110.0
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pass_share": "share",
    "worst_err_digits": "digits",
    "peak_rss_mb": "MB",
}


def load_package() -> None:
    """Put the checkout's ``src`` first on the path and import favard from it."""
    if not (SRC / "favard" / "__init__.py").is_file():
        print(f"perfbench: no favard package under {SRC}", file=sys.stderr)
        sys.exit(EXIT_MISSING)
    sys.path.insert(0, str(SRC))
    import favard

    if not Path(favard.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: favard imported from {favard.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_MISSING)


@dataclass
class Sample:
    label: str
    round: int
    latency_s: float
    loop_s: float  # calibration loop time right before the op
    passed: bool
    error: float
    tolerance: float
    note: str


def environment(seed: int) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {key: os.environ.get(key) for key in THREAD_CAPS},
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def setup_times(workload: str) -> list[tuple[float, float]]:
    """(raw, rescaled) set-up times in fresh interpreters: import favard and
    build the workload's bases, then time the calibration loop there."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"perfbench: set-up probe failed: {proc.stderr.strip()}", file=sys.stderr)
            sys.exit(EXIT_MISSING)
        setup, loop = (float(v) for v in proc.stdout.split()[-2:])
        times.append((setup, setup * calibrate.REFERENCE_S / loop))
    return times


def execute(op, prev) -> tuple[object, float, object]:
    """Time one op and check its result; returns (result, latency, check).

    An op that raises, or whose result the check cannot read (malformed
    output, wrong type), is a failed op with an infinite error.  A reference
    value that cannot be built (``O.OracleUnavailable``) ends the benchmark.
    """
    start = time.perf_counter()
    try:
        result, raised = op.run(prev), None
    except Exception as exc:
        result, raised = None, exc
    latency = time.perf_counter() - start
    if raised is not None:
        return None, latency, O.Check(math.inf, 0.0,
                                      note=f"raised {type(raised).__name__}: {raised}")
    try:
        return result, latency, op.check(result)
    except O.OracleUnavailable as exc:
        raise O.OracleUnavailable(f"{op.label}: {exc}") from exc
    except Exception as exc:
        return result, latency, O.Check(math.inf, 0.0, note=f"result unreadable: {exc!r}")


def rounds_for(workload: str, seconds: float, minimum: int = 1) -> int:
    """Whole rounds that keep the ops busy for ``seconds`` at the reference
    speed, and at least ``minimum``."""
    return max(minimum, round(seconds / ROUND_S[workload]))


def run_phase(stream, rounds: int, ctx=None, tracer=None,
              cap_s: float = PHASE_CAP_S) -> list[Sample]:
    """Run ``rounds`` whole rounds (fewer only past ``cap_s`` wall seconds).

    The oracles and the calibration loop run between ops and are not part
    of any latency.  The garbage they leave is collected before each op, so
    an op pays only for collections its own allocations trigger.
    """
    loop = calibrate.Calibration()
    samples: list[Sample] = []
    loop_times: list[float] = []
    start = time.perf_counter()
    if tracer is not None:
        ctx.tracer = tracer
        tracer.install()
    try:
        for index in range(rounds):
            if index and time.perf_counter() - start > cap_s:
                print(f"# phase stopped after {index} of {rounds} rounds: "
                      f"{cap_s:g} s wall passed")
                break
            for chain in stream.round():
                prev = None
                for op in chain:
                    gc.collect()
                    loop_times.append(loop())
                    prev, latency, check = execute(op, prev)
                    samples.append(Sample(op.label, index, latency, loop_times[-1], check.passed,
                                          check.error, check.tolerance, check.note))
    finally:
        if tracer is not None:
            tracer.uninstall()
            ctx.tracer = None
    return samples


def rescaled(samples: list[Sample]) -> list[float]:
    """Latencies in seconds at the reference machine speed."""
    factors = calibrate.speed_factors([s.loop_s for s in samples])
    return [s.latency_s * f for s, f in zip(samples, factors)]


def by_round(samples: list[Sample], latencies: list[float]) -> list[list[float]]:
    rounds: dict[int, list[float]] = {}
    for s, t in zip(samples, latencies):
        rounds.setdefault(s.round, []).append(t)
    return list(rounds.values())


def throughput(samples: list[Sample], latencies: list[float]) -> float:
    """Median over rounds of ops per busy second."""
    return statistics.median(len(ts) / sum(ts) for ts in by_round(samples, latencies))


def round_median(samples: list[Sample], latencies: list[float]) -> float:
    """Median over rounds of each round's median op latency.

    Each round holds the same mix, so its median op is the same one or two
    ops every round; the median over rounds then averages their noise.  The
    median of all samples pooled would instead fall between two ops of
    different cost and take the slowest sample of one and the fastest of
    the other.
    """
    return statistics.median(statistics.median(ts) for ts in by_round(samples, latencies))


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond
    it, that percentile, and the index of the sample it is."""
    order = sorted(range(len(latencies_ms)), key=latencies_ms.__getitem__)
    k = max(0, len(order) - 11)
    return latencies_ms[order[k]], 100.0 * (k + 1) / len(order), order[k]


def end_to_end(samples: list[Sample], setups: list[tuple[float, float]]) -> dict:
    raw = [s.latency_s for s in samples]
    lat = rescaled(samples)
    lat_ms, raw_ms = [t * 1e3 for t in lat], [t * 1e3 for t in raw]
    tail_ms, pct, at = tail(lat_ms)
    passed = [s for s in samples if s.passed]
    errors = [s.error for s in passed if math.isfinite(s.error)]
    worst = max(errors, default=0.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len({s.round for s in samples})
    return {
        "setup_s": (statistics.median(r for _s, r in setups), len(setups),
                    "median of fresh interpreters; "
                    f"raw {statistics.median(s for s, _r in setups):.4f}"),
        "ops_per_s": (throughput(samples, lat), rounds,
                      f"median of {rounds} rounds, {len(samples)} ops in {sum(raw):.3f} s busy; "
                      f"raw {throughput(samples, raw):.4f}"),
        "op_p50_ms": (round_median(samples, lat_ms), rounds,
                      f"median of round medians; pooled {statistics.median(lat_ms):.4f}; "
                      f"raw {round_median(samples, raw_ms):.4f}"),
        "op_tail_ms": (tail_ms, len(lat_ms),
                       f"p{pct:.2f}, {samples[at].label}; raw {tail(raw_ms)[0]:.4f}"),
        "pass_share": (len(passed) / len(samples), len(samples),
                       f"failed_share {1.0 - len(passed) / len(samples):.6f}"),
        "worst_err_digits": (-math.log10(max(worst, 1e-17)), len(errors),
                             f"worst_err_log10 {math.log10(max(worst, 1e-17)):.4f}"),
        "peak_rss_mb": (rss_mb, 1, "ru_maxrss"),
    }


def failure_lines(samples: list[Sample]) -> list[str]:
    groups: dict[str, list[Sample]] = {}
    for s in samples:
        if not s.passed:
            groups.setdefault(s.label, []).append(s)
    lines = []
    for label, group in sorted(groups.items()):
        worst = max(s.error for s in group)
        if all(workloads.known_failure(label, s.error) for s in group):
            tag = f"known defect: {workloads.KNOWN_DEFECTS[label].cause}"
        else:
            tag = "UNEXPECTED"
        note = group[0].note
        lines.append(f"#   {label}: {len(group)} failed, error {worst:.3e} "
                     f"(tolerance {group[0].tolerance:.1e}){' ' + note if note else ''}; {tag}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment(seed)
    setups = [] if trace else setup_times(name)
    ctx = workloads.setup(name)
    stream = workloads.Stream(ctx, seed)
    for chain in stream.warmup():
        prev = None
        for op in chain:
            prev, _latency, _check = execute(op, prev)
    # Everything alive now lives for the whole run; keep the per-op
    # collections below from rescanning it.
    gc.freeze()
    if trace:
        half = rounds_for(name, seconds / 2.0)
        plain = run_phase(stream, half, cap_s=PHASE_CAP_S / 2.0)
        tracer = Tracer()
        traced = run_phase(stream, half, ctx=ctx, tracer=tracer, cap_s=PHASE_CAP_S / 2.0)
        overhead = throughput(plain, rescaled(plain)) - throughput(traced, rescaled(traced))
        per_layer = dict(tracer.metrics())
        per_layer["trace.overhead_ops_per_s"] = (overhead, "1/s")
        samples = plain + traced
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in per_layer.items()}
        table = [f"{key} {value:.6g} {unit} n={len(traced)} traced ops"
                 for key, (value, unit) in per_layer.items()]
    else:
        samples = run_phase(stream, rounds_for(name, seconds, MIN_ROUNDS))
        e2e = end_to_end(samples, setups)
        metrics = {key: {"value": value, "unit": END_TO_END[key]}
                   for key, (value, _n, _note) in e2e.items()}
        table = [f"{key} {value:.6g} {END_TO_END[key]} n={n} {note}".rstrip()
                 for key, (value, n, note) in e2e.items()]
    failed = [s for s in samples if not s.passed]
    unexpected = [s for s in failed if not workloads.known_failure(s.label, s.error)]
    mix = workloads.mix(ctx)
    print(f"# favard benchmark: workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# why: {workloads.WHY[name]}")
    print(f"# ops per round: {json.dumps(mix, sort_keys=True)}")
    print(f"# attempted {len(samples)}, failed {len(failed)}, unexpected {len(unexpected)}")
    for line in failure_lines(samples):
        print(line)
    for line in table:
        print(line)
    return {"correct": not unexpected, "attempted": len(samples), "failed": len(failed),
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_package()
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except O.OracleUnavailable as exc:
        print(f"perfbench: oracle could not run: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
