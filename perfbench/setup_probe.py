"""Time one set-up in a fresh interpreter: import favard, build a workload's
bases and operators.  Prints the seconds taken, then the median time of the
calibration loop in the same interpreter, as its last line.

    python3 perfbench/setup_probe.py transforms
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

workloads.setup(sys.argv[1])
elapsed = time.perf_counter() - START

import statistics  # noqa: E402

import calibrate  # noqa: E402

loop = calibrate.Calibration()
for _ in range(5):
    loop()
print(f"{elapsed:.6f} {statistics.median(loop() for _ in range(31)):.9f}")
