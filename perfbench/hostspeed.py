"""Host-speed references for scaling the benchmark's timings.

The shared host the benchmark was tuned on switches between speeds up to
1.5x apart, for seconds to minutes at a time, so a raw latency says as much
about the neighbours as about trafficflow.  Each timed operation is
therefore preceded by a timing of a fixed reference that touches nothing of
trafficflow, and its latency is multiplied by (nominal reference time /
reference time now).  A change to trafficflow moves the scaled figure as
much as the raw one; a change of host speed moves both the operation and
the reference, and cancels.

There are two references, because in-process work and interpreter start-up
do not slow down alike on this host:

- the kernel, a fixed mix of the kinds of work trafficflow does in process
  (numpy calls on solver-sized and small arrays, scalar Python math), for
  operations that run inside the worker;
- a fresh interpreter that imports scipy.special, for operations that are
  fresh interpreters themselves (the CLI children and the set-up runs),
  whose start-up is mostly numpy and scipy imports.

The nominal times are the references' typical times on the reference
machine (README.md), so scaled figures read as seconds there.
"""

import math
import subprocess
import sys
import time

import numpy as np

REF_KERNEL_S = 0.002
REF_STARTUP_S = 0.45
KERNEL_REPEATS = 2
_WIDE = np.linspace(0.0, 1.0, 4000)
_NARROW = np.linspace(0.0, 1.0, 64)


def reference_kernel() -> float:
    a = _WIDE
    for _ in range(45):
        a = 0.5 * np.abs(a - 1e-4) + 0.5 * np.roll(a, 1)
    b = _NARROW
    for _ in range(150):
        b = np.maximum(b * 1.0001 - 0.5, 0.0) + 0.5
    s = 0.0
    for i in range(3000):
        s += math.sin(i * 1e-3)
    return float(a[0] + b[0]) + s


def kernel_factor() -> float:
    """Scale factor for an in-process latency measured right after this call."""
    best = math.inf
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return REF_KERNEL_S / best


def startup_factor() -> float:
    """Scale factor for a fresh interpreter's latency measured right after this call."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import scipy.special"], check=True)
    return REF_STARTUP_S / (time.perf_counter() - t0)
