"""Run environment: pinned settings, host-speed probe, CPU and memory.

Imports nothing from the library: :func:`pin_environment` must run
before the library is imported, since it reads its steers on import.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Dict, List

#: Library environment steers a run must not inherit: each one changes
#: which kernel, backend or fault plan is measured.
STEERS = ("REPRO_KERNEL", "REPRO_SERVING_BACKEND", "REPRO_FAULTS",
          "REPRO_KERNEL_CC", "REPRO_KERNEL_CACHE")

_TICK = os.sysconf("SC_CLK_TCK")


def pin_environment(root: str) -> List[str]:
    """Clear the library's steers; returns the names that were set.

    The native kernel cache is then pointed inside the checkout, so the
    compiled library is written there and nowhere else.
    """
    cleared = [name for name in STEERS if name in os.environ]
    for name in cleared:
        del os.environ[name]
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(
        root, ".bench_build", "repro-kernels")
    return cleared


def host_probe() -> Dict[str, float]:
    """Seconds for a fixed pure-Python loop and a fixed numpy sort.

    A diagnostic, not a metric: when a run is slow, this tells whether
    the host slowed down or the program did.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    values = np.random.default_rng(0).random(4_000_000)
    for _ in range(2):
        np.sort(values)
    t2 = time.perf_counter()
    return {"python_loop_s": round(t1 - t0, 4),
            "numpy_sort_s": round(t2 - t1, 4)}


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _TICK


def _child_cpu(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
    except OSError:
        return 0.0
    # After the command field: utime and stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _TICK


def cpu_seconds() -> float:
    """CPU seconds of this process plus its live worker processes."""
    import multiprocessing

    total = time.process_time()
    for child in multiprocessing.active_children():
        total += _child_cpu(child.pid)
    return total


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
