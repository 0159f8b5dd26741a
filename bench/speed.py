"""Machine-speed calibration for the benchmark's timings.

The shared 2-core host this benchmark was defined on changes speed by up to
1.7x within a minute (a back-to-back ``fit`` loop at select-wide size
drifted from 0.69 s to 1.14 s and back), so raw wall times of one run say
more about the host's state than about the program. The benchmark therefore
times a fixed kernel right before and right after every timed interval and
reports each interval scaled to the speed at which the kernel takes
REFERENCE_S:

    normalized = raw * REFERENCE_S / kernel_time

In ten runs of select-wide (seeds 101-110) the interquartile range of the
raw op_p50_s was 30 % of its median; that of the normalized one was 4 %. The kernel does the
same kind of work as panelboost (Python-level loops around small numpy
calls) and imports nothing from it, so a change to the program cannot change
the kernel's time. Raw times and the speed factor are kept in the report.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.03
ROUNDS = 3000
LENGTH = 438


def calibrate() -> float:
    """Seconds taken by the fixed calibration kernel, now."""
    a = np.linspace(-1.0, 1.0, LENGTH)
    b = np.cos(7.0 * a)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(ROUNDS):
        acc += float(a @ b) / (1.0 + float((a - a.mean()) @ b) ** 2)
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def normalize(raw: float, kernel_times: list[float]) -> float:
    """raw seconds at the reference speed, given kernel times around the interval."""
    return raw * REFERENCE_S * len(kernel_times) / sum(kernel_times)
