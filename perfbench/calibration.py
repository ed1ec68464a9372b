"""Machine-speed calibration of measured times.

The benchmark's cores are shared, and other load changes how fast the
same Python code runs by half or more, on time scales from a tenth of a
second to minutes.  Between jobs the benchmark therefore times a fixed
pure-Python loop that never touches kronlab, and scales each job's wall
time by REFERENCE_S over the median loop time of the brackets around it.
A calibrated time reads as on an uncontended core, so runs of one commit
agree with each other and two commits compare on one machine.  Raw wall
times are kept in the result file.
"""

from __future__ import annotations

import statistics
import time

LOOP_N = 4000
REFERENCE_S = 0.0015  # the loop on an idle core of the 2-core tuning machine
WINDOW = 5  # brackets on each side that a job's scale is taken over


def loop_seconds() -> float:
    """Wall time of the fixed loop: dict updates on tuple keys, big ints."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(LOOP_N):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i
    sorted(table.items())
    return time.perf_counter() - start


def calibrated(latencies: list[float], loops: list[float]) -> list[float]:
    """Scale latencies[i], run between loops[i] and loops[i + 1]."""
    if len(loops) != len(latencies) + 1:
        raise ValueError("need one loop time before each job and one after the last")
    return [
        x * REFERENCE_S / statistics.median(loops[max(0, i - WINDOW): i + WINDOW + 2])
        for i, x in enumerate(latencies)
    ]


def slowdown(loops: list[float]) -> float:
    """How much slower than the reference the machine ran over ``loops``."""
    return statistics.median(loops) / REFERENCE_S
