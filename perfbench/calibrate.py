"""Host-speed calibration: fixed kernels timed next to every measurement.

The benchmark machine is a share of a busy host.  The same run can take
anywhere from its usual time to half as long again, depending on what
other tenants do at that moment, and a single-threaded run also depends
on which core it lands on.  A median over one invocation cannot remove a
slowdown that lasts minutes.  So every timed run is bracketed by a fixed
kernel that never calls cbirkit, run in the same process, and timings are
reported in reference seconds:

    reported = measured * REFERENCE_S[kernel] / mean(kernel time before, after)

A change to cbirkit moves the run and not the kernel, so the reported time
moves by the same factor as the wall time; a slow moment of the host moves
both and cancels.  Each workload names the kernel that loads the machine
as its runs do: `interpreter` (one Python thread) for the pure-Python
detection half, `parallel` (a BLAS GEMM on every core plus a partial sort)
for the threaded top-K loops, `bandwidth` (two threads streaming a block
much larger than the caches) for k-reciprocal re-ranking.

    python3 perfbench/calibrate.py [REPEATS]

prints the median time of each kernel on this machine, run back to back;
REFERENCE_S holds the reference machine's medians (see baseline.json).
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def interpreter() -> None:
    """Dicts, JSON and sorting in one interpreter thread."""
    rng = random.Random(12345)
    records = [{"image_id": f"img{i % 500}", "bbox": [rng.random() * 100 for _ in range(4)],
                "score": rng.random(), "category_id": i % 5} for i in range(20000)]
    records = json.loads(json.dumps(records))
    records.sort(key=lambda r: (r["image_id"], -r["score"]))
    groups: dict = {}
    for r in records:
        groups.setdefault((r["image_id"], r["category_id"]), []).append(r["bbox"])


def parallel() -> None:
    """GEMMs that BLAS spreads over every core, each followed by a row-wise
    top-10.  Blocks of 250 rows keep the kernel's memory near 20 MB, far
    below the peak RSS of any workload's run."""
    a = np.random.default_rng(1).standard_normal((3000, 32))
    for row in range(0, len(a), 250):
        np.argpartition(-(a[row:row + 250] @ a.T), 10, axis=1)


def bandwidth() -> None:
    """Two threads, as k-reciprocal re-ranking runs its queries: each takes
    rows of a 12 MB block and reduces their element-wise min and max against
    the whole block, so the kernel streams memory on both cores."""
    block = np.random.default_rng(1).random((800, 1848))

    def work(first: int) -> None:
        for i in range(first, 24, 2):
            row = block[i][None, :]
            np.minimum(row, block).sum(axis=1)
            np.maximum(row, block).sum(axis=1)

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(work, (0, 1)))


KERNELS = {"interpreter": interpreter, "parallel": parallel, "bandwidth": bandwidth}
# a kernel is timed as the median of this many back-to-back calls, so that a
# neighbour's burst that hits one call does not move it.  The interpreter
# kernel is one large call: most of its time goes into growing the heap, as
# in a run that parses tens of thousands of JSON records, and a repeated
# call would reuse the heap the first one freed.
CALLS = {"interpreter": 1, "parallel": 5, "bandwidth": 5}
# median seconds of one call of each kernel next to the benchmark's runs on
# the reference machine (nproc 2, OpenBLAS 0.3.31 with its default threads),
# rounded; only the scale of the reported times depends on them
REFERENCE_S = {"interpreter": 0.30, "parallel": 0.058, "bandwidth": 0.060}


def warm_up(name: str) -> None:
    """Run a kernel untimed: a process's first calls pay for page faults
    and the BLAS thread pool, and read about half again as slow."""
    for _ in range(CALLS[name]):
        KERNELS[name]()


def time_kernel(name: str) -> float:
    """Median seconds of one call, over CALLS[name] back-to-back calls."""
    times = []
    for _ in range(CALLS[name]):
        start = time.perf_counter()
        KERNELS[name]()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factor(name: str, seconds: list[float]) -> float:
    """Reference seconds per measured second, from the kernel times around
    one measurement."""
    return REFERENCE_S[name] / statistics.fmean(seconds)


if __name__ == "__main__":
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    for kernel in KERNELS:
        warm_up(kernel)
        times = [time_kernel(kernel) for _ in range(repeats)]
        print(f"{kernel:<12} median {statistics.median(times):.4f} s  "
              f"min {min(times):.4f}  max {max(times):.4f}  ({repeats} runs)")
