"""The package's one way to fan work out to threads, and the size of it."""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def cpu_count() -> int:
    """CPUs this process may run on: the most threads a pool of the package
    starts."""
    affinity = getattr(os, "sched_getaffinity", None)   # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run_workers(task: Callable[[int], object], workers: int) -> None:
    """task(k) for each k in range(workers): task(0) on the calling thread,
    each other k on a pool of workers - 1 threads opened for this call and
    under the caller's numpy error state (numpy keeps one per thread).  All
    tasks end before this returns; the first error in k order is raised."""
    if workers <= 1:
        for k in range(workers):
            task(k)
        return
    err = np.geterr()

    def run(k: int) -> None:
        with np.errstate(**err):
            task(k)

    with ThreadPoolExecutor(workers - 1) as pool:     # joins its threads on exit
        others = [pool.submit(run, k) for k in range(1, workers)]
        task(0)
    for other in others:
        other.result()
