"""The size of the package's thread pools."""

from __future__ import annotations

import os


def cpu_count() -> int:
    """CPUs this process may run on: the most threads a pool of the package
    starts."""
    affinity = getattr(os, "sched_getaffinity", None)   # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1
