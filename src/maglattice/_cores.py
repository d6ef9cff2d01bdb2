"""The number of cores this process may run on, read by every parallel pass."""

import os


def usable_cores() -> int:
    """Cores in this process's CPU affinity mask, or os.cpu_count() where the
    platform has no affinity call; at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
