"""Closed-loop client: one CLI subprocess at a time.

Each invocation is timed from spawn to reap, including interpreter start and
``import slowlight``; its peak RSS comes from the ``os.wait4`` rusage of that
child alone.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

INVOCATION_TIMEOUT_S = 60.0


@dataclass
class Invocation:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    timed_out: bool


def child_env(src_dir: Path) -> dict[str, str]:
    """Environment that runs the checkout's own sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], env: dict[str, str], cwd: Path, stderr_path: Path,
          timeout_s: float = INVOCATION_TIMEOUT_S) -> Invocation:
    """Run ``python <args>`` to completion and reap it with ``os.wait4``."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode == -9 and wall >= timeout_s
    return Invocation(wall, proc.returncode, usage.ru_maxrss / 1024.0, timed_out)


def tail(values: list[float]) -> tuple[float, int, int]:
    """Highest integer percentile with at least ten samples above it, by
    nearest rank, as (value, percentile, samples beyond).  With fewer than
    twenty samples no percentile above the median qualifies, and the median
    is returned with percentile 50."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n - rank
    return statistics.median(ordered), 50, n // 2
