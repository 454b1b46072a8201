"""Set-up and drift probes.

``setup_s`` is the median wall time of a fresh ``python -c "import
slowlight"``; ``-X importtime`` splits that import by package.  The host
probe times a fixed numpy FFT loop that never touches slowlight, so drift of
the machine shows apart from changes in the program.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from loop import spawn

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3


def setup_seconds(env: dict[str, str], cwd: Path, scratch: Path, repeats: int = SETUP_REPEATS):
    """(median wall time, all wall times) of fresh interpreter + import."""
    times = []
    for i in range(repeats):
        inv = spawn(["-c", "import slowlight"], env, cwd, scratch / f"setup-{i}.stderr")
        if inv.exit_code != 0:
            raise RuntimeError(f"import slowlight failed: {(scratch / f'setup-{i}.stderr').read_text()}")
        times.append(inv.wall_s)
    return statistics.median(times), times


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of each top-level package from ``-X importtime``
    output, counting a module only when no ancestor belongs to the same
    package (the output lists children before their parent)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals: dict[str, float] = {}
    ancestors: list[tuple[int, str]] = []
    for depth, name, seconds in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if not any(a.split(".")[0] == package for _, a in ancestors):
            totals[package] = totals.get(package, 0.0) + seconds
        ancestors.append((depth, name))
    return totals


def import_breakdown(env: dict[str, str], cwd: Path, scratch: Path,
                     repeats: int = IMPORTTIME_REPEATS) -> dict[str, float]:
    """Median cumulative import seconds of numpy, scipy and slowlight."""
    samples: dict[str, list[float]] = {}
    for i in range(repeats):
        err = scratch / f"importtime-{i}.stderr"
        inv = spawn(["-X", "importtime", "-c", "import slowlight"], env, cwd, err)
        if inv.exit_code != 0:
            raise RuntimeError(f"import slowlight failed: {err.read_text()}")
        totals = parse_importtime(err.read_text())
        for package in ("numpy", "scipy", "slowlight"):
            samples.setdefault(package, []).append(totals.get(package, 0.0))
    return {package: statistics.median(v) for package, v in samples.items()}


def fft_reference_seconds(repeats: int = 5, loops: int = 20, size: int = 1 << 16) -> float:
    """Median time of a fixed numpy FFT round-trip loop (drift probe)."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        y = x
        for _ in range(loops):
            y = np.fft.ifft(np.fft.fft(y))
        float(y[0].real)
        times.append(time.perf_counter() - started)
    return statistics.median(times)
