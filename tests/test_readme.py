"""The README's library Quick start runs as written, so a renamed or removed
name it uses fails the suite, and the TD-FD gap it quotes at the example
point is the one a run reports."""

import re
from pathlib import Path

from slowlight.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name} Quick start", "exec"), {})


def test_quoted_example_gap_matches_a_run(tmp_path):
    text = " ".join(README.read_text(encoding="utf-8").split())
    quoted = re.search(r"on the `example\.ini` grid it is (\S+) at the example's d0 = 2\.5", text).group(1)
    out = tmp_path / "out"
    assert main(["propagate", "--domain", "td", "--config", str(ROOT / "configs" / "example.ini"),
                 "--out-dir", str(out)]) == 0
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    assert f"{float(summary['metrics.td_fd_l2_error']):.1e}" == quoted  # two significant digits
