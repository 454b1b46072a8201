"""The README's library Quick start runs as written, so a renamed or removed
name it uses fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name} Quick start", "exec"), {})
