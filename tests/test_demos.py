"""Every narrative script in demos/ runs to completion, so a renamed or
removed name a demo uses fails the suite.  Each runs in its own temporary
directory, where the demos that write CSVs put their demo_out/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    cp = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert cp.returncode == 0, cp.stderr
