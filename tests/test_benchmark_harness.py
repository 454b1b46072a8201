"""perfbench runs each workload's seed-1 steps through ``cli.main`` under its
tracer and reads every per-layer metric of BENCHMARK.json off the spans.
These tests do the same in process, changing nothing under ``perfbench/``,
so a change the benchmark cannot run (a renamed parameter its tracer reads,
a config section its INIs carry) fails here and not only in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

from slowlight import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

KTP_CSV = ROOT / "src" / "slowlight" / "data" / "ktp_two_line_absorption.csv"
# measured by the harness itself, not read off the spans
UNTRACED = ("setup.", "host.", "trace.")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_one_steps_pass_their_checks_under_the_tracer(tmp_path, workload):
    inputs = workloads.make_inputs(workload, 1, tmp_path / "inputs", KTP_CSV)
    trace, refs, dirs = tracer.Tracer(), {}, {}
    trace.install()
    try:
        for step in workloads.reference_steps(inputs) + inputs.cycle:
            out_dir = tmp_path / step.name
            argv = workloads.resolve_argv(step, dirs, out_dir)
            dirs[step.name] = out_dir
            assert cli.main(argv) == 0, step.name
            assert workloads.check_step(step, out_dir, inputs, refs) == [], step.name
            refs[step.name] = workloads.outcome(step, out_dir)
    finally:
        trace.uninstall()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer"] if not m["name"].startswith(UNTRACED)}
    assert names - set(tracer.layer_metrics(trace.spans, 1)) == set()
