"""slowlight benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload cli_fd --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --list

Run from the root of a source checkout.  With ``--trace 0`` one client runs
the workload's command cycle as ``python -m slowlight ...`` subprocesses,
one at a time, for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` the same cycle runs in-process through
``slowlight.cli.main(argv)``, untraced and then traced from this
benchmark's own code, and the per-layer metrics are reported.  Every
invocation's outputs are checked; a non-zero exit, a timeout or a failed
check counts as a failed invocation.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import probes
import workloads
from loop import Invocation, child_env, spawn, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KTP_CSV = SRC / "slowlight" / "data" / "ktp_two_line_absorption.csv"
WORK = ROOT / ".perfbench_work"


class Run:
    """One benchmark run: inputs, invocations and check results."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.dir = run_dir
        self.inputs = workloads.make_inputs(workload, seed, run_dir / "inputs", KTP_CSV)
        self.env = child_env(SRC)
        self.refs: dict[str, dict] = {}
        self.problems: list[str] = []
        self.seen: dict[str, dict] = {}
        self.count = 0

    def out_dir(self, step: workloads.Step) -> Path:
        self.count += 1
        path = self.dir / "out" / f"{self.count:04d}-{step.name}"
        path.mkdir(parents=True)
        return path

    def judge(self, step: workloads.Step, out_dir: Path, exit_code: int, timed_out: bool,
              cycle_refs: dict[str, dict]) -> bool:
        """Check one invocation; record its outcome for later steps."""
        if timed_out or exit_code != 0:
            err = out_dir / "stderr.txt"
            stderr = err.read_text(errors="replace").strip()[-300:] if err.exists() else ""
            self.problems.append(f"{step.name}: exit {exit_code}{' (timeout)' if timed_out else ''} {stderr}")
            return False
        refs = {**self.refs, **cycle_refs}
        found = workloads.check_step(step, out_dir, self.inputs, refs)
        result = workloads.outcome(step, out_dir)
        result.pop("run.seconds", None)
        first = self.seen.setdefault(step.name, result)
        if first != result:
            found.append("output differs from an earlier run of the same inputs")
        cycle_refs[step.name] = result
        self.problems.extend(f"{step.name}: {p}" for p in found)
        return not found

    def spawn_step(self, step: workloads.Step, dirs: dict[str, Path]) -> tuple[Path, Invocation]:
        out_dir = self.out_dir(step)
        argv = workloads.resolve_argv(step, dirs, out_dir)
        dirs[step.name] = out_dir
        inv = spawn(["-m", "slowlight", *argv], self.env, ROOT, out_dir / "stderr.txt")
        return out_dir, inv

    def references(self):
        """Untimed set-up invocations; they also warm the bytecode cache."""
        for step in workloads.reference_steps(self.inputs):
            out_dir, inv = self.spawn_step(step, {})
            self.judge(step, out_dir, inv.exit_code, inv.timed_out, self.refs)


def end_to_end(run: Run, seconds: float) -> tuple[dict, int, int, dict]:
    run.references()
    setup, setup_all = probes.setup_seconds(run.env, ROOT, run.dir)
    fft_ref = probes.fft_reference_seconds()

    walls, rss, failed, points = [], [], 0, 0
    started = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - started < seconds:
        dirs: dict[str, Path] = {}
        cycle_refs: dict[str, dict] = {}
        results = []
        for step in run.inputs.cycle:
            out_dir, inv = run.spawn_step(step, dirs)
            walls.append(inv.wall_s)
            rss.append(inv.maxrss_mb)
            results.append((step, out_dir, inv))
        cycles += 1
        # checks run outside the timed window so they do not dilute ops_per_s
        pause = time.perf_counter()
        for step, out_dir, inv in results:
            if run.judge(step, out_dir, inv.exit_code, inv.timed_out, cycle_refs):
                points += step.points
            else:
                failed += 1
        started += time.perf_counter() - pause
    elapsed = time.perf_counter() - started

    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "setup_s": setup,
        "wall_s.p50": statistics.median(walls),
        "wall_s.tail": tail_value,
        "ops_per_s": (len(walls) - failed) / elapsed,
        "points_per_s": points / elapsed,
        "peak_rss_mb": statistics.median(rss),
        # a failed probe reads as a 100% error; it also makes the run incorrect
        "td_fd_l2_error": run.refs.get("probe_td", {}).get("metrics.td_fd_l2_error", 1.0),
    }
    details = {
        "wall_s.tail": f"p{tail_pct} of {len(walls)} samples, {beyond} beyond it",
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup_all),
        "ops_per_s": f"{len(walls) - failed} of {len(walls)} invocations passed in {cycles} cycles, {elapsed:.2f} s",
        "failed_frac": f"{failed / len(walls):.4g}",
        "host.fft_ref_s": f"{fft_ref:.6f} s (drift probe)",
    }
    return metrics, len(walls), failed, details


def traced(run: Run, seconds: float) -> tuple[dict, int, int, dict]:
    import tracer

    run.references()
    imports = probes.import_breakdown(run.env, ROOT, run.dir)
    fft_ref = probes.fft_reference_seconds()
    sys.path.insert(0, str(SRC))
    from slowlight import cli

    attempted = failed = 0

    def cycle() -> float:
        nonlocal attempted, failed
        dirs: dict[str, Path] = {}
        cycle_refs: dict[str, dict] = {}
        wall = 0.0
        for step in run.inputs.cycle:
            out_dir = run.out_dir(step)
            argv = workloads.resolve_argv(step, dirs, out_dir)
            dirs[step.name] = out_dir
            started = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed invocation, not a failed benchmark
                (out_dir / "stderr.txt").write_text(repr(exc))
                code = 1
            wall += time.perf_counter() - started
            attempted += 1
            failed += not run.judge(step, out_dir, code, False, cycle_refs)
        return wall

    def repeat(budget: float) -> list[float]:
        walls = [cycle()]
        while sum(walls) < budget:
            walls.append(cycle())
        return walls

    cycle()  # warm-up: lazy imports and first-touch allocations
    untraced = repeat(seconds / 2)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced_walls = repeat(seconds / 2)
    finally:
        trace.uninstall()
    trace.write(WORK / "traces" / f"{run.inputs.workload}-seed{run.inputs.seed}.jsonl")

    metrics = {
        "setup.import_numpy_s": imports["numpy"],
        "setup.import_scipy_s": imports["scipy"],
        "setup.import_slowlight_s": imports["slowlight"],
        **tracer.layer_metrics(trace.spans, len(traced_walls)),
        "host.fft_ref_s": fft_ref,
        "trace.overhead_s": statistics.mean(traced_walls) - statistics.mean(untraced),
        "trace.spans": len(trace.spans) / len(traced_walls),
    }
    details = {
        "trace.overhead_s": (
            f"traced {statistics.mean(traced_walls):.4f} s/cycle over {len(traced_walls)} cycles, "
            f"untraced {statistics.mean(untraced):.4f} s/cycle over {len(untraced)} cycles"
        ),
    }
    return metrics, attempted, failed, details


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def list_metrics(spec: dict):
    """Print every metric with its unit; perfbench/README.md defines them."""
    for kind in ("end_to_end", "per_layer"):
        print(f"# {kind} ({'--trace 1' if kind == 'per_layer' else '--trace 0'})")
        for m in spec[kind]:
            bound = f"bound {m['bound']}" if "bound" in m else ""
            print(f"{m['name']:34s} {m['unit']:8s} {m['better']:7s} {bound}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="list every metric and exit")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.list:
        list_metrics(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "slowlight" / "__init__.py").is_file() or not KTP_CSV.is_file():
        print(f"error: no slowlight sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        run = Run(args.workload, args.seed, run_dir)
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, details = measure(run, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"measured metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        note = details.get(name, "")
        print(f"{name:34s} {value:14.6g} {units[name]:8s} {note}")
    for name, note in details.items():
        if name not in metrics:
            print(f"{name:34s} {note}")
    correct = not run.problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
