"""Seeded workload inputs, CLI command cycles and output checks.

A seed draws the physics of one run (peak optical depth, signal bandwidth,
control FWHM, the sweep intensities and the Kramers-Kronig centre).  The
numerical grid (n = 16384, dt = 0.06 ps) and nz = 256 are fixed, so the
cost of an invocation does not depend on the seed.  The program only ever
sees the INI files and CSVs written here.

Every check compares an output with a closed form implemented in this file
(not imported from the program under test) or with one of the program's own
cross-checks, and returns a list of failure messages.
"""

from __future__ import annotations

import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

GAMMA_INVPS = 1.0
DELTA_INVPS = 6.8
LENGTH_MM = 30.0
LAMBDA0_NM = 765.0
GRID_N = 16384
GRID_DT_PS = 0.06
SOLVER_NZ = 256
KK_CENTER_NM = 765.85
XCORR_REF_PS = 1.0

# The fixed operating point of configs/example.ini.  The TD-FD accuracy
# probe runs here in every workload, so td_fd_l2_error compares across
# seeds and commits instead of following the seeded physics.
PROBE_D0 = 2.5
PROBE_BANDWIDTH_INVPS = 1.8

# README budget for TD against FD under constant control.
TD_FD_L2_BUDGET = 1e-3

WORKLOADS = ("cli_fd", "td_propagate", "td_sweep")


@dataclass(frozen=True)
class Physics:
    d0: float
    bandwidth_invps: float
    control_fwhm_ps: float
    intensities: tuple[float, ...]
    kk_center_nm: float


def draw_physics(seed: int) -> Physics:
    """The seed's physics; the same seed always gives the same values."""
    rng = random.Random(seed)
    d0 = rng.uniform(2.0, 3.0)
    bandwidth = rng.uniform(1.5, 2.1)
    fwhm = rng.uniform(40.0, 80.0)
    intensities = sorted(
        min(2.0, max(0.1, 0.2 * (i + 1) + rng.uniform(-0.08, 0.08))) for i in range(9)
    )
    center = KK_CENTER_NM + rng.uniform(-0.2, 0.2)
    return Physics(d0, bandwidth, fwhm, tuple(intensities), center)


def probe_physics() -> Physics:
    return Physics(PROBE_D0, PROBE_BANDWIDTH_INVPS, 60.0, (1.0,), KK_CENTER_NM)


def config_text(phys: Physics, control: str) -> str:
    """INI text for one run; ``control`` is constant, gaussian or sweep."""
    if control == "constant":
        control_block = "kind = constant\nintensity = 1.0\n"
    elif control == "gaussian":
        control_block = f"kind = gaussian\nintensity = 1.0\nfwhm_ps = {phys.control_fwhm_ps!r}\n"
    else:
        listed = ", ".join(repr(v) for v in phys.intensities)
        control_block = f"kind = constant\nintensity_list = {listed}\n"
    return (
        "[medium]\n"
        f"gamma_invps = {GAMMA_INVPS!r}\n"
        f"delta_invps = {DELTA_INVPS!r}\n"
        f"d0 = {phys.d0!r}\n"
        f"length_mm = {LENGTH_MM!r}\n"
        f"lambda0_nm = {LAMBDA0_NM!r}\n\n"
        "[signal]\n"
        "shape = flat_top_spectrum\n"
        f"bandwidth_invps = {phys.bandwidth_invps!r}\n\n"
        "[control]\n"
        f"{control_block}\n"
        "[grid]\n"
        f"n = {GRID_N}\n"
        f"dt_ps = {GRID_DT_PS!r}\n\n"
        "[solver]\n"
        f"nz = {SOLVER_NZ}\n"
    )


# ---------------------------------------------------------------- closed forms


def tau_g(d0: float) -> float:
    """Window-centre group delay of the symmetric doublet (ps)."""
    q = DELTA_INVPS**2 / 4.0
    g = GAMMA_INVPS
    return d0 * g * (q - g * g) / (q + g * g) ** 2


def loss_db(d0: float) -> float:
    q = DELTA_INVPS**2 / 4.0
    g = GAMMA_INVPS
    return d0 * (10.0 / math.log(10.0)) * 2.0 * g * g / (q + g * g)


def delay_per_loss() -> float:
    q = DELTA_INVPS**2 / 4.0
    g = GAMMA_INVPS
    return (math.log(10.0) / 20.0) * (q - g * g) / (g * (g * g + q))


# ------------------------------------------------------------------- commands


@dataclass
class Step:
    """One CLI invocation of a cycle.

    ``argv`` may hold ``{dir:<step>}`` placeholders that name the output
    directory of an earlier step of the same cycle.
    """

    name: str
    argv: list[str]
    points: int = 0  # intensity points solved


@dataclass
class Inputs:
    workload: str
    seed: int
    phys: Physics
    files: dict[str, str] = field(default_factory=dict)
    cycle: list[Step] = field(default_factory=list)


def make_inputs(workload: str, seed: int, input_dir: Path, ktp_csv: Path) -> Inputs:
    """Write the seed's input files and return the workload's command cycle."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    phys = draw_physics(seed)
    input_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, p, control in (
        ("const", phys, "constant"),
        ("gauss", phys, "gaussian"),
        ("sweep", phys, "sweep"),
        ("probe", probe_physics(), "constant"),
    ):
        path = input_dir / f"{name}.ini"
        path.write_text(config_text(p, control), encoding="utf-8")
        files[name] = str(path)
    absorption = input_dir / "absorption.csv"
    shutil.copyfile(ktp_csv, absorption)
    files["absorption"] = str(absorption)

    if workload == "cli_fd":
        cycle = [
            Step("analytic", ["analytic", "--config", files["const"]]),
            Step("kk", [
                "kk", "--absorption-csv", files["absorption"],
                "--center-nm", repr(phys.kk_center_nm), "--lambda0-nm", repr(LAMBDA0_NM),
                "--length-mm", repr(LENGTH_MM), "--force-taper",
            ]),
            Step("propagate_fd", ["propagate", "--config", files["const"], "--domain", "fd"], 1),
            Step("xcorr", [
                "xcorr", "--signal-csv", "{dir:propagate_fd}/output_envelope.csv",
                "--off-csv", "{dir:propagate_fd}/input_envelope.csv",
                "--ref-duration-ps", repr(XCORR_REF_PS),
            ]),
            Step("sweep_fd", ["sweep", "--config", files["sweep"], "--domain", "fd"], 9),
        ]
    elif workload == "td_propagate":
        cycle = [
            Step("propagate_td", ["propagate", "--config", files["const"], "--domain", "td"], 1),
            Step("propagate_td_gauss", ["propagate", "--config", files["gauss"], "--domain", "td"], 1),
        ]
    else:
        cycle = [Step("sweep_td", ["sweep", "--config", files["sweep"], "--domain", "td"], 9)]
    return Inputs(workload, seed, phys, files, cycle)


def reference_steps(inputs: Inputs) -> list[Step]:
    """Untimed set-up invocations: the fixed-point accuracy probe, then the
    FD references the workload's TD outputs are checked against."""
    steps = [Step("probe_td", ["propagate", "--config", inputs.files["probe"], "--domain", "td"], 1)]
    if inputs.workload == "td_propagate":
        steps.append(Step("ref_fd", ["propagate", "--config", inputs.files["const"], "--domain", "fd"], 1))
    elif inputs.workload == "td_sweep":
        steps.append(Step("ref_sweep_fd", ["sweep", "--config", inputs.files["sweep"], "--domain", "fd"], 9))
    return steps


def resolve_argv(step: Step, dirs: dict[str, Path], out_dir: Path) -> list[str]:
    argv = []
    for arg in step.argv:
        for name, path in dirs.items():
            arg = arg.replace("{dir:" + name + "}", str(path))
        argv.append(arg)
    return argv + ["--out-dir", str(out_dir)]


# --------------------------------------------------------------------- checks


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def read_table(path: Path):
    """(header, rows) of a CSV written by the program, as floats."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def count_rows(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b"")) - 1


_FILES = {
    "analytic": ("analytic_sweep.csv", "summary.txt", "resolved_config.ini"),
    "kk": ("susceptibility.csv", "summary.txt"),
    "propagate": (
        "input_envelope.csv", "output_envelope.csv", "spectrum_off.csv", "spectrum_on.csv",
        "summary.txt", "resolved_config.ini",
    ),
    "xcorr": ("xcorr_on.csv", "xcorr_off.csv", "summary.txt"),
    "sweep": ("intensity_scan.csv", "summary.txt", "resolved_config.ini"),
}

_KEYS = {
    "analytic": ("figures.delay_per_loss_ps_per_db", "figures.d0_at_unit_dbp"),
    "kk": ("kk.peak_depth", "kk.reconstructed_delay_ps"),
    "propagate": (
        "metrics.first_moment_delay_ps", "metrics.loss_db", "metrics.output_fwhm_ps",
        "figures.group_delay_ps", "warnings",
    ),
    "xcorr": ("metrics.xcorr_fwhm_ps", "metrics.deconvolved_duration_ps", "metrics.first_moment_delay_ps"),
    "sweep": ("sweep.points", "linearity.slope_ps_per_intensity", "linearity.residual_ratio"),
}

# Tolerances, set from the seed commit over the whole seed box
# (d0 in [2, 3], bandwidth in [1.5, 2.1] /ps, control FWHM in [40, 80] ps).
FD_DELAY_VS_TAU_G = 0.06      # measured FD/tau_g: 1.017 .. 1.038 (finite bandwidth)
FD_LOSS_VS_CLOSED = 0.12      # measured: 1.04 .. 1.085
TD_VS_FD_DELAY = 0.01         # constant control; measured 0.002 .. 0.003
GAUSS_VS_FD_DELAY = 0.10      # Gaussian control; measured 0.95 .. 0.98 of FD
XCORR_VS_FD_DELAY = 2e-3      # correlation first moment vs envelope centroid; measured <= 2.3e-4
LINEARITY_RESIDUAL = 5e-3     # measured <= 2.7e-4 for FD
SWEEP_SLOPE_VS_TAU_G = 0.06   # measured slope/tau_g: 1.017 .. 1.036


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_step(step: Step, out_dir: Path, inputs: Inputs, refs: dict[str, dict]) -> list[str]:
    """Output checks of one invocation that exited 0; returns failures."""
    command = step.argv[0]
    problems = [f"missing {name}" for name in _FILES[command] if not (out_dir / name).is_file()]
    if problems:
        return problems
    summary = read_summary(out_dir / "summary.txt")
    problems = [f"summary lacks {key}" for key in _KEYS[command] if key not in summary]
    if problems:
        return problems
    num = {k: float(v) for k, v in summary.items() if _is_number(v)}
    phys = probe_physics() if step.name == "probe_td" else inputs.phys
    problems = []

    def need(ok: bool, message: str):
        if not ok:
            problems.append(message)

    if command == "analytic":
        header, rows = read_table(out_dir / "analytic_sweep.csv")
        need(header == "d0,delay_ps,loss_db,dbp", f"analytic header {header!r}")
        need(len(rows) == 51, f"analytic rows {len(rows)}")
        closed = (tau_g, loss_db, lambda d0: tau_g(d0) * (DELTA_INVPS - GAMMA_INVPS))
        for column, name in enumerate(("delay", "loss", "dbp"), start=1):
            wrong = [r[0] for r in rows if abs(r[column] - closed[column - 1](r[0])) > 1e-9 * closed[column - 1](5.0)]
            need(not wrong, f"analytic {name} differs from the closed form at d0 = {wrong[:3]}")
        need(_rel(num["figures.delay_per_loss_ps_per_db"], delay_per_loss()) < 1e-9, "delay per loss")
    elif command == "kk":
        header, rows = read_table(out_dir / "susceptibility.csv")
        need(header == "detuning_invps,chi_re,chi_im", f"kk header {header!r}")
        need(len(rows) == GRID_N, f"kk rows {len(rows)}")
        need(all(r[2] >= 0.0 for r in rows), "negative Im chi: the medium must stay passive")
        delay = num["kk.reconstructed_delay_ps"]
        need(math.isfinite(delay) and delay > 0.0, f"kk delay {delay}")
        need(num["kk.peak_depth"] > 0.0, "kk peak depth")
    elif command == "propagate":
        for name in ("input_envelope.csv", "output_envelope.csv", "spectrum_off.csv", "spectrum_on.csv"):
            rows = count_rows(out_dir / name)
            need(rows == GRID_N, f"{name} rows {rows}")
        delay = num["metrics.first_moment_delay_ps"]
        need(_rel(num["figures.group_delay_ps"], tau_g(phys.d0)) < 1e-9, "closed-form group delay")
        need(summary["warnings"] == "none", f"warnings: {summary['warnings']}")
        domain = step.argv[step.argv.index("--domain") + 1]
        if domain == "fd":
            need(_rel(delay, tau_g(phys.d0)) < FD_DELAY_VS_TAU_G, f"FD delay {delay} vs tau_g {tau_g(phys.d0)}")
            need(_rel(num["metrics.loss_db"], loss_db(phys.d0)) < FD_LOSS_VS_CLOSED, "FD loss vs closed form")
        else:
            gaussian = step.name.endswith("gauss")
            if not gaussian:
                l2 = num.get("metrics.td_fd_l2_error", math.inf)
                need(l2 < TD_FD_L2_BUDGET, f"td_fd_l2_error {l2} >= {TD_FD_L2_BUDGET}")
            fd = refs.get("ref_fd")
            if fd is not None and step.name != "probe_td":
                fd_delay = fd["metrics.first_moment_delay_ps"]
                tol = GAUSS_VS_FD_DELAY if gaussian else TD_VS_FD_DELAY
                need(_rel(delay, fd_delay) < tol, f"TD delay {delay} vs FD {fd_delay}")
            elif not gaussian:
                need(_rel(delay, tau_g(phys.d0)) < FD_DELAY_VS_TAU_G, f"TD delay {delay} vs tau_g")
    elif command == "xcorr":
        fd = refs.get("propagate_fd")
        if fd is None:
            problems.append("xcorr ran without its propagate run")
        else:
            got = num["metrics.first_moment_delay_ps"]
            need(_rel(got, fd["metrics.first_moment_delay_ps"]) < XCORR_VS_FD_DELAY,
                 f"xcorr delay {got} vs envelope delay {fd['metrics.first_moment_delay_ps']}")
        need(num["metrics.deconvolved_duration_ps"] > 0.0, "deconvolved duration")
    elif command == "sweep":
        header, rows = read_table(out_dir / "intensity_scan.csv")
        need(header == "control_intensity,delay_ps,loss_db", f"scan header {header!r}")
        need([r[0] for r in rows] == list(phys.intensities), "scan intensities differ from the input")
        need(int(num["sweep.points"]) == len(phys.intensities), "sweep.points")
        need(num["linearity.residual_ratio"] < LINEARITY_RESIDUAL,
             f"linearity residual {num['linearity.residual_ratio']}")
        slope = num["linearity.slope_ps_per_intensity"]
        need(_rel(slope, tau_g(phys.d0)) < SWEEP_SLOPE_VS_TAU_G, f"slope {slope} vs tau_g {tau_g(phys.d0)}")
        fd_rows = refs.get("ref_sweep_fd", {}).get("rows")
        if step.argv[step.argv.index("--domain") + 1] == "td" and fd_rows is not None:
            for td_row, fd_row in zip(rows, fd_rows):
                need(abs(td_row[1] - fd_row[1]) <= TD_VS_FD_DELAY * abs(fd_row[1]) + 1e-4,
                     f"TD sweep delay {td_row[1]} vs FD {fd_row[1]} at I={td_row[0]}")
    return problems


def outcome(step: Step, out_dir: Path) -> dict:
    """Numbers later checks compare against (the program's own results)."""
    summary = read_summary(out_dir / "summary.txt")
    out = {k: float(v) for k, v in summary.items() if _is_number(v)}
    if step.argv[0] == "sweep":
        out["rows"] = read_table(out_dir / "intensity_scan.csv")[1]
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
