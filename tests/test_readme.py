"""The README's library Quick start runs as written, so a renamed or removed
name it uses fails the suite, and the numbers it quotes (the TD-FD gap at
the example point, the headline figures of merit and the paper-versus-
reproduced table) are the ones the code computes."""

import math
import re
from pathlib import Path

import slowlight as sl
from slowlight.cli import main

from conftest import DELTA, GAMMA, K0, LENGTH, experiment_scale_medium, gated_flat_top

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


def _unit_dbp_depth():
    """The reference doublet's d0 at unit delay-bandwidth product, which is linear in d0."""
    return 1.0 / sl.delay_bandwidth_product(sl.from_target_depth(1.0, GAMMA, DELTA, K0, LENGTH))


def test_headline_figures_match_figures_of_merit():
    text = " ".join(README.read_text(encoding="utf-8").split())
    quoted = re.search(r"reaches 1 at `d0 ~ (\S+)` with (\S+) dB of loss and (\S+) ps of delay per dB", text)
    fom = sl.figures_of_merit(sl.from_target_depth(_unit_dbp_depth(), GAMMA, DELTA, K0, LENGTH))
    assert abs(fom.delay_bandwidth_product - 1.0) < 1e-12
    assert quoted.groups() == (f"{fom.d0:.3f}", f"{fom.loss_db:.2f}", f"{fom.delay_per_loss_ps_per_db:.4f}")


def test_paper_table_matches_criterion_6():
    section = README.read_text(encoding="utf-8").split("## Paper versus reproduced", 1)[1].split("\n## ", 1)[0]
    rows = {cells[0]: cells[1:3] for cells in (
        [cell.strip() for cell in line.strip("|").split("|")] for line in section.splitlines() if line.startswith("| "))}
    medium = experiment_scale_medium()
    fwhm, delay, loss = gated_flat_top(medium, 2.0 * math.pi * 1.8)
    assert rows["delay"] == ["140 fs", f"{delay * 1e3:.0f} fs"]
    assert rows["pulse duration"] == ["650 fs", f"{fwhm * 1e3:.0f} fs"]
    assert rows["delay / duration"] == [f"{0.140 / 0.650:.3f}", f"{delay / fwhm:.3f}"]
    assert rows["delay-bandwidth product"] == ["~1", f"1 at d0 = {_unit_dbp_depth():.3f}"]
    text = " ".join(section.split())
    assert f"criterion 6's medium: the reference doublet at `d0 = {sl.peak_optical_depth(medium):.4f}`" in text
    assert f"loses {loss:.2f} dB of its energy, against {sl.loss_db(medium):.2f} dB at the window centre" in text
