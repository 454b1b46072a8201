"""The benchmark's own tests: seed determinism, self-time arithmetic and the
solver limit behind ``tdprop.zstep_useful_ratio``.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

KTP_CSV = ROOT / "src" / "slowlight" / "data" / "ktp_two_line_absorption.csv"


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.make_inputs(workload, 11, tmp_path / f"{workload}-a", KTP_CSV)
        b = workloads.make_inputs(workload, 11, tmp_path / f"{workload}-b", KTP_CSV)
        assert a.phys == b.phys
        assert [s.name for s in a.cycle] == [s.name for s in b.cycle]
        assert _files(tmp_path / f"{workload}-a") == _files(tmp_path / f"{workload}-b")
    other = workloads.draw_physics(12)
    assert other != workloads.draw_physics(11)


def test_seeded_physics_stays_in_its_ranges():
    for seed in range(200):
        p = workloads.draw_physics(seed)
        assert 2.0 <= p.d0 <= 3.0
        assert 1.5 <= p.bandwidth_invps <= 2.1
        assert 40.0 <= p.control_fwhm_ps <= 80.0
        assert abs(p.kk_center_nm - workloads.KK_CENTER_NM) <= 0.2
        assert len(p.intensities) == 9
        assert all(0.1 <= v <= 2.0 for v in p.intensities)
        assert list(p.intensities) == sorted(p.intensities)


def _span(i, parent, start, end, layer="cli", name="main", **info):
    return tracer.Span(i, parent, layer, name, start, end, info=info)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0, "io", "write_summary"),
        _span(2, 1, 1.5, 3.5, "io", "atomic_write_text", bytes=100),
        _span(3, 0, 5.0, 9.0, "io", "write_envelope_csv"),
        _span(4, 3, 6.0, 7.0, "io", "atomic_write_text", bytes=1000),
        _span(5, None, 11.0, 12.0, "tdprop", "ControlField.constant"),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx([3.0, 1.0, 2.0, 3.0, 1.0, 1.0])
    assert sum(own) == pytest.approx(11.0)  # self times tile the root spans

    metrics = tracer.layer_metrics(spans, cycles=2)
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    # the write under write_summary counts as summary time and bytes, not as CSV output
    assert metrics["io.summary_write_s"] == pytest.approx(1.5)
    assert metrics["io.write_s"] == pytest.approx(2.0)
    assert metrics["io.write_bytes"] == pytest.approx(500.0)
    assert metrics["io.write_mb_per_s"] == pytest.approx(1000 / 1e6 / 4.0)
    assert metrics["tdprop.self_s"] == pytest.approx(0.5)
    assert metrics["tdprop.solve_calls"] == 0


def test_solve_refuses_one_step_below_nz_needed_and_accepts_it():
    import slowlight as sl

    phys = workloads.draw_physics(1)
    grid = sl.TimeGrid.centered(2048, workloads.GRID_DT_PS)
    pulse = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=phys.bandwidth_invps)
    medium = sl.from_target_depth(
        phys.d0, workloads.GAMMA_INVPS, workloads.DELTA_INVPS,
        2 * 3.141592653589793 / (workloads.LAMBDA0_NM * 1e-6), workloads.LENGTH_MM,
    )
    control = sl.ControlField.constant(2.0)  # the top of the sweep range
    needed = tracer.nz_needed(medium, control.intensity, grid)
    assert needed > 16  # the solver's own floor on nz is not what is being tested
    with pytest.raises(sl.GridResolutionError):
        sl.solve(medium, control, pulse, sl.SolverSettings(nz=needed - 1))
    result = sl.solve(medium, control, pulse, sl.SolverSettings(nz=needed))
    assert result.output.energy() > 0
