import subprocess
import sys

import numpy as np
import pytest

import slowlight as sl
from slowlight.cli import main
from slowlight.data import ktp_absorption_path

CONFIG = """\
[medium]
gamma_invps = 1.0
delta_invps = 6.8
d0 = 2.5
length_mm = 30.0
lambda0_nm = 765.0

[signal]
shape = flat_top_spectrum
bandwidth_invps = 1.8

[control]
kind = constant
intensity = 1.0

[grid]
n = 16384
dt_ps = 0.06

[solver]
nz = 256
"""


def run_cli(*args):
    cmd = [sys.executable, "-m", "slowlight", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True)


def write_config(tmp_path, text=CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def read_csv(path):
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    header = path.read_text().splitlines()[0]
    return header, body


def test_import_leaves_scipy_out():
    code = "import sys, slowlight; assert 'scipy' not in sys.modules, 'scipy imported'"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    for name in ("analytic", "kk", "propagate", "sweep", "xcorr"):
        assert name in cp.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("xcorr", "--signal-csv", "{missing}"),
        ("kk", "--absorption-csv", "{missing}", "--center-nm", 765.0, "--lambda0-nm", 765.0,
         "--length-mm", 30.0),
        ("propagate", "--config", "{config}", "--chi-csv", "{missing}"),
    ],
    ids=["xcorr", "kk", "propagate"],
)
def test_missing_input_file_exits_2(tmp_path, argv):
    missing = tmp_path / "missing.csv"
    config = write_config(tmp_path)
    args = [str(a).format(missing=missing, config=config) for a in argv]
    cp = run_cli(*args, "--out-dir", tmp_path / "out")
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {missing}")


def _csv(header, rows=16, bad=None):
    """A CSV under ``header`` with a uniform first column; ``bad`` replaces one cell."""
    lines = [",".join([str(760.0 + k)] + ["0.5"] * header.count(",")) for k in range(rows)]
    if bad is not None:
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + bad
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["kk", "--absorption-csv", "{csv}", "--center-nm", "765.85", "--lambda0-nm", "765", "--length-mm", "30"],
         _csv("wavelength_nm,absorption", bad="inf")),
        (["propagate", "--config", "{config}", "--chi-csv", "{csv}"], _csv("detuning_invps,chi_re,chi_im", bad="nan")),
        (["xcorr", "--signal-csv", "{csv}"], _csv("time_ps,re,im", bad="abc")),
        (["xcorr", "--signal-csv", "{csv}"], _csv("time_ps,re,im", rows=100)),
        (["xcorr", "--signal-csv", "{csv}"], _csv("time_ps,re,im").replace("\n765.0,", "\n765.5,")),
    ],
    ids=["kk-inf", "chi-nan", "non-numeric", "rows-not-power-of-two", "non-uniform-axis"],
)
def test_bad_csv_exits_2(tmp_path, capsys, argv, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    fill = {"csv": path, "config": write_config(tmp_path)}
    assert main([arg.format(**fill) for arg in argv] + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


# the arguments each subcommand requires besides the flag under test
_REQUIRED = {
    "analytic": ["--config", "{config}"],
    "kk": ["--absorption-csv", "{ktp}", "--center-nm", "765.85", "--lambda0-nm", "765", "--length-mm", "30"],
    "xcorr": ["--signal-csv", "{missing}"],
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("kk", "--lambda0-nm", "0"),
        ("kk", "--span-invps", "0"),
        ("analytic", "--d0-max", "inf"),
        ("kk", "--lambda0-nm", "nan"),
        ("kk", "--lambda0-nm", "1e-320"),  # k0 = 2*pi/lambda0 divides by zero
        ("kk", "--lambda0-nm", "1e-316"),  # k0 overflows
        ("kk", "--n", "1000"),
        ("kk", "--length-mm", "0"),
        ("xcorr", "--ref-duration-ps", "0"),
        ("analytic", "--d0-max", "nan"),
        ("analytic", "--d0-step", "inf"),
        ("xcorr", "--ref-duration-ps", "nan"),
    ],
)
def test_bad_number_flag_exits_2(tmp_path, capsys, command, flag, value):
    fill = {"config": write_config(tmp_path), "ktp": ktp_absorption_path(), "missing": tmp_path / "missing.csv"}
    args = [arg.format(**fill) for arg in _REQUIRED[command]]
    with pytest.raises(SystemExit) as exited:
        main([command, *args, flag, value, "--out-dir", str(tmp_path / "out")])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


NO_WINDOW = [("gamma_invps = 1.0", "gamma_invps = 7.0")]
AS_LIST = [("intensity = 1.0", "intensity_list = 0.5, 1.0")]


@pytest.mark.parametrize(
    "argv, edits, code",
    [
        (["analytic"], NO_WINDOW, 2),
        (["propagate", "--domain", "fd"], NO_WINDOW, 2),
        (["propagate", "--domain", "td"], NO_WINDOW, 2),
        (["sweep", "--domain", "fd"], NO_WINDOW + AS_LIST, 2),
        (["analytic"], [("dt_ps = 0.06\n", ""), ("n = 16384", "n = 8")], 2),  # no grid step fits
        (["propagate", "--domain", "fd"], [("intensity = 1.0", "intensity = 1e300")], 3),
        (["sweep", "--domain", "td"], [("intensity = 1.0", "intensity_list = 0.0, 0.0, 0.0")], 3),
    ],
    ids=["analytic-no-window", "fd-no-window", "td-no-window", "sweep-no-window", "analytic-no-grid-step",
         "fd-centroid", "sweep-all-zero"],
)
def test_failed_run_writes_nothing(tmp_path, capsys, argv, edits, code):
    text = CONFIG
    for old, new in edits:
        text = text.replace(old, new)
    out = tmp_path / "out"
    out.mkdir()
    assert main([*argv, "--config", str(write_config(tmp_path, text)), "--out-dir", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert list(out.iterdir()) == []


class TestAnalytic:
    def test_sweep_values(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cp = run_cli("analytic", "--config", cfg, "--out-dir", out, "--d0-max", 5, "--d0-step", 0.1)
        assert cp.returncode == 0, cp.stderr
        header, body = read_csv(out / "analytic_sweep.csv")
        assert header == "d0,delay_ps,loss_db,dbp"
        d0, delay, loss, dbp = body.T
        row = np.argmin(np.abs(d0 - 2.5))
        assert d0[row] == pytest.approx(2.5, abs=1e-12)
        assert delay[row] == pytest.approx(0.16735, abs=1e-5)
        assert loss[row] == pytest.approx(1.7289, abs=1e-4)
        assert dbp[row] == pytest.approx(0.9706, abs=1e-4)
        # unit DBP crossing falls between d0 = 2.5 and 2.6
        crossing = d0[np.argmax(dbp >= 1.0)]
        assert 2.5 < crossing <= 2.6
        # delay per loss constant across the sweep
        mask = d0 > 0
        ratio = delay[mask] / loss[mask]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-9 * abs(ratio[0])

    def test_zero_only_sweep(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cp = run_cli("analytic", "--config", cfg, "--out-dir", out, "--d0-max", 0, "--d0-step", 0.1)
        assert cp.returncode == 0, cp.stderr
        _, body = read_csv(out / "analytic_sweep.csv")
        assert body.shape[0] == 1
        assert np.all(body[0] == 0.0)

    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG + "\ntypo_key = 1\n")
        cp = run_cli("analytic", "--config", cfg, "--out-dir", tmp_path / "out")
        assert cp.returncode == 2
        assert "typo_key" in cp.stderr


class TestPropagate:
    def test_fd_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cp = run_cli("propagate", "--config", cfg, "--out-dir", out, "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        delay = float(summary["metrics.first_moment_delay_ps"])
        assert delay == pytest.approx(0.167, rel=0.05)
        assert float(summary["metrics.center_transmission"]) == pytest.approx(0.672, abs=0.007)
        for name in ("input_envelope.csv", "output_envelope.csv", "spectrum_on.csv", "spectrum_off.csv"):
            assert (out / name).exists()

    def test_control_off_identity(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG.replace("intensity = 1.0", "intensity = 0.0"))
        out = tmp_path / "out"
        cp = run_cli("propagate", "--config", cfg, "--out-dir", out, "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        _, body_in = read_csv(out / "input_envelope.csv")
        _, body_out = read_csv(out / "output_envelope.csv")
        scale = np.max(np.abs(body_in[:, 1:]))
        assert np.allclose(body_out, body_in, rtol=0, atol=1e-15 * scale)
        _, on = read_csv(out / "spectrum_on.csv")
        _, off = read_csv(out / "spectrum_off.csv")
        assert np.array_equal(on, off)  # H is exactly unity with the control off

    def test_td_cross_check(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cp = run_cli("propagate", "--config", cfg, "--out-dir", out, "--domain", "td")
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        assert float(summary["metrics.td_fd_l2_error"]) < 1e-3

    def test_deterministic_rerun_from_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path)
        first = tmp_path / "first"
        cp = run_cli("propagate", "--config", cfg, "--out-dir", first, "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        second = tmp_path / "second"
        cp = run_cli(
            "propagate", "--config", first / "resolved_config.ini", "--out-dir", second,
            "--domain", "fd",
        )
        assert cp.returncode == 0, cp.stderr
        for name in ("input_envelope.csv", "output_envelope.csv", "spectrum_on.csv", "spectrum_off.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_chi_csv_source(self, tmp_path):
        cfg = write_config(tmp_path)
        first = tmp_path / "first"
        run_cli("propagate", "--config", cfg, "--out-dir", first, "--domain", "fd")
        # regenerate the transfer medium from its own sampled susceptibility
        grid = sl.TimeGrid.centered(16384, 0.06).frequency_grid()
        medium = sl.from_target_depth(2.5, 1.0, 6.8, 2 * np.pi / 765e-6, 30.0)
        chi_path = tmp_path / "chi.csv"
        from slowlight import io as sio

        sio.write_susceptibility_csv(chi_path, grid, sl.chi(medium, grid.omegas))
        second = tmp_path / "second"
        cp = run_cli(
            "propagate", "--config", cfg, "--out-dir", second,
            "--domain", "fd", "--chi-csv", chi_path,
        )
        assert cp.returncode == 0, cp.stderr
        s1 = read_summary(first / "summary.txt")
        s2 = read_summary(second / "summary.txt")
        assert float(s2["metrics.first_moment_delay_ps"]) == pytest.approx(
            float(s1["metrics.first_moment_delay_ps"]), rel=1e-6
        )
        # the source follows --chi-csv; model figures do not describe a measured chi
        assert s1["run.chi_source"] == "model"
        assert s2["run.chi_source"] == "csv"
        assert not any(key.startswith("figures.") for key in s2)

    def test_td_shaped_control(self, tmp_path):
        text = CONFIG.replace(
            "kind = constant\nintensity = 1.0",
            "kind = flat_top\nintensity = 1.0\nfwhm_ps = 40.0",
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        cp = run_cli("propagate", "--config", cfg, "--out-dir", out, "--domain", "td")
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        # no automatic cross-check for shaped control
        assert "metrics.td_fd_l2_error" not in summary
        assert float(summary["metrics.first_moment_delay_ps"]) > 0.1

    def test_td_short_control_warning_is_one_entry(self, tmp_path):
        text = CONFIG.replace("kind = constant", "kind = gaussian\nfwhm_ps = 5.0")
        out = tmp_path / "out"
        argv = ["propagate", "--config", str(write_config(tmp_path, text)), "--domain", "td", "--out-dir", str(out)]
        assert main(argv) == 0
        entries = read_summary(out / "summary.txt")["warnings"].split("; ")
        assert len(entries) == 1 and entries[0].startswith("control intensity FWHM")

    def test_center_transmission_only_for_fixed_intensity(self, tmp_path):
        gaussian = CONFIG.replace("kind = constant", "kind = gaussian\nfwhm_ps = 60.0")
        runs = {"fd": (CONFIG, "fd"), "td": (CONFIG, "td"), "td_gaussian": (gaussian, "td")}
        for name, (text, domain) in runs.items():
            cfg = write_config(tmp_path, text, name=f"{name}.ini")
            cp = run_cli("propagate", "--config", cfg, "--out-dir", tmp_path / name, "--domain", domain)
            assert cp.returncode == 0, cp.stderr
        # the key reads the fixed-intensity FD transfer, which a shaped control does not have
        assert "metrics.center_transmission" not in read_summary(tmp_path / "td_gaussian" / "summary.txt")
        fd = read_summary(tmp_path / "fd" / "summary.txt")["metrics.center_transmission"]
        assert read_summary(tmp_path / "td" / "summary.txt")["metrics.center_transmission"] == fd

    def test_td_with_csv_chi_rejected(self, tmp_path):
        from slowlight import io as sio

        cfg = write_config(tmp_path)
        grid = sl.TimeGrid.centered(64, 0.06).frequency_grid()
        chi_path = tmp_path / "chi.csv"
        sio.write_susceptibility_csv(chi_path, grid, np.zeros(grid.n))
        cp = run_cli(
            "propagate", "--config", cfg, "--out-dir", tmp_path / "out",
            "--domain", "td", "--chi-csv", chi_path,
        )
        assert cp.returncode == 2
        assert "two-line model" in cp.stderr

    def test_chi_source_option_removed(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["propagate", "--config", str(cfg), "--chi-source", "model", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --chi-source" in capsys.readouterr().err

    def test_grid_n_not_power_of_two_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG.replace("n = 16384", "n = 10000"))
        cp = run_cli("propagate", "--config", cfg, "--out-dir", tmp_path / "out")
        assert cp.returncode == 2
        assert "grid.n" in cp.stderr

    def test_solver_refusal_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG.replace("d0 = 2.5", "d0 = 80.0").replace("nz = 256", "nz = 16"))
        cp = run_cli("propagate", "--config", cfg, "--out-dir", tmp_path / "out", "--domain", "td")
        assert cp.returncode == 3
        assert "nz >=" in cp.stderr  # [solver] nz lies below nz_needed

    @pytest.mark.parametrize("command", ["propagate", "sweep"])
    def test_td_rerun_from_resolved_config_is_byte_identical(self, tmp_path, command):
        # the substep count depends only on the inputs
        text = CONFIG.replace("n = 16384", "n = 4096")
        if command == "sweep":
            text = text.replace("intensity = 1.0", "intensity_list = 0.5, 1.0, 2.0")
        first, second = tmp_path / "first", tmp_path / "second"
        argv = [command, "--domain", "td", "--out-dir"]
        assert main([*argv, str(first), "--config", str(write_config(tmp_path, text))]) == 0
        assert main([*argv, str(second), "--config", str(first / "resolved_config.ini")]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert "nz = 256\n" in (first / "resolved_config.ini").read_text()  # configured, not substeps used


class TestSweep:
    def test_fd_sweep_linear(self, tmp_path):
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 0, 0.2, 0.4, 0.6, 0.8, 1.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        cp = run_cli("sweep", "--config", cfg, "--out-dir", out, "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        header, body = read_csv(out / "intensity_scan.csv")
        assert header == "control_intensity,delay_ps,loss_db"
        assert body.shape == (6, 3)
        summary = read_summary(out / "summary.txt")
        assert float(summary["linearity.residual_ratio"]) < 0.02

    def test_fd_row_matches_propagate_metrics(self, tmp_path):
        # one delay/loss definition: the sweep row at intensity 1.0 is the
        # propagate run at that intensity, to the last printed digit
        cfg = write_config(tmp_path)
        cp = run_cli("propagate", "--config", cfg, "--out-dir", tmp_path / "single", "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(tmp_path / "single" / "summary.txt")
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 0, 0.5, 1.0")
        sweep_cfg = write_config(tmp_path, text, name="sweep.ini")
        cp = run_cli("sweep", "--config", sweep_cfg, "--out-dir", tmp_path / "scan", "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        rows = (tmp_path / "scan" / "intensity_scan.csv").read_text().splitlines()[1:]
        row = next(r.split(",") for r in rows if r.startswith("1,"))
        assert row[1:] == [summary["metrics.first_moment_delay_ps"], summary["metrics.loss_db"]]

    def test_single_zero_intensity(self, tmp_path):
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        cp = run_cli("sweep", "--config", cfg, "--out-dir", out, "--domain", "td")
        assert cp.returncode == 0, cp.stderr
        _, body = read_csv(out / "intensity_scan.csv")
        assert body.shape == (1, 3)
        assert np.allclose(body[0], 0.0, atol=1e-12)

    def test_td_zero_intensity_row_has_no_negative_zero(self, tmp_path):
        # the lossless point used to print its loss as "-0"; the row at 1.0
        # still matches the propagate run to the last printed digit
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 0.0, 1.0")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, text)), "--domain", "td", "--out-dir", str(out)]) == 0
        rows = (out / "intensity_scan.csv").read_text().splitlines()[1:]
        assert rows[0] == "0,0,0"
        cfg = write_config(tmp_path, CONFIG, name="single.ini")
        assert main(["propagate", "--config", str(cfg), "--domain", "td", "--out-dir", str(tmp_path / "single")]) == 0
        summary = read_summary(tmp_path / "single" / "summary.txt")
        assert rows[1].split(",")[1:] == [summary["metrics.first_moment_delay_ps"], summary["metrics.loss_db"]]

    def test_td_sweep_reports_solver_warnings(self, tmp_path):
        # at I = 16 the coherences pass the weak-signal limit; the entry splits back out whole
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 1.0, 16.0")
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(write_config(tmp_path, text)), "--domain", "td", "--out-dir", str(out)]
        assert main(argv) == 0
        entries = read_summary(out / "summary.txt")["warnings"].split("; ")
        assert len(entries) == 1 and entries[0].startswith("intensity 16.0: coherence amplitude reached")

    def test_sweep_requires_list(self, tmp_path):
        cfg = write_config(tmp_path)
        cp = run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "out")
        assert cp.returncode == 2
        assert "intensity_list" in cp.stderr


class TestKK:
    def test_truncated_data_needs_force_taper(self, tmp_path):
        out = tmp_path / "out"
        base = [
            "kk", "--absorption-csv", ktp_absorption_path(),
            "--center-nm", 765.85, "--lambda0-nm", 765.0, "--length-mm", 30.0,
            "--out-dir", out,
        ]
        cp = run_cli(*base)
        assert cp.returncode == 3
        cp = run_cli(*base, "--force-taper")
        assert cp.returncode == 0, cp.stderr
        header, body = read_csv(out / "susceptibility.csv")
        assert header == "detuning_invps,chi_re,chi_im"
        assert np.all(body[:, 2] >= 0)  # passive: absorption only
        summary = read_summary(out / "summary.txt")
        assert float(summary["kk.reconstructed_delay_ps"]) > 0

    def test_synthetic_doublet_end_to_end(self, tmp_path):
        # clean, wide-coverage doublet: reconstruction matches the model
        medium = sl.from_target_depth(2.5, 1.0, 6.8, 2 * np.pi / 765e-6, 30.0)
        lam = np.linspace(600.0, 1000.0, 20001)
        nu = sl.C_NM_PER_PS / lam - sl.C_NM_PER_PS / 765.0
        depth = medium.k0 * 30.0 * sl.chi(medium, nu).imag
        csv = tmp_path / "depth.csv"
        rows = "\n".join(f"{l:.17g},{d:.17g}" for l, d in zip(lam, depth))
        csv.write_text("wavelength_nm,optical_depth\n" + rows + "\n")
        out = tmp_path / "out"
        cp = run_cli(
            "kk", "--absorption-csv", csv, "--center-nm", 765.0, "--lambda0-nm", 765.0,
            "--length-mm", 30.0, "--out-dir", out,
        )
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        assert float(summary["kk.reconstructed_delay_ps"]) == pytest.approx(
            sl.group_delay(medium), rel=0.02
        )


class TestXcorr:
    def test_metrics_and_delay(self, tmp_path):
        from slowlight import io as sio

        grid = sl.TimeGrid.centered(2**12, 0.01)
        signal = sl.synthesize_pulse("gaussian", grid, duration=0.650)
        spec = sl.forward_transform(signal)
        spec.samples = spec.samples * np.exp(1j * spec.grid.omegas * 0.140)
        delayed = sl.inverse_transform(spec)
        on_path, off_path = tmp_path / "on.csv", tmp_path / "off.csv"
        sio.write_envelope_csv(on_path, delayed)
        sio.write_envelope_csv(off_path, signal)
        out = tmp_path / "out"
        cp = run_cli(
            "xcorr", "--signal-csv", on_path, "--off-csv", off_path,
            "--ref-duration-ps", 0.160, "--out-dir", out,
        )
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        assert float(summary["metrics.xcorr_fwhm_ps"]) == pytest.approx(
            np.hypot(0.650, 0.160), rel=0.01
        )
        assert float(summary["metrics.deconvolved_duration_ps"]) == pytest.approx(0.650, rel=0.01)
        assert float(summary["metrics.first_moment_delay_ps"]) == pytest.approx(0.140, abs=1e-4)
        assert (out / "xcorr_on.csv").exists() and (out / "xcorr_off.csv").exists()

    def test_default_reference_on_propagate_output(self, tmp_path):
        # the 0.16-ps default needs dt <= 0.01 ps; the envelopes are resampled from dt = 0.06
        cfg = write_config(tmp_path)
        fd = tmp_path / "fd"
        assert main(["propagate", "--config", str(cfg), "--domain", "fd", "--out-dir", str(fd)]) == 0
        out = tmp_path / "out"
        argv = ["xcorr", "--signal-csv", fd / "output_envelope.csv", "--off-csv", fd / "input_envelope.csv"]
        assert main([*map(str, argv), "--out-dir", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        assert summary["xcorr.upsample"] == "8"
        envelope_delay = float(read_summary(fd / "summary.txt")["metrics.first_moment_delay_ps"])
        delay = float(summary["metrics.first_moment_delay_ps"])
        assert delay == pytest.approx(envelope_delay, rel=2e-3)

    def test_identical_inputs_zero_delay(self, tmp_path):
        from slowlight import io as sio

        grid = sl.TimeGrid.centered(2**11, 0.01)
        signal = sl.synthesize_pulse("gaussian", grid, duration=0.5)
        path = tmp_path / "sig.csv"
        sio.write_envelope_csv(path, signal)
        out = tmp_path / "out"
        cp = run_cli(
            "xcorr", "--signal-csv", path, "--off-csv", path, "--out-dir", out,
        )
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        assert float(summary["metrics.first_moment_delay_ps"]) == 0.0


def _config_keys(*control):
    return [
        "config.medium.gamma_invps", "config.medium.delta_invps", "config.medium.g_per_intensity",
        "config.medium.length_mm", "config.medium.lambda0_nm",
        "config.signal.shape", "config.signal.bandwidth_invps", "config.signal.gdd_ps2",
        "config.control.kind", *control,
        "config.grid.n", "config.grid.dt_ps", "config.solver.nz",
    ]


_PROPAGATE_KEYS = [
    "run.command", "run.chi_source", "metrics.first_moment_delay_ps", "metrics.loss_db",
    "metrics.output_fwhm_ps", "metrics.center_transmission", "grid.n", "grid.dt_ps", "solver.nz",
    "figures.d0", "figures.group_delay_ps", "figures.loss_db", "figures.delay_per_loss_ps_per_db",
    "figures.delay_bandwidth_product",
]

# a TD run also reports the z steps it needed, its z error estimate and its peak coherence
_TD_PROPAGATE_KEYS = [
    *_PROPAGATE_KEYS[: _PROPAGATE_KEYS.index("solver.nz") + 1], "solver.nz_needed", "solver.z_error_estimate",
    "solver.peak_coherence",
    *_PROPAGATE_KEYS[_PROPAGATE_KEYS.index("solver.nz") + 1 :],
]

# summary.txt key order is part of its format: a subcommand's own keys, then config.*
SUMMARY_KEYS = {
    "analytic": [
        "run.command", "sweep.d0_max", "sweep.d0_step", "figures.delay_per_loss_ps_per_db",
        "figures.d0_at_unit_dbp", "figures.loss_db_at_unit_dbp", "run.seconds",
        *_config_keys("config.control.intensity"),
    ],
    "kk": [
        "run.command", "input.absorption_csv", "input.kind", "input.center_nm", "input.lambda0_nm",
        "input.length_mm", "grid.n", "grid.span_invps", "kk.peak_depth", "kk.reconstructed_delay_ps",
    ],
    "propagate_fd": [*_PROPAGATE_KEYS, "warnings", *_config_keys("config.control.intensity")],
    "propagate_td": [
        *_TD_PROPAGATE_KEYS, "metrics.td_fd_l2_error", "warnings",
        *_config_keys("config.control.intensity"),
    ],
    "propagate_td_gaussian": [
        *[key for key in _TD_PROPAGATE_KEYS if key != "metrics.center_transmission"], "warnings",
        *_config_keys("config.control.intensity", "config.control.fwhm_ps"),
    ],
    "sweep_fd": [
        "run.command", "sweep.points", "linearity.slope_ps_per_intensity", "linearity.residual_ratio",
        "metrics.max_delay_ps", "warnings", *_config_keys("config.control.intensity_list"),
    ],
    "xcorr": [
        "run.command", "input.signal_csv", "input.ref_duration_ps", "metrics.xcorr_fwhm_ps",
        "metrics.deconvolved_duration_ps", "metrics.first_moment_delay_ps",
    ],
}


def test_summary_key_order(tmp_path):
    # in-process on a small grid: the key sequence, not the numbers, is pinned
    base = CONFIG.replace("n = 16384", "n = 4096")
    configs = {
        "const": base,
        "gauss": base.replace("kind = constant", "kind = gaussian\nfwhm_ps = 60.0"),
        "sweep": base.replace("intensity = 1.0", "intensity_list = 0, 0.5, 1.0"),
    }
    paths = {name: str(write_config(tmp_path, text, name=f"{name}.ini")) for name, text in configs.items()}
    fd_dir = tmp_path / "propagate_fd"
    runs = {
        "analytic": ["analytic", "--config", paths["const"]],
        "kk": [
            "kk", "--absorption-csv", ktp_absorption_path(), "--center-nm", "765.85",
            "--lambda0-nm", "765", "--length-mm", "30", "--force-taper",
        ],
        "propagate_fd": ["propagate", "--config", paths["const"], "--domain", "fd"],
        "propagate_td": ["propagate", "--config", paths["const"], "--domain", "td"],
        "propagate_td_gaussian": ["propagate", "--config", paths["gauss"], "--domain", "td"],
        "sweep_fd": ["sweep", "--config", paths["sweep"], "--domain", "fd"],
        "xcorr": [
            "xcorr", "--signal-csv", str(fd_dir / "output_envelope.csv"),
            "--off-csv", str(fd_dir / "input_envelope.csv"), "--ref-duration-ps", "1.0",
        ],
    }
    keys = {}
    for name, argv in runs.items():
        assert main([*argv, "--out-dir", str(tmp_path / name)]) == 0, name
        keys[name] = list(read_summary(tmp_path / name / "summary.txt"))
    assert keys == SUMMARY_KEYS
