import numpy as np
import pytest

import slowlight as sl
from slowlight import io
from slowlight.analysis import CorrelationCurve
from slowlight.errors import ConfigError


def test_envelope_round_trip(tmp_path):
    grid = sl.TimeGrid.centered(2**10, 0.037)
    env = sl.synthesize_pulse("gaussian", grid, duration=1.3, quadratic_spectral_phase=0.2)
    path = tmp_path / "env.csv"
    io.write_envelope_csv(path, env)
    back = io.read_envelope_csv(path)
    # the time column is the source of truth; dt is recovered to rounding
    assert back.grid.n == grid.n
    assert back.grid.t_start == grid.t_start
    assert back.grid.dt == pytest.approx(grid.dt, rel=1e-12)
    assert np.array_equal(back.samples, env.samples)  # 17 digits: bit-exact doubles


def test_envelope_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x,y\n0,1,2\n")
    with pytest.raises(ConfigError, match="header"):
        io.read_envelope_csv(path)


def test_envelope_requires_uniform_time(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_ps,re,im\n0,1,0\n1,1,0\n3,1,0\n")
    with pytest.raises(ConfigError, match="uniform"):
        io.read_envelope_csv(path)


def test_susceptibility_round_trip(tmp_path):
    grid = sl.TimeGrid.centered(2**9, 0.1).frequency_grid()
    chi = np.exp(1j * grid.omegas) / (1.0 + grid.omegas**2)
    path = tmp_path / "chi.csv"
    io.write_susceptibility_csv(path, grid, chi)
    text = path.read_text()
    assert text.startswith("detuning_invps,chi_re,chi_im\n")
    w, values = io.read_susceptibility_csv(path)
    assert np.array_equal(w, grid.omegas)
    assert np.array_equal(values, chi)


def test_absorption_kind_detection(tmp_path):
    a_path = tmp_path / "a.csv"
    a_path.write_text("wavelength_nm,absorption\n760,0.2\n761,0.3\n")
    _, _, kind = io.read_absorption_csv(a_path)
    assert kind == "absorption"
    d_path = tmp_path / "d.csv"
    d_path.write_text("wavelength_nm,optical_depth\n760,0.2\n761,0.3\n")
    _, _, kind = io.read_absorption_csv(d_path)
    assert kind == "optical_depth"
    bad = tmp_path / "x.csv"
    bad.write_text("lambda,alpha\n760,0.2\n")
    with pytest.raises(ConfigError, match="header"):
        io.read_absorption_csv(bad)
    wide = tmp_path / "wide.csv"
    wide.write_text("wavelength_nm,absorption\n760,0.2,0.1\n761,0.3,0.1\n")
    with pytest.raises(ConfigError, match="columns"):
        io.read_absorption_csv(wide)


def test_correlation_and_scan_formats(tmp_path):
    curve = CorrelationCurve(delays=np.array([-1.0, 0.0, 1.0]), intensity=np.array([0.1, 1.0, 0.2]))
    cpath = tmp_path / "xc.csv"
    io.write_correlation_csv(cpath, curve)
    assert cpath.read_text().splitlines()[0] == "delay_ps,intensity"
    spath = tmp_path / "scan.csv"
    io.write_scan_csv(spath, [sl.ScanPoint(0.0, 0.0, 0.0), sl.ScanPoint(1.0, 0.2, 1.7)])
    lines = spath.read_text().splitlines()
    assert lines[0] == "control_intensity,delay_ps,loss_db"
    assert len(lines) == 3


def test_summary_format(tmp_path):
    path = tmp_path / "summary.txt"
    io.write_summary(path, {"a.b": 1.25, "c": "text"})
    assert path.read_text() == "a.b = 1.25\nc = text\n"


def test_full_precision_round_trip(tmp_path):
    value = 0.1673495882185889
    grid = sl.TimeGrid.centered(8, 1.0)
    env = sl.ComplexEnvelope(grid=grid, samples=np.full(8, value + 1j * np.pi))
    path = tmp_path / "env.csv"
    io.write_envelope_csv(path, env)
    back = io.read_envelope_csv(path)
    assert np.array_equal(back.samples, env.samples)


def test_bundled_absorption_data_loads():
    from slowlight.data import ktp_absorption_path

    lam, values, kind = io.read_absorption_csv(ktp_absorption_path())
    assert kind == "absorption"
    assert lam[0] == 758.0 and lam[-1] == 778.0
    short, long = lam < 766.0, lam >= 766.0
    assert lam[short][np.argmax(values[short])] == pytest.approx(759.4, abs=0.05)
    assert lam[long][np.argmax(values[long])] == pytest.approx(772.4, abs=0.05)
