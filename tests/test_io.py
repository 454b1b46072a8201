from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


# The %.17g encoder and its oracle


def _percent_table(header, columns):
    """Reference writer: every cell through '%.17g', joined by one % call."""
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return header + "\n" + (row * rows.shape[0]) % tuple(rows.ravel().tolist())


def _assert_encodes_as_percent(columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    assert io._table_text(header, columns) == _percent_table(header, columns)


class _CountingFormat(str):
    """A '%.17g' that counts the cells the encoder hands to %."""

    calls = 0

    def __mod__(self, value):
        type(self).calls += 1
        return str.__mod__(self, value)


@settings(max_examples=100, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=60), width=st.integers(1, 4))
def test_encoder_matches_percent_on_raw_bit_patterns(bits, width):
    # any float64: subnormals, nan payloads, inf, both zeros
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[: values.size // width * width].reshape(-1, width)
    _assert_encodes_as_percent(list(values.T))


def _is_tie(value):
    """The exact decimal of value ends in a 5 right after 17 significant digits."""
    digits = "".join(map(str, Decimal(value).as_tuple().digits)).rstrip("0")
    return len(digits) == 18 and digits[-1] == "5"


def _exact_ties():
    """Doubles whose exact decimal has 18 significant digits, the last a 5:
    m / 2**(17 - e) for odd m, in [10**e, 10**(e + 1))."""
    ties = []
    for e in (-8, -3, 0, 3, 9, 15):
        k = 17 - e
        first = int(np.ceil(10.0**e * 2**k)) | 1
        ties += [m / 2.0**k for m in range(first, first + 100, 2) if m / 2.0**k < 10.0 ** (e + 1)]
    return ties


def _adversarial_values():
    powers = 10.0 ** np.arange(-300, 301)
    edges = np.array([
        0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-280, 1e280,
        1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0, 9.9999999999999995e-5,
        1.7976931348623157e308, np.inf, -np.inf, np.nan,
    ])
    # integers in [2**57, 2**63) whose 18th digit is 5: a multiple of 32
    # cannot end in 5, nor a multiple of 128 in 50, so none is an exact
    # tie; they test rounding next to one
    big = np.concatenate([2.0**j + 2.0 ** (j - 52) * np.arange(2000) for j in range(57, 63)])
    big = [v for v in big if str(int(v))[17] == "5"]
    three_digit_exponents = [1.2345678901234567e-123, 9.87654321e200, 3e-250, 7.000000000000001e150]
    values = np.concatenate([powers, edges, big, _exact_ties(), three_digit_exponents])
    with np.errstate(over="ignore"):
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_encoder_matches_percent_on_adversarial_values():
    values = _adversarial_values()
    _assert_encodes_as_percent([values])
    _assert_encodes_as_percent([values[: values.size // 3 * 3][i::3] for i in range(3)])


def test_exact_ties_round_half_even_through_percent():
    ties = np.array(_exact_ties())
    assert ties.size > 200 and all(map(_is_tie, ties.tolist()))
    _assert_encodes_as_percent([ties])


def test_percent_only_for_cells_the_fast_path_cannot_prove(monkeypatch):
    # every finite cell in (1e-280, 1e280) but a tie is encoded without %,
    # even next to a power of ten, where log10 can miss the decade
    monkeypatch.setattr(io, "_FMT", _CountingFormat("%.17g"))
    powers = 10.0 ** np.arange(-279, 280)
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers])
    _CountingFormat.calls = 0
    io._table_text("x", [values])
    assert _CountingFormat.calls == len({v for v in values.tolist() if _is_tie(v)}) == 1
    _CountingFormat.calls = 0
    io._table_text("x", [np.array([0.0, 0.0, -0.0, 1e-300, np.nan, 0.0])])
    assert _CountingFormat.calls == 4  # once per distinct bit pattern


def test_encoder_matches_percent_on_cli_columns(flattop_signal, std_transfer):
    # the output envelope and spectrum_on.csv of an FD propagate at n = 16384
    grid = flattop_signal.grid
    assert grid.n == 16384
    out = sl.propagate(flattop_signal, std_transfer)
    spectrum = sl.forward_transform(flattop_signal).samples * std_transfer.values
    for axis, values in [(grid.times, out.samples), (grid.frequency_grid().omegas, spectrum)]:
        _assert_encodes_as_percent([axis, values.real, values.imag])


@pytest.mark.parametrize("rows", [0, 1])
def test_empty_and_one_row_tables(rows):
    columns = [np.arange(rows) * 0.1, np.arange(rows) - 0.5, np.full(rows, -0.0)]
    _assert_encodes_as_percent(columns)
    assert io._table_text("a,b,c", columns).count("\n") == rows + 1
