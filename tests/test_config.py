import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import slowlight as sl
from slowlight.config import GridConfig, MediumConfig, SignalConfig, load_config
from slowlight.errors import ConfigError
from slowlight.spectral import PULSE_SHAPES
from slowlight.tdprop import _max_beat_dt

GOOD = """\
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


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_good_config_builds_everything(tmp_path):
    config = load_config(write(tmp_path, GOOD))
    medium = config.medium.build()
    assert sl.peak_optical_depth(medium) == pytest.approx(2.5, rel=1e-12)
    assert medium.k0 == pytest.approx(2 * np.pi / 765e-6, rel=1e-12)
    grid = config.grid.build(config.signal, config.medium)
    assert grid.n == 16384 and grid.dt == 0.06
    pulse = config.signal.build(grid)
    assert pulse.energy() == pytest.approx(1.0, rel=1e-9)
    control = config.control.build(grid)
    assert control.intensity == 1.0 and control.envelope is None


def test_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError, match="frequency_offset"):
        load_config(write(tmp_path, GOOD + "\nfrequency_offset = 2\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="detector"):
        load_config(write(tmp_path, GOOD + "\n[detector]\ngain = 2\n"))


def test_medium_needs_exactly_one_strength(tmp_path):
    text = GOOD.replace("d0 = 2.5", "d0 = 2.5\ng_per_intensity = 0.08")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write(tmp_path, text))
    text = GOOD.replace("d0 = 2.5\n", "")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write(tmp_path, text))


def test_g_per_intensity_equivalent_to_d0(tmp_path):
    g = 2.5 * 1.0 / 30.0
    text = GOOD.replace("d0 = 2.5", f"g_per_intensity = {g!r}")
    medium = load_config(write(tmp_path, text)).medium.build()
    assert sl.peak_optical_depth(medium) == pytest.approx(2.5, rel=1e-12)


def test_signal_needs_exactly_one_width(tmp_path):
    text = GOOD.replace("bandwidth_invps = 1.8", "bandwidth_invps = 1.8\nduration_ps = 0.5")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write(tmp_path, text))


def test_bad_number_reported_with_key(tmp_path):
    text = GOOD.replace("gamma_invps = 1.0", "gamma_invps = one")
    with pytest.raises(ConfigError, match="gamma_invps"):
        load_config(write(tmp_path, text))


def test_no_transparency_window_rejected(tmp_path):
    text = GOOD.replace("gamma_invps = 1.0", "gamma_invps = 6.8")
    with pytest.raises(ConfigError, match="no transparency window"):
        load_config(write(tmp_path, text))


def test_shaped_control_requires_fwhm(tmp_path):
    text = GOOD.replace("kind = constant", "kind = flat_top")
    with pytest.raises(ConfigError, match="fwhm"):
        load_config(write(tmp_path, text))


def test_intensity_list_parsing(tmp_path):
    text = GOOD.replace("intensity = 1.0", "intensity_list = 0, 0.5, 1.0")
    config = load_config(write(tmp_path, text))
    assert config.control.intensity_list == [0.0, 0.5, 1.0]


def test_default_dt_respects_beat_and_span(tmp_path):
    text = GOOD.replace("dt_ps = 0.06\n", "")
    config = load_config(write(tmp_path, text))
    grid = config.grid.build(config.signal, config.medium)
    assert grid.dt <= 2 * np.pi / (8 * 6.8)
    duration = config.signal.transform_limited_duration()
    assert grid.span >= 16 * duration
    assert grid.dt <= duration / 16


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(PULSE_SHAPES),
    width=st.floats(0.05, 20.0),
    by_duration=st.booleans(),
    delta=st.floats(0.5, 50.0),
    log2_n=st.integers(3, 16),
)
# 2.77/(2.77/0.48) falls an ulp below 0.48, so a pulse that recomputed its
# duration from the bandwidth refused dt = 0.48/16
@example(shape="gaussian", width=0.48, by_duration=True, delta=6.8, log2_n=14)
def test_derived_dt_is_accepted_by_pulse_and_solver(shape, width, by_duration, delta, log2_n):
    """Whenever the config derives a step, the pulse it names can be
    synthesized on that grid and the step resolves the two-photon beat."""
    given_width = {"duration_ps": width} if by_duration else {"bandwidth_invps": width}
    signal = SignalConfig(shape=shape, **given_width)
    # gamma at the example's ratio to delta: a medium needs gamma < delta
    medium = MediumConfig(gamma_invps=delta / 6.8, delta_invps=delta, d0=2.5, length_mm=30.0, lambda0_nm=765.0)
    n = 2**log2_n
    try:
        dt = GridConfig(n=n).resolve_dt(signal, medium)
    except ConfigError:
        return  # no step both spans and resolves the pulse at this n
    assert dt <= _max_beat_dt(delta)
    sl.synthesize_pulse(
        shape, sl.TimeGrid.centered(n, dt), bandwidth=signal.bandwidth_invps, duration=signal.duration_ps
    )


def test_resolved_ini_round_trips(tmp_path):
    config = load_config(write(tmp_path, GOOD))
    resolved = tmp_path / "resolved.ini"
    resolved.write_text(config.resolved_ini())
    again = load_config(resolved)
    assert again.resolved_ini() == config.resolved_ini()
    assert again.medium.strength_per_intensity() == config.medium.strength_per_intensity()


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


NON_FINITE_SITES = {
    "medium.gamma_invps": ("gamma_invps = 1.0", "gamma_invps = {}"),
    "medium.lambda0_nm": ("lambda0_nm = 765.0", "lambda0_nm = {}"),
    "grid.dt_ps": ("dt_ps = 0.06", "dt_ps = {}"),
    "control.intensity": ("intensity = 1.0", "intensity = {}"),
    "control.intensity_list": ("intensity = 1.0", "intensity_list = 0.5, {}"),
}
NON_FINITE_CASES = [(key, value) for value in ("nan", "inf", "-inf") for key in NON_FINITE_SITES] + [
    # a wavelength so short that k0 = 2*pi/lambda0 divides by zero or overflows
    ("medium.lambda0_nm", "1e-320"),
    ("medium.lambda0_nm", "1e-316"),
]


@pytest.mark.parametrize("key, value", NON_FINITE_CASES)
def test_non_finite_number_rejected(tmp_path, key, value):
    old, new = NON_FINITE_SITES[key]
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(write(tmp_path, GOOD.replace(old, new.format(value))))


@pytest.mark.parametrize("n", [10000, 4])
def test_grid_n_must_be_power_of_two_at_least_8(tmp_path, n):
    with pytest.raises(ConfigError, match="grid.n"):
        load_config(write(tmp_path, GOOD.replace("n = 16384", f"n = {n}")))


EXAMPLE = (Path(__file__).resolve().parents[1] / "configs" / "example.ini").read_text()

# Edits to configs/example.ini whose resolved_config.ini text and config.*
# summary entries are pinned in data/resolved_config.json.  Those bytes must
# not change: older resolved_config.ini files have to re-run bit-identically.
RESOLVED_VARIANTS = {
    "example": [],
    "g_per_intensity": [("d0 = 2.5", "g_per_intensity = 0.30000000000000004")],
    "duration_ps": [("bandwidth_invps = 1.8", "duration_ps = 3.1")],
    "intensity_list_with_intensity": [("intensity = 1.0", "intensity = 1.0\nintensity_list = 0, 0.5, 1e-3")],
    "intensity_list_only": [("intensity = 1.0", "intensity_list = 0.25, 2")],
    "gaussian_control": [("kind = constant", "kind = gaussian\nfwhm_ps = 60.0")],
    "no_control": [("[control]\nkind = constant\nintensity = 1.0\n", "")],
    "no_grid": [("[grid]\nn = 16384\ndt_ps = 0.06\n", "")],
    "no_solver": [("[solver]\nnz = 256\n", "")],
    "dt_omitted": [("dt_ps = 0.06\n", "")],
    "gdd_zero": [("gdd_ps2 = 0.0", "gdd_ps2 = 0")],
}


@pytest.mark.parametrize("name", list(RESOLVED_VARIANTS))
def test_resolved_config_bytes_pinned(tmp_path, name):
    pinned = json.loads((Path(__file__).parent / "data" / "resolved_config.json").read_text())[name]
    text = EXAMPLE
    for old, new in RESOLVED_VARIANTS[name]:
        assert old in text
        text = text.replace(old, new)
    config = load_config(write(tmp_path, text))
    assert config.resolved_ini() == pinned["resolved_ini"]
    assert list(config.flat_items().items()) == list(pinned["flat_items"].items())
    assert load_config(write(tmp_path, pinned["resolved_ini"])).resolved_ini() == pinned["resolved_ini"]


def test_legacy_solver_scheme(tmp_path):
    """resolved_config.ini files once carried ``scheme = midpoint``; they still
    load, to the same configuration, while any other scheme is an unknown key."""
    legacy = EXAMPLE.replace("nz = 256\n", "nz = 256\nscheme = midpoint\n")
    assert load_config(write(tmp_path, legacy)).resolved_ini() == load_config(write(tmp_path, EXAMPLE)).resolved_ini()
    with pytest.raises(ConfigError, match="unknown key 'scheme'"):
        load_config(write(tmp_path, legacy.replace("scheme = midpoint", "scheme = rk4")))
