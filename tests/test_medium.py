import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slowlight as sl

GAMMA, DELTA = 1.0, 6.8


def unit_medium(gamma=GAMMA, delta=DELTA, c_lo=1.0, c_hi=1.0, k0=1.0, length=1.0):
    """Medium with directly chosen line strengths at unit control intensity."""
    lines = (
        sl.RamanLine(gamma, c_lo),
        sl.RamanLine(gamma, c_hi),
    )
    return sl.RamanMedium(lines=lines, splitting=delta, length_mm=length, k0=k0)


def chi_oracle(w, gamma=GAMMA, delta=DELTA, c_lo=1.0, c_hi=1.0, k0=1.0):
    """Independent partial-fraction evaluation with plain complex arithmetic."""
    return (1j / k0) * (
        c_hi / (gamma - 1j * (w - delta / 2.0)) + c_lo / (gamma - 1j * (w + delta / 2.0))
    )


class TestChi:
    def test_window_center_values(self):
        m = unit_medium()
        value = sl.chi(m, 0.0)
        assert value.real == pytest.approx(0.0, abs=1e-15)
        assert value.imag == pytest.approx(2.0 * GAMMA / (GAMMA**2 + DELTA**2 / 4.0), rel=1e-12)
        assert value.imag == pytest.approx(0.15924, abs=5e-6)

    def test_on_resonance_value(self):
        m = unit_medium()
        value = sl.chi(m, DELTA / 2.0)
        expected = 1.0 / GAMMA + GAMMA / (GAMMA**2 + DELTA**2)
        assert value.imag == pytest.approx(expected, rel=1e-12)
        assert value.imag == pytest.approx(1.02117, abs=5e-6)

    def test_matches_independent_oracle_on_dense_grid(self):
        # unequal strengths too: swapping the two line centres moves chi only then
        w = np.linspace(-30, 30, 1001)
        for c_lo, c_hi in ((1.3, 1.3), (0.4, 1.3)):
            m = unit_medium(gamma=0.7, c_lo=c_lo, c_hi=c_hi, k0=2.0, length=3.0)
            expected = chi_oracle(w, gamma=0.7, c_lo=c_lo, c_hi=c_hi, k0=2.0)
            assert np.max(np.abs(sl.chi(m, w) - expected)) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(
        gamma_lo=st.floats(0.1, 5.0),
        gamma_hi=st.floats(0.1, 5.0),
        c_lo=st.floats(0.0, 10.0),
        c_hi=st.floats(0.0, 10.0),
        delta=st.floats(0.5, 20.0),
    )
    def test_passivity(self, gamma_lo, gamma_hi, c_lo, c_hi, delta):
        lines = (
            sl.RamanLine(gamma_lo, c_lo),
            sl.RamanLine(gamma_hi, c_hi),
        )
        m = sl.RamanMedium(lines=lines, splitting=delta, length_mm=1.0, k0=1.0)
        w = np.linspace(-15 * delta, 15 * delta, 2001)
        assert np.all(sl.chi(m, w).imag >= -1e-15)

    def test_symmetric_medium_parity(self):
        m = unit_medium()
        w = np.linspace(0.0, 40.0, 500)
        plus, minus = sl.chi(m, w), sl.chi(m, -w)
        assert np.max(np.abs(plus.imag - minus.imag)) < 1e-12
        assert np.max(np.abs(plus.real + minus.real)) < 1e-12

    def test_normal_dispersion_in_window(self):
        # positive Re-chi slope between the lines: slow light, not fast
        m = unit_medium()
        h = 1e-6
        slope = (sl.chi(m, h).real - sl.chi(m, -h).real) / (2 * h)
        assert slope > 0


class TestDepthParameterization:
    def test_zero_intensity_zero_depth(self, std_medium):
        assert sl.peak_optical_depth(std_medium.with_control_intensity(0.0)) == 0.0

    def test_depth_linear_in_intensity(self, std_medium):
        d1 = sl.peak_optical_depth(std_medium)
        d2 = sl.peak_optical_depth(std_medium.with_control_intensity(2.0))
        assert d2 == pytest.approx(2.0 * d1, rel=1e-15)

    @pytest.mark.parametrize("d0", [0.1, 2.5, 7.0])
    def test_target_depth_round_trip(self, d0):
        m = sl.from_target_depth(d0, GAMMA, DELTA, 100.0, 30.0)
        assert sl.peak_optical_depth(m) == pytest.approx(d0, rel=1e-12)

    def test_depth_consistent_with_chi_at_line_center(self):
        # single-line depth: k0 * L * Im chi at the line, cross term removed
        m = sl.from_target_depth(2.5, GAMMA, DELTA, 8.0, 30.0)
        single = sl.RamanMedium(
            lines=(
                sl.RamanLine(GAMMA, 0.0),
                sl.RamanLine(GAMMA, m.lines[1].strength_per_intensity),
            ),
            splitting=DELTA,
            length_mm=30.0,
            k0=8.0,
        )
        depth = 8.0 * 30.0 * sl.chi(single, DELTA / 2.0).imag
        assert depth == pytest.approx(2.5, rel=1e-12)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            sl.from_target_depth(1.0, -1.0, DELTA, 1.0, 1.0)
        with pytest.raises(ValueError):
            sl.from_target_depth(1.0, GAMMA, DELTA, 1.0, 0.0)
        with pytest.raises(ValueError):
            sl.RamanLine(1.0, -0.5)


GRID = sl.TimeGrid.centered(2**10, 0.05)
CHI = sl.Susceptibility(GRID.frequency_grid(), np.zeros(GRID.n))
DEPTH = sl.OpticalDepthSpectrum(GRID.frequency_grid(), np.zeros(GRID.n))
RECORDS = ([760.0, 761.0, 762.0], [0.0, 0.5, 0.0])
NON_FINITE_INPUTS = {
    "TimeGrid.dt": lambda x: sl.TimeGrid(0.0, x, 8),
    "TimeGrid.t_start": lambda x: sl.TimeGrid(x, 0.1, 8),
    "RamanLine.linewidth": lambda x: sl.RamanLine(x, 0.1),
    "RamanLine.strength": lambda x: sl.RamanLine(1.0, x),
    "RamanMedium.splitting": lambda x: dataclasses.replace(unit_medium(), splitting=x),
    "RamanMedium.length_mm": lambda x: dataclasses.replace(unit_medium(), length_mm=x),
    "RamanMedium.k0": lambda x: dataclasses.replace(unit_medium(), k0=x),
    "RamanMedium.control_intensity": lambda x: unit_medium().with_control_intensity(x),
    "from_target_depth.d0": lambda x: sl.from_target_depth(x, GAMMA, DELTA, 1.0, 1.0),
    "from_target_depth.gamma": lambda x: sl.from_target_depth(1.0, x, DELTA, 1.0, 1.0),
    "ControlField.constant": lambda x: sl.ControlField.constant(x),
    "ControlField.gaussian.fwhm": lambda x: sl.ControlField.gaussian(GRID, x, 1.0),
    "synthesize_pulse.bandwidth": lambda x: sl.synthesize_pulse("gaussian", GRID, bandwidth=x),
    "synthesize_pulse.duration": lambda x: sl.synthesize_pulse("gaussian", GRID, duration=x),
    "synthesize_pulse.phase": lambda x: sl.synthesize_pulse("gaussian", GRID, duration=2.0, quadratic_spectral_phase=x),
    "cross_correlate.reference_fwhm_ps": lambda x: sl.cross_correlate(sl.synthesize_pulse("gaussian", GRID, duration=2.0), x),
    "wavelength_bandwidth_to_frequency.lambda0": lambda x: sl.wavelength_bandwidth_to_frequency(x, 1.0),
    "wavelength_bandwidth_to_frequency.delta_lambda": lambda x: sl.wavelength_bandwidth_to_frequency(765.0, x),
    "delay_per_loss.gamma": lambda x: sl.delay_per_loss(x, DELTA),
    "delay_per_loss.delta": lambda x: sl.delay_per_loss(GAMMA, x),
    "transfer_function.k0": lambda x: sl.transfer_function(CHI, x, 30.0),
    "transfer_function.length": lambda x: sl.transfer_function(CHI, 1.0, x),
    "kk_real_from_imag.k0": lambda x: sl.kk_real_from_imag(DEPTH, x, 30.0),
    "kk_real_from_imag.length": lambda x: sl.kk_real_from_imag(DEPTH, 1.0, x),
    "ingest_absorption.center_wavelength": lambda x: sl.ingest_absorption(RECORDS, x, GRID.frequency_grid()),
    "ingest_absorption.wavelength": lambda x: sl.ingest_absorption(([760.0, 761.0, x], RECORDS[1]), 765.0, GRID.frequency_grid()),
    "ingest_absorption.absorption": lambda x: sl.ingest_absorption((RECORDS[0], [0.0, x, 0.0]), 765.0, GRID.frequency_grid()),
    "ingest_absorption.optical_depth": lambda x: sl.ingest_absorption((RECORDS[0], [0.0, x, 0.0]), 765.0, GRID.frequency_grid(), absorption=False),
    "OpticalDepthSpectrum.depth": lambda x: sl.OpticalDepthSpectrum(GRID.frequency_grid(), np.append(np.zeros(GRID.n - 1), x)),
    "deconvolve_duration.tau_xc": lambda x: sl.deconvolve_duration(x, 1.0),
    "deconvolve_duration.tau_ref": lambda x: sl.deconvolve_duration(2.0, x),
    "ControlField.envelope": lambda x: sl.ControlField(1.0, envelope=np.full(GRID.n, x)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_constructors_refuse_non_finite(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)


@pytest.mark.parametrize("strength, linewidth, length, intensity, quantity", [
    (1e300 / 30.0, 1.0, 30.0, 1e10, "a line's c / Gamma"),  # c = g I itself overflows
    (1e300 / 30.0, 1.0, 30.0, 1e9, "peak optical depth L c / Gamma"),  # c / Gamma = 3.3e307 does not
    (1e300, 1e-9, 1e-10, 1.0, "a line's c / Gamma"),  # L c / Gamma = 1e299 does not
], ids=["strength", "depth", "short-length"])
def test_line_strength_past_the_float_range_refused(strength, linewidth, length, intensity, quantity):
    # chi holds c / Gamma and its transfer L c / Gamma, so either past the float range would leave an
    # overflow warning and a nan: the medium is refused, naming the quantity and the control intensity
    lines = (sl.RamanLine(linewidth, strength),) * 2
    message = re.escape(f"{quantity} at control intensity {intensity!r} must be finite, got inf")
    with pytest.raises(ValueError, match=f"^{message}$"):
        sl.RamanMedium(lines=lines, splitting=DELTA, length_mm=length, k0=1.0, control_intensity=intensity)
    if intensity != 1.0:  # a medium that holds at unit intensity refuses the scaled one
        medium = sl.RamanMedium(lines=lines, splitting=DELTA, length_mm=length, k0=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            medium.with_control_intensity(intensity)


class TestFiguresOfMerit:
    def test_group_delay_value(self, std_medium):
        assert sl.group_delay(std_medium) == pytest.approx(0.16735, abs=1e-5)

    def test_group_delay_against_phase_slope_oracle(self, std_medium):
        # finite-difference slope of the transfer phase (k0 L / 2) Re chi
        m = std_medium
        for dw in (GAMMA / 100, GAMMA / 1000):
            slope = (sl.chi(m, dw).real - sl.chi(m, -dw).real) / (2 * dw)
            tau_fd = 0.5 * m.k0 * m.length_mm * slope
            assert sl.group_delay(m) == pytest.approx(tau_fd, rel=1e-3)

    def test_group_delay_vanishes_at_zero_depth(self):
        m = sl.from_target_depth(0.0, GAMMA, DELTA, 1.0, 1.0)
        assert sl.group_delay(m) == 0.0

    def test_group_delay_vanishes_at_gamma_half_delta(self):
        m = sl.from_target_depth(2.0, DELTA / 2.0, DELTA, 1.0, 1.0)
        assert sl.group_delay(m) == pytest.approx(0.0, abs=1e-15)

    def test_delay_sign_structure(self):
        slow = sl.from_target_depth(1.0, 0.4 * DELTA, DELTA, 1.0, 1.0)
        fast = sl.from_target_depth(1.0, 0.6 * DELTA, DELTA, 1.0, 1.0)
        assert sl.group_delay(slow) > 0
        assert sl.group_delay(fast) < 0

    def test_loss_values(self, std_medium):
        assert sl.loss_db(std_medium) == pytest.approx(1.7289, abs=1e-4)
        m5 = sl.from_target_depth(5.0, GAMMA, DELTA, std_medium.k0, std_medium.length_mm)
        assert sl.loss_db(m5) == pytest.approx(3.4578, abs=1e-4)
        assert sl.loss_db(std_medium.with_control_intensity(0.0)) == 0.0

    def test_loss_against_transmission_oracle(self, std_medium):
        m = std_medium
        transmission = abs(np.exp(0.5j * m.k0 * m.length_mm * sl.chi(m, 0.0))) ** 2
        assert sl.loss_db(m) == pytest.approx(-10.0 * np.log10(transmission), rel=1e-12)

    def test_delay_per_loss_value_and_identity(self, std_medium):
        ratio = sl.delay_per_loss(GAMMA, DELTA)
        assert ratio == pytest.approx(0.09680, abs=1e-5)
        for d0 in (0.3, 2.5, 5.0):
            m = sl.from_target_depth(d0, GAMMA, DELTA, 1.0, 1.0)
            assert sl.group_delay(m) / sl.loss_db(m) == pytest.approx(ratio, rel=1e-12)
        assert sl.delay_per_loss(DELTA / 2.0, DELTA) == pytest.approx(0.0, abs=1e-15)

    def test_dbp_value_and_crossing(self, std_medium):
        assert sl.delay_bandwidth_product(std_medium) == pytest.approx(0.971, abs=1e-3)
        # bisect the formula for the unit crossing as an independent check
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            m = sl.from_target_depth(mid, GAMMA, DELTA, 1.0, 1.0)
            if sl.delay_bandwidth_product(m) < 1.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(2.576, abs=1e-3)
        m0 = sl.from_target_depth(0.0, GAMMA, DELTA, 1.0, 1.0)
        assert sl.delay_bandwidth_product(m0) == 0.0

    def test_dbp_requires_window(self):
        m = sl.from_target_depth(1.0, 7.0, DELTA, 1.0, 1.0)
        with pytest.raises(ValueError, match="window"):
            sl.delay_bandwidth_product(m)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_figures_linear_in_control_intensity(self, scale):
        base = sl.from_target_depth(1.7, GAMMA, DELTA, 1.0, 1.0)
        scaled = base.with_control_intensity(scale)
        assert sl.group_delay(scaled) == pytest.approx(scale * sl.group_delay(base), rel=1e-12)
        assert sl.loss_db(scaled) == pytest.approx(scale * sl.loss_db(base), rel=1e-12)

    def test_figures_record(self, std_medium):
        figures = sl.figures_of_merit(std_medium)
        assert figures.d0 == pytest.approx(2.5, rel=1e-12)
        assert figures.group_delay_ps == pytest.approx(sl.group_delay(std_medium), rel=1e-15)
        assert figures.loss_db == pytest.approx(sl.loss_db(std_medium), rel=1e-15)
        assert figures.delay_bandwidth_product == pytest.approx(0.9706, abs=1e-4)
        assert figures.group_delay_ps / figures.loss_db == pytest.approx(
            figures.delay_per_loss_ps_per_db, rel=1e-12
        )

    @pytest.mark.parametrize("lines, tau_g, eta", [
        (((0.7, 0.2), (1.3, 0.05)), 0.270879542, 2.152873875),
        # the two-Lorentzian fit of the bundled KTP records: depths 1.6 and 2.0
        (((1.0, 1.6 / 30.0), (1.0, 2.0 / 30.0)), 0.120491704, 1.244793101),
    ], ids=["unequal-widths", "ktp-fit"])
    def test_unequal_lines_match_their_sampled_chi(self, lines, tau_g, eta):
        m = sl.RamanMedium(lines=tuple(sl.RamanLine(*line) for line in lines), splitting=DELTA, length_mm=30.0,
                           k0=2 * np.pi / 765e-6)
        chi = sl.susceptibility_from_medium(m, sl.TimeGrid.centered(65536, 0.06).frequency_grid())
        transmission = sl.transfer_function(chi, m.k0, m.length_mm).center_transmission()
        assert sl.group_delay(m) == pytest.approx(tau_g, abs=5e-10)
        assert sl.loss_db(m) == pytest.approx(eta, abs=5e-10)
        assert sl.group_delay(m) == pytest.approx(sl.group_delay_from_susceptibility(chi, m.k0, m.length_mm), rel=1e-6)
        assert sl.loss_db(m) == pytest.approx(-10.0 * np.log10(transmission), rel=1e-12)
        figures = sl.figures_of_merit(m)
        assert figures.d0 == max(30.0 * g / gamma for gamma, g in lines)
        assert figures.delay_per_loss_ps_per_db == pytest.approx(figures.group_delay_ps / figures.loss_db, rel=1e-12)
        window = DELTA - (lines[0][0] + lines[1][0]) / 2.0
        assert figures.delay_bandwidth_product == figures.group_delay_ps * window

    # the figures of configs/example.ini's medium and of the seeded depths of perfbench/workloads.py,
    # (d0, tau_g, eta, DBP), as the symmetric-only closed forms gave them
    PINNED = [
        (2.5, 0.167349588218589, 1.7288793069396966, 0.9706276116678162),
        (2.134364244112401, 0.1428739909442761, 1.476023270047167, 0.8286691474768014),
        (2.9560342718892496, 0.19787644726428097, 2.0442505933095507, 1.1476833941328295),
        (2.237964627091891, 0.14980898351663843, 1.5476682933768742, 0.8688921043965029),
        (2.2360480897374346, 0.14968069082180888, 1.5463429086676352, 0.8681480067664915),
        (2.622901694889702, 0.1755766074310523, 1.8138721857727453, 1.0183443231001033),
        (2.793340083761663, 0.18698572510879727, 1.9317391472242953, 1.0845172056310242),
        (2.3238327648331625, 0.15555698251347796, 1.6070505519634068, 0.9022304985781722),
        (2.226705859381049, 0.14905532346053516, 1.5398822731701076, 0.8645208760711038),
        (2.4630073578150213, 0.16487330684387946, 1.703296981506643, 0.9562651796945009),
        (2.5714025946899133, 0.1721292661462273, 1.778257894308174, 0.9983497436481183),
    ]

    @pytest.mark.parametrize("d0, tau_g, eta, dbp", PINNED, ids=[f"d0={row[0]:.4f}" for row in PINNED])
    def test_symmetric_figures_are_pinned_bit_for_bit(self, d0, tau_g, eta, dbp):
        figures = sl.figures_of_merit(sl.from_target_depth(d0, GAMMA, DELTA, 2 * np.pi / 765e-6, 30.0))
        assert dataclasses.astuple(figures) == (d0, tau_g, eta, 0.096796570788284728, dbp)

    def test_delay_per_loss_is_defined_at_zero_depth(self, std_medium):
        # tau_g / eta is 0/0 here, but each line's own ratio needs no depth
        for m in (std_medium.with_control_intensity(0.0), sl.from_target_depth(0.0, GAMMA, DELTA, 1.0, 1.0)):
            assert sl.figures_of_merit(m).delay_per_loss_ps_per_db == 0.096796570788284728
        # unequal lines: their ratios weighted by their losses, which no control intensity changes,
        # and weighted alike when neither line couples
        coupled = sl.RamanMedium(lines=(sl.RamanLine(0.7, 0.2), sl.RamanLine(1.3, 0.05)), splitting=DELTA,
                                 length_mm=30.0, k0=1.0)
        uncoupled = sl.RamanMedium(lines=(sl.RamanLine(0.7, 0.0), sl.RamanLine(1.3, 0.0)), splitting=DELTA,
                                   length_mm=30.0, k0=1.0)
        ratio = sl.figures_of_merit(coupled).delay_per_loss_ps_per_db
        assert sl.figures_of_merit(coupled.with_control_intensity(0.0)).delay_per_loss_ps_per_db == ratio
        assert sl.figures_of_merit(uncoupled).delay_per_loss_ps_per_db == pytest.approx(
            (sl.delay_per_loss(0.7, DELTA) + sl.delay_per_loss(1.3, DELTA)) / 2.0, rel=1e-15)
