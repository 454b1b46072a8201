import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import slowlight as sl
from slowlight.errors import AmbiguousWidthError, GridResolutionError
from slowlight.spectral import (
    FLAT_TOP_TBP,
    GAUSSIAN_TBP,
    _half_crossings,
    interpolated_fwhm,
    resample_to_resolve,
)

from conftest import rel_l2


def gaussian_envelope(grid, width, center=0.0, chirp=0.0, phase=0.0):
    t = grid.times
    field = np.exp(-2.0 * np.log(2.0) * ((t - center) / width) ** 2)
    return sl.ComplexEnvelope(
        grid=grid, samples=field * np.exp(1j * (phase + chirp * (t - center) ** 2))
    )


class TestGridValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            sl.TimeGrid(t_start=0.0, dt=0.1, n=100)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="power of two"):
            sl.TimeGrid(t_start=0.0, dt=0.1, n=4)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="positive"):
            sl.TimeGrid(t_start=0.0, dt=0.0, n=16)

    def test_frequency_grid_conjugacy(self):
        grid = sl.TimeGrid.centered(2**10, 0.05)
        fgrid = grid.frequency_grid()
        assert fgrid.domega == pytest.approx(2.0 * np.pi / (grid.n * grid.dt), rel=1e-15)
        assert fgrid.omegas[fgrid.zero_index] == 0.0

    def test_sample_count_mismatch_rejected(self):
        grid = sl.TimeGrid.centered(16, 0.1)
        with pytest.raises(ValueError, match="samples"):
            sl.ComplexEnvelope(grid=grid, samples=np.zeros(8))


class TestTransformIdentities:
    @settings(max_examples=25, deadline=None)
    @given(
        width=st.floats(0.5, 4.0),
        center=st.floats(-5.0, 5.0),
        chirp=st.floats(-0.3, 0.3),
        phase=st.floats(0.0, 6.28),
    )
    def test_round_trip_identity(self, width, center, chirp, phase):
        grid = sl.TimeGrid.centered(2**11, 0.05)
        env = gaussian_envelope(grid, width, center, chirp, phase)
        back = sl.inverse_transform(sl.forward_transform(env))
        assert rel_l2(back.samples, env.samples) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(width=st.floats(0.5, 4.0), center=st.floats(-5.0, 5.0), chirp=st.floats(-0.3, 0.3))
    def test_parseval(self, width, center, chirp):
        grid = sl.TimeGrid.centered(2**11, 0.05)
        env = gaussian_envelope(grid, width, center, chirp)
        spec = sl.forward_transform(env)
        assert spec.energy() == pytest.approx(env.energy(), rel=1e-12)

    def test_impulse_has_flat_spectrum(self):
        grid = sl.TimeGrid.centered(2**10, 0.05)
        samples = np.zeros(grid.n, dtype=complex)
        samples[grid.n // 2] = 1.0
        spec = sl.forward_transform(sl.ComplexEnvelope(grid=grid, samples=samples))
        mags = np.abs(spec.samples)
        assert np.max(mags) - np.min(mags) < 1e-12 * np.max(mags)

    def test_zero_spectrum_inverts_to_zero(self):
        grid = sl.TimeGrid.centered(2**10, 0.05)
        spec = sl.SpectralEnvelope(grid=grid.frequency_grid(), samples=np.zeros(grid.n))
        env = sl.inverse_transform(spec)
        assert np.all(env.samples == 0)

    @pytest.mark.parametrize("tau0", [0.4, -1.3, 0.037])
    def test_positive_phase_slope_delays_envelope(self, tau0):
        grid = sl.TimeGrid.centered(2**12, 0.05)
        env = gaussian_envelope(grid, 1.5)
        spec = sl.forward_transform(env)
        spec.samples = spec.samples * np.exp(1j * spec.grid.omegas * tau0)
        shifted = sl.inverse_transform(spec)
        assert shifted.centroid() - env.centroid() == pytest.approx(tau0, abs=grid.dt / 100)

    @settings(max_examples=20, deadline=None)
    @given(tau0=st.floats(-3.0, 3.0), width=st.floats(0.8, 3.0))
    def test_shift_theorem_property(self, tau0, width):
        grid = sl.TimeGrid.centered(2**12, 0.05)
        env = gaussian_envelope(grid, width)
        spec = sl.forward_transform(env)
        spec.samples = spec.samples * np.exp(1j * spec.grid.omegas * tau0)
        shifted = sl.inverse_transform(spec)
        assert shifted.centroid() - env.centroid() == pytest.approx(tau0, abs=grid.dt / 100)


class TestPulseSynthesis:
    def test_gaussian_duration_realized(self):
        grid = sl.TimeGrid.centered(2**12, 0.005)
        env = sl.synthesize_pulse("gaussian", grid, duration=0.160)
        assert env.intensity_fwhm() == pytest.approx(0.160, rel=1e-3)
        assert env.energy() == pytest.approx(1.0, rel=1e-12)
        assert abs(env.centroid()) < grid.dt / 100

    def test_gaussian_time_bandwidth_product_on_transform_axis(self):
        # Under the exp(i*w*t) kernel the intensity-FWHM product is 4 ln 2.
        grid = sl.TimeGrid.centered(2**12, 0.005)
        env = sl.synthesize_pulse("gaussian", grid, duration=0.160)
        spec = sl.forward_transform(env)
        product = spec.intensity_fwhm() * env.intensity_fwhm()
        assert product == pytest.approx(GAUSSIAN_TBP, rel=0.01)

    def test_flat_top_duration_on_transform_axis(self):
        grid = sl.TimeGrid.centered(2**14, 0.03)
        env = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=1.8)
        assert env.intensity_fwhm() == pytest.approx(FLAT_TOP_TBP / 1.8, rel=5e-3)

    def test_plain_frequency_time_bandwidth_constants(self):
        # Plain-frequency (cycles/ps) constants: 0.4413 for Gaussian pulses
        # and 0.8859 for flat-top spectra.
        # A width in cycles/ps is 1/(2*pi) of its width on the detuning axis (README).
        grid = sl.TimeGrid.centered(2**14, 0.005)
        gauss = sl.synthesize_pulse("gaussian", grid, duration=0.160)
        g_bandwidth = sl.forward_transform(gauss).intensity_fwhm() / (2.0 * np.pi)
        g_product = g_bandwidth * gauss.intensity_fwhm()
        flat = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=2.0 * np.pi * 1.8)
        f_product = 1.8 * flat.intensity_fwhm()
        assert g_product == pytest.approx(2.0 * np.log(2.0) / np.pi, rel=0.01)
        assert f_product == pytest.approx(0.8859, rel=0.01)

    def test_zero_quadratic_phase_is_transform_limited(self):
        grid = sl.TimeGrid.centered(2**12, 0.01)
        plain = sl.synthesize_pulse("gaussian", grid, bandwidth=2.0)
        chirped = sl.synthesize_pulse("gaussian", grid, bandwidth=2.0, quadratic_spectral_phase=1.0)
        assert plain.intensity_fwhm() == pytest.approx(GAUSSIAN_TBP / 2.0, rel=1e-3)
        assert chirped.intensity_fwhm() > 1.5 * plain.intensity_fwhm()

    def test_flat_top_is_sinc_like(self):
        grid = sl.TimeGrid.centered(2**13, 0.02)
        width = 2.0
        env = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=width)
        t = grid.times
        fgrid = grid.frequency_grid()
        # closed-form oracle: the sampled rect synthesizes a Dirichlet kernel
        n_modes = int(np.floor(width / 2.0 / fgrid.domega))
        theta = fgrid.domega * t
        with np.errstate(invalid="ignore", divide="ignore"):
            dirichlet = np.sin((n_modes + 0.5) * theta) / np.sin(theta / 2.0)
        dirichlet[t == 0.0] = 2 * n_modes + 1
        dirichlet = dirichlet / np.sqrt(np.sum(dirichlet**2) * grid.dt)
        assert rel_l2(env.samples, dirichlet.astype(complex)) < 1e-10
        # the Dirichlet kernel is sinc-like across the central lobes
        peak = np.max(np.abs(env.samples))
        sinc = np.sinc(width * t / (2.0 * np.pi)) * peak
        window = np.abs(t) < grid.span / 16
        assert np.max(np.abs(env.samples[window] - sinc[window])) < 0.02 * peak

    def test_grid_too_coarse_rejected(self):
        grid = sl.TimeGrid.centered(2**8, 0.5)
        with pytest.raises(GridResolutionError, match="dt"):
            sl.synthesize_pulse("gaussian", grid, duration=1.0)

    def test_width_spec_is_exclusive(self):
        grid = sl.TimeGrid.centered(2**10, 0.02)
        with pytest.raises(ValueError, match="exactly one"):
            sl.synthesize_pulse("gaussian", grid, bandwidth=1.0, duration=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            sl.synthesize_pulse("gaussian", grid)

    def test_unknown_shape_rejected(self):
        grid = sl.TimeGrid.centered(2**10, 0.02)
        with pytest.raises(ValueError, match="shape"):
            sl.synthesize_pulse("sech", grid, duration=1.0)


class TestResampleToResolve:
    def test_resolved_grid_returns_envelope_itself(self):
        env = sl.synthesize_pulse("gaussian", sl.TimeGrid.centered(2**10, 0.06), duration=2.0)
        resampled, factor = resample_to_resolve(env, 1.0)
        assert factor == 1 and resampled is env

    def test_band_limited_envelope_is_interpolated_exactly(self):
        grid = sl.TimeGrid.centered(2**12, 0.06)
        env = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=1.8)
        fine, factor = resample_to_resolve(env, 0.16)
        assert factor == 8  # 16 samples per 0.16 ps need dt <= 0.01 ps
        assert fine.grid == sl.TimeGrid(t_start=grid.t_start, dt=grid.dt / 8, n=8 * grid.n)
        scale = np.max(np.abs(env.samples))
        assert np.max(np.abs(fine.samples[::8] - env.samples)) < 1e-14 * scale
        assert fine.energy() == pytest.approx(env.energy(), rel=1e-12)
        sl.synthesize_pulse("gaussian", fine.grid, duration=0.16)  # now resolved

    def test_nonpositive_duration_rejected(self):
        env = sl.synthesize_pulse("gaussian", sl.TimeGrid.centered(2**10, 0.06), duration=2.0)
        with pytest.raises(ValueError, match="positive"):
            resample_to_resolve(env, 0.0)


class TestWavelengthConversion:
    def test_formula_exact(self):
        value = sl.wavelength_bandwidth_to_frequency(765.0, 3.6)
        assert value == pytest.approx(sl.C_NM_PER_PS * 3.6 / 765.0**2, rel=1e-15)
        assert value == pytest.approx(1.845, abs=2e-3)

    def test_zero_bandwidth(self):
        assert sl.wavelength_bandwidth_to_frequency(759.4, 0.0) == 0.0

    def test_carrier_frequencies(self):
        nu_short = sl.C_NM_PER_PS / 759.4
        nu_long = sl.C_NM_PER_PS / 772.4
        assert nu_short == pytest.approx(394.8, abs=0.03)
        assert nu_long == pytest.approx(388.1, abs=0.04)
        assert nu_short - nu_long == pytest.approx(6.63, abs=0.02)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sl.wavelength_bandwidth_to_frequency(-765.0, 3.6)
        with pytest.raises(ValueError):
            sl.wavelength_bandwidth_to_frequency(765.0, -0.1)


class TestWidthMeasurement:
    def test_fwhm_interpolates_between_samples(self):
        x = np.linspace(-10, 10, 2**10)
        y = np.exp(-4 * np.log(2) * (x / 3.21) ** 2)
        assert interpolated_fwhm(x, y) == pytest.approx(3.21, abs=1e-3)

    def test_two_humps_raise_ambiguity(self):
        x = np.linspace(-10, 10, 512)
        y = np.exp(-((x - 3) ** 2)) + 0.9 * np.exp(-((x + 3) ** 2))
        with pytest.raises(AmbiguousWidthError) as err:
            interpolated_fwhm(x, y)
        assert len(err.value.candidates) == 2

    def test_nonpositive_curve_rejected(self):
        with pytest.raises(ValueError):
            interpolated_fwhm(np.arange(4.0), np.zeros(4))


def _half_crossings_loop(x, y, half):
    """Sample-by-sample reference for ``spectral._half_crossings``."""
    above = y >= half
    pairs = []
    start = None
    for i in range(len(y)):
        if above[i] and start is None:
            if i == 0:
                left = x[0]
            else:
                f = (half - y[i - 1]) / (y[i] - y[i - 1])
                left = x[i - 1] + f * (x[i] - x[i - 1])
            start = left
        elif not above[i] and start is not None:
            f = (y[i - 1] - half) / (y[i - 1] - y[i])
            right = x[i - 1] + f * (x[i] - x[i - 1])
            pairs.append((start, right))
            start = None
    if start is not None:
        pairs.append((start, x[-1]))
    return pairs


# levels of 0.5 sit exactly on the half maximum, so plateaus there are common
_LEVELS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


class TestHalfCrossings:
    @settings(max_examples=300, deadline=None)
    @given(samples=st.lists(st.tuples(st.floats(0.01, 2.0), _LEVELS), min_size=1, max_size=64))
    @example(samples=[(1.0, 0.5)] * 5)
    @example(samples=[(1.0, v) for v in (1.0, 0.5, 0.5, 0.2, 0.5, 0.5, 1.0)])
    @example(samples=[(1.0, v) for v in (0.9, 0.1, 0.7, 0.3, 0.6)])
    @example(samples=[(0.5, v) for v in (0.2, 0.5, 0.8, 0.4, 0.5, 0.1)])
    def test_matches_sample_loop_exactly(self, samples):
        x = np.cumsum([step for step, _ in samples]) - 3.0
        y = np.array([level for _, level in samples])
        assert _half_crossings(x, y, 0.5) == _half_crossings_loop(x, y, 0.5)
