import math

import numpy as np
import pytest

import slowlight as sl
from slowlight.analysis import CorrelationCurve, delay_and_loss
from slowlight.errors import AmbiguousWidthError


def gaussian_pulse(grid, fwhm, center=0.0):
    t = grid.times
    field = np.exp(-2.0 * np.log(2.0) * ((t - center) / fwhm) ** 2)
    return sl.ComplexEnvelope(grid=grid, samples=field.astype(complex))


def spectral_shift(env, tau0):
    spec = sl.forward_transform(env)
    spec.samples = spec.samples * np.exp(1j * spec.grid.omegas * tau0)
    return sl.inverse_transform(spec)


@pytest.fixture(scope="module")
def grid():
    return sl.TimeGrid.centered(2**12, 0.01)


class TestCrossCorrelate:
    def test_identical_impulses_peak_at_zero(self, grid):
        samples = np.zeros(grid.n, dtype=complex)
        samples[grid.n // 2] = 1.0
        pulse = sl.ComplexEnvelope(grid=grid, samples=samples)
        curve = sl.cross_correlate(pulse, pulse)
        assert curve.delays[np.argmax(curve.intensity)] == 0.0

    def test_gaussian_width_addition(self, grid):
        a, b = 0.675, 0.160
        curve = sl.cross_correlate(gaussian_pulse(grid, a), gaussian_pulse(grid, b))
        assert sl.fwhm(curve) == pytest.approx(np.hypot(a, b), rel=0.01)

    def test_shift_covariance(self, grid):
        sig = gaussian_pulse(grid, 0.5)
        ref = gaussian_pulse(grid, 0.3)
        base = sl.cross_correlate(sig, ref)
        shifted = sl.cross_correlate(spectral_shift(sig, 0.237), ref)
        assert shifted.first_moment() - base.first_moment() == pytest.approx(
            0.237, abs=grid.dt / 50
        )

    def test_grid_mismatch_rejected(self, grid):
        other = sl.TimeGrid.centered(2**11, 0.01)
        with pytest.raises(ValueError, match="grid"):
            sl.cross_correlate(gaussian_pulse(grid, 0.5), gaussian_pulse(other, 0.5))

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_matches_direct_correlation(self, n):
        small = sl.TimeGrid.centered(n, 8.0 / n)
        t = small.times
        # asymmetric: a skewed double pulse against a one-sided exponential
        sig = np.exp(-((t - 0.8) / 0.9) ** 2) + 0.4 * np.exp(-((t + 2.1) / 0.3) ** 2) * (t < -1.9)
        ref = np.exp(-np.abs(t + 0.3) / 0.4) * (t > -0.3)
        curve = sl.cross_correlate(
            sl.ComplexEnvelope(grid=small, samples=np.sqrt(sig).astype(complex)),
            sl.ComplexEnvelope(grid=small, samples=np.sqrt(ref).astype(complex)),
        )
        full = np.correlate(sig, ref, "full")  # full[j]: lag j - (n - 1)
        full = full / np.max(full)  # the curve is normalized to unit peak
        lags = np.arange(n) - n // 2
        assert np.array_equal(curve.delays, lags * small.dt)
        assert np.allclose(curve.intensity, full[lags + n - 1], rtol=0, atol=1e-13)
        peak = np.argmax(full)
        assert curve.delays[np.argmax(curve.intensity)] == (peak - (n - 1)) * small.dt

    def test_symmetric_inputs_give_symmetric_curve(self, grid):
        sig = gaussian_pulse(grid, 0.8)
        curve = sl.cross_correlate(sig, sig)
        i = curve.intensity
        assert np.max(np.abs(i[1:] - i[1:][::-1])) < 1e-9


class TestFirstMomentDelay:
    def test_identical_curves(self, grid):
        sig = gaussian_pulse(grid, 0.5)
        ref = gaussian_pulse(grid, 0.16)
        on = sl.cross_correlate(sig, ref)
        assert sl.first_moment_delay(on, on) == 0.0

    def test_shifted_curve_reads_exact_delay(self, grid):
        sig = gaussian_pulse(grid, 0.5)
        ref = gaussian_pulse(grid, 0.16)
        off = sl.cross_correlate(sig, ref)
        on = sl.cross_correlate(spectral_shift(sig, 0.140), ref)
        assert sl.first_moment_delay(on, off) == pytest.approx(0.140, abs=1e-5)

    def test_zero_curve_rejected(self, grid):
        zero = CorrelationCurve(delays=grid.times, intensity=np.zeros(grid.n))
        sig = sl.cross_correlate(gaussian_pulse(grid, 0.5), gaussian_pulse(grid, 0.2))
        with pytest.raises(ValueError, match="centroid"):
            sl.first_moment_delay(sig, zero)

    def test_moment_mixture_linearity(self, grid):
        c1 = sl.cross_correlate(gaussian_pulse(grid, 0.5, 0.3), gaussian_pulse(grid, 0.2))
        c2 = sl.cross_correlate(gaussian_pulse(grid, 0.7, -0.5), gaussian_pulse(grid, 0.2))
        p = 0.37
        mix = CorrelationCurve(
            delays=c1.delays, intensity=p * c1.intensity + (1 - p) * c2.intensity
        )
        w1 = p * np.sum(c1.intensity)
        w2 = (1 - p) * np.sum(c2.intensity)
        expected = (w1 * c1.first_moment() + w2 * c2.first_moment()) / (w1 + w2)
        assert mix.first_moment() == pytest.approx(expected, abs=1e-10)


class TestDelayAndLoss:
    def test_lossless_output_reads_positive_zero(self, grid):
        # -10 log10(1.0) is -0.0, which a CSV would print as "-0"
        pulse = gaussian_pulse(grid, 1.0)
        delay, loss = delay_and_loss(pulse, pulse)
        assert (delay, loss) == (0.0, 0.0)
        assert math.copysign(1.0, loss) == 1.0

    def test_lossy_output_reads_minus_ten_log_of_energy_ratio(self, grid):
        pulse = gaussian_pulse(grid, 1.0)
        out = sl.ComplexEnvelope(grid=grid, samples=0.3 * spectral_shift(pulse, 0.5).samples)
        delay, loss = delay_and_loss(pulse, out)
        assert delay == pytest.approx(0.5, abs=1e-9)
        assert loss == -10.0 * np.log10(out.energy() / pulse.energy())


class TestWidths:
    def test_gaussian_fwhm(self, grid):
        curve = CorrelationCurve(
            delays=grid.times,
            intensity=np.exp(-4 * np.log(2) * (grid.times / 0.675) ** 2),
        )
        assert sl.fwhm(curve) == pytest.approx(0.675, abs=grid.dt / 10)

    def test_flat_top_profile_width(self, grid):
        w = 1.28
        intensity = (np.abs(grid.times) <= w / 2).astype(float)
        curve = CorrelationCurve(delays=grid.times, intensity=intensity)
        assert sl.fwhm(curve) == pytest.approx(w, abs=2 * grid.dt)

    def test_double_peak_ambiguity(self, grid):
        t = grid.times
        intensity = np.exp(-(((t - 3) / 0.5) ** 2)) + np.exp(-(((t + 3) / 0.5) ** 2))
        with pytest.raises(AmbiguousWidthError) as err:
            sl.fwhm(CorrelationCurve(delays=t, intensity=intensity))
        assert len(err.value.candidates) == 2


class TestDeconvolution:
    def test_measured_width_numbers(self):
        assert sl.deconvolve_duration(0.675, 0.160) == pytest.approx(
            np.sqrt(0.675**2 - 0.160**2), abs=1e-12
        )
        assert sl.deconvolve_duration(0.675, 0.160) == pytest.approx(0.6558, abs=1e-4)

    def test_zero_reference(self):
        assert sl.deconvolve_duration(0.5, 0.0) == 0.5

    def test_root_two_case(self):
        a = 0.37
        assert sl.deconvolve_duration(np.sqrt(2) * a, a) == pytest.approx(a, rel=1e-12)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            sl.deconvolve_duration(0.1, 0.2)

    def test_gaussian_deconvolution_inverts_convolution(self, grid):
        s, r = 0.650, 0.160
        curve = sl.cross_correlate(gaussian_pulse(grid, s), gaussian_pulse(grid, r))
        recovered = sl.deconvolve_duration(sl.fwhm(curve), r)
        assert recovered == pytest.approx(s, rel=0.01)


class TestAbsorptionSpectrum:
    def test_equal_spectra(self):
        off = np.linspace(1.0, 2.0, 64)
        a, valid = sl.absorption_spectrum(off.copy(), off)
        assert np.all(valid)
        assert np.max(np.abs(a)) < 1e-15

    def test_thirty_five_percent(self):
        off = np.ones(16)
        a, valid = sl.absorption_spectrum(0.65 * off, off)
        assert np.allclose(a[valid], 0.35)

    def test_floor_masking(self):
        off = np.array([1.0, 1e-9, 0.5])
        on = np.array([0.5, 1e-9, 0.5])
        a, valid = sl.absorption_spectrum(on, off)
        assert valid.tolist() == [True, False, True]
        assert a[1] == 0.0


class TestLinearityDiagnostic:
    def test_exact_line(self):
        series = [(x, 0.17 * x) for x in (0.0, 0.5, 1.0, 1.5)]
        slope, residual = sl.linearity_diagnostic(series)
        assert slope == pytest.approx(0.17, rel=1e-12)
        assert residual < 1e-12

    def test_requires_three_points(self):
        with pytest.raises(ValueError, match="3"):
            sl.linearity_diagnostic([(0.0, 0.0), (1.0, 0.1)])

    def test_curved_series_has_residual(self):
        series = [(x, 0.17 * x + 0.02 * x**2) for x in np.linspace(0, 2, 8)]
        _, residual = sl.linearity_diagnostic(series)
        assert residual > 0.01
