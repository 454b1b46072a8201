import numpy as np
import pytest

import slowlight as sl
from slowlight.errors import TruncationRiskError
from slowlight.kramers_kronig import hilbert_transform

GAMMA, DELTA = 1.0, 6.8
K0, LENGTH = 10.0, 30.0


def kk_grid(delta=DELTA, n=2**14, span_factor=20.0):
    """Detuning grid spanning +-span_factor*delta with n samples."""
    span = 2.0 * span_factor * delta
    dt = 2.0 * np.pi / span
    return sl.TimeGrid(t_start=0.0, dt=dt, n=n).frequency_grid()


def pv_sum_oracle(f, omegas):
    """Direct principal-value sum with singular-point exclusion (slow)."""
    dw = omegas[1] - omegas[0]
    out = np.empty_like(f)
    for i in range(omegas.size):
        num = np.delete(f, i)
        den = np.delete(omegas, i) - omegas[i]
        out[i] = np.sum(num / den) * dw / np.pi
    return out


def doublet_depth(grid, d0=2.5, gamma=GAMMA, delta=DELTA):
    medium = sl.from_target_depth(d0, gamma, delta, K0, LENGTH)
    depth = K0 * LENGTH * sl.chi(medium, grid.omegas).imag
    return sl.OpticalDepthSpectrum(grid=grid, depth=depth, center_wavelength_nm=765.85), medium


class TestHilbertTransform:
    def test_single_lorentzian_closed_form(self):
        grid = kk_grid(n=2**13)
        w = grid.omegas
        f = GAMMA**2 / (GAMMA**2 + w**2)
        expected = -GAMMA * w / (GAMMA**2 + w**2)
        result = hilbert_transform(f)
        assert np.max(np.abs(result - expected)) < 0.01 * np.max(np.abs(expected))

    def test_fft_method_matches_pv_sum_oracle(self):
        # features kept wide relative to the grid step; the exclusion sum
        # is only first-order accurate near sharp peaks
        grid = kk_grid(n=2**12)
        w = grid.omegas
        f = 1.0 / (1.0 + (w / 3.0) ** 2) + 0.4 / (1.0 + ((w - 3.0) / 2.0) ** 2)
        fast = hilbert_transform(f)
        slow = pv_sum_oracle(f, w)
        scale = np.max(np.abs(fast))
        assert np.max(np.abs(fast - slow)) < 0.01 * scale


class TestReconstruction:
    def test_zero_depth_gives_zero_susceptibility(self):
        grid = kk_grid(n=2**10)
        depth = sl.OpticalDepthSpectrum(grid=grid, depth=np.zeros(grid.n), center_wavelength_nm=765.0)
        chi = sl.kk_real_from_imag(depth, K0, LENGTH)
        assert np.all(chi.values == 0)

    def test_single_line_dispersion_vanishes_at_center(self):
        grid = kk_grid(n=2**13)
        w = grid.omegas
        idx = grid.zero_index + 120
        w0 = w[idx]  # line center exactly on a grid sample
        depth = 1.5 / (1.0 + (w - w0) ** 2)
        spectrum = sl.OpticalDepthSpectrum(grid=grid, depth=depth, center_wavelength_nm=765.0)
        chi = sl.kk_real_from_imag(spectrum, K0, LENGTH)
        assert abs(chi.values[idx].real) < 1e-3 * np.max(np.abs(chi.values.real))

    def test_doublet_real_part_matches_closed_form(self):
        grid = kk_grid()
        spectrum, medium = doublet_depth(grid)
        chi = sl.kk_real_from_imag(spectrum, K0, LENGTH)
        expected = sl.chi(medium, grid.omegas)
        scale = np.max(np.abs(expected.real))
        assert np.max(np.abs(chi.values.real - expected.real)) < 0.01 * scale
        assert np.max(np.abs(chi.values.imag - expected.imag)) < 1e-12

    def test_edge_decay_enforced(self):
        grid = kk_grid(span_factor=1.0)  # lines near the grid edges
        spectrum, _ = doublet_depth(grid)
        with pytest.raises(TruncationRiskError, match="edge"):
            sl.kk_real_from_imag(spectrum, K0, LENGTH)

    def test_antisymmetry_preserved(self):
        grid = kk_grid(n=2**13)
        # build the doublet from |omega| so the samples are exactly even;
        # the lone j=0 edge sample has no +omega partner and must be zero
        # for the distribution to be even on the circular grid
        medium = sl.from_target_depth(2.5, GAMMA, DELTA, K0, LENGTH)
        depth = K0 * LENGTH * sl.chi(medium, np.abs(grid.omegas)).imag
        depth[0] = 0.0
        spectrum = sl.OpticalDepthSpectrum(grid=grid, depth=depth, center_wavelength_nm=765.85)
        chi = sl.kk_real_from_imag(spectrum, K0, LENGTH)
        re = chi.values.real
        mirrored = re[::-1]
        assert np.max(np.abs(re[1:] + mirrored[:-1])) < 1e-9

    def test_linearity(self):
        grid = kk_grid(n=2**12)
        s1, _ = doublet_depth(grid, d0=1.0)
        s2, _ = doublet_depth(grid, d0=0.0)
        s2 = sl.OpticalDepthSpectrum(
            grid=grid,
            depth=0.8 / (1.0 + (grid.omegas - 2.0) ** 2),
            center_wavelength_nm=765.0,
        )
        a, b = 0.6, 1.7
        combined = sl.OpticalDepthSpectrum(
            grid=grid, depth=a * s1.depth + b * s2.depth, center_wavelength_nm=765.0
        )
        chi_sum = sl.kk_real_from_imag(combined, K0, LENGTH).values
        chi_parts = (
            a * sl.kk_real_from_imag(s1, K0, LENGTH).values
            + b * sl.kk_real_from_imag(s2, K0, LENGTH).values
        )
        assert np.max(np.abs(chi_sum - chi_parts)) < 1e-10 * np.max(np.abs(chi_sum))

    def test_round_trip_property_random_media(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            gamma = rng.uniform(0.2, 2.0)
            delta = rng.uniform(3.0, 10.0)
            d0 = rng.uniform(0.1, 5.0)
            grid = kk_grid(delta=delta)
            spectrum, medium = doublet_depth(grid, d0=d0, gamma=gamma, delta=delta)
            chi = sl.kk_real_from_imag(spectrum, K0, LENGTH)
            expected = sl.chi(medium, grid.omegas)
            scale = np.max(np.abs(expected.real))
            assert np.max(np.abs(chi.values.real - expected.real)) < 0.01 * scale


class TestReconstructedGroupDelay:
    def test_zero_susceptibility(self):
        grid = kk_grid(n=2**10)
        chi = sl.Susceptibility(grid=grid, values=np.zeros(grid.n, dtype=complex))
        assert sl.group_delay_from_susceptibility(chi, K0, LENGTH) == 0.0

    def test_closed_form_doublet_slope(self):
        grid = kk_grid()
        _, medium = doublet_depth(grid)
        chi = sl.susceptibility_from_medium(medium, grid)
        tau = sl.group_delay_from_susceptibility(chi, K0, LENGTH)
        assert tau == pytest.approx(0.1673, rel=5e-3)

    def test_kk_reconstructed_slope(self):
        grid = kk_grid()
        spectrum, medium = doublet_depth(grid)
        chi = sl.kk_real_from_imag(spectrum, K0, LENGTH)
        tau = sl.group_delay_from_susceptibility(chi, K0, LENGTH)
        assert tau == pytest.approx(sl.group_delay(medium), rel=0.02)


class TestIngestion:
    def records(self, absorption):
        lam = np.linspace(745.0, 788.0, 2000)
        return lam, absorption(lam)

    def test_zero_absorption(self):
        grid = kk_grid(n=2**11)
        lam, a = self.records(lambda x: np.zeros_like(x))
        spectrum = sl.ingest_absorption((lam, a), 765.85, LENGTH, grid)
        assert np.all(spectrum.depth == 0)

    def test_depth_mapping(self):
        # 35% absorption maps to d = -ln(0.65)
        grid = kk_grid(n=2**12)
        lam, _ = self.records(lambda x: x)
        a = 0.35 * np.exp(-(((sl.C_NM_PER_PS / lam - sl.C_NM_PER_PS / 765.85)) / 4.0) ** 2)
        spectrum = sl.ingest_absorption((lam, a), 765.85, LENGTH, grid)
        assert np.max(spectrum.depth) == pytest.approx(-np.log(0.65), rel=1e-4)
        assert np.max(spectrum.depth) == pytest.approx(0.4308, abs=1e-4)

    def test_measured_line_positions_map_to_detunings(self):
        grid = kk_grid(n=2**13)
        lam = np.linspace(750.0, 782.0, 4000)
        lines = np.exp(-(((lam - 759.4) / 0.8) ** 2)) + np.exp(-(((lam - 772.4) / 0.8) ** 2))
        spectrum = sl.ingest_absorption((lam, 0.5 * lines), 765.85, LENGTH, grid)
        w = grid.omegas
        peaks = []
        for sign in (-1, 1):
            mask = sign * w > 1.0
            peaks.append(w[mask][np.argmax(spectrum.depth[mask])])
        lo, hi = sorted(peaks)
        nu_c = sl.C_NM_PER_PS / 765.85
        assert hi == pytest.approx(sl.C_NM_PER_PS / 759.4 - nu_c, abs=0.02)
        assert lo == pytest.approx(sl.C_NM_PER_PS / 772.4 - nu_c, abs=0.02)
        assert hi == pytest.approx(3.32, abs=0.02)
        assert lo == pytest.approx(-3.32, abs=0.02)

    def test_total_absorption_rejected(self):
        grid = kk_grid(n=2**10)
        lam, _ = self.records(lambda x: x)
        a = np.full(lam.shape, 0.5)
        a[100] = 1.0
        with pytest.raises(ValueError, match="unrepresentable"):
            sl.ingest_absorption((lam, a), 765.85, LENGTH, grid)

    def test_non_monotonic_wavelengths_rejected(self):
        grid = kk_grid(n=2**10)
        lam = np.array([760.0, 761.0, 760.5, 762.0])
        with pytest.raises(ValueError, match="monotonic"):
            sl.ingest_absorption((lam, np.full(4, 0.1)), 765.85, LENGTH, grid)

    def test_truncated_records_need_taper(self):
        grid = kk_grid(n=2**12)
        lam = np.linspace(758.0, 778.0, 500)
        nu = sl.C_NM_PER_PS / lam - sl.C_NM_PER_PS / 765.85
        a = 0.6 / (1.0 + (nu - 3.32) ** 2) + 0.6 / (1.0 + (nu + 3.32) ** 2)
        with pytest.raises(TruncationRiskError):
            sl.ingest_absorption((lam, a), 765.85, LENGTH, grid)
        spectrum = sl.ingest_absorption((lam, a), 765.85, LENGTH, grid, force_taper=True)
        # tapered ends decay to zero at the grid edges
        assert spectrum.depth[0] == 0.0 and spectrum.depth[-1] == 0.0
        chi = sl.kk_real_from_imag(spectrum, K0, LENGTH)
        assert np.all(np.isfinite(chi.values))
