import numpy as np
import pytest

import slowlight as sl

from conftest import DELTA, GAMMA, K0, LENGTH, rel_l2


def identity_transfer(grid):
    fgrid = grid.frequency_grid()
    return sl.TransferFunction(grid=fgrid, values=np.ones(fgrid.n, dtype=complex))


class TestTransferFunction:
    def test_zero_susceptibility_gives_unity(self, signal_grid):
        fgrid = signal_grid.frequency_grid()
        chi = sl.Susceptibility(grid=fgrid, values=np.zeros(fgrid.n, dtype=complex))
        H = sl.transfer_function(chi, K0, LENGTH)
        assert np.all(H.values == 1.0)

    def test_center_transmission_matches_loss_formula(self, std_medium, std_transfer):
        expected = 10.0 ** (-sl.loss_db(std_medium) / 10.0)
        assert std_transfer.center_transmission() == pytest.approx(expected, rel=1e-12)
        assert std_transfer.center_transmission() == pytest.approx(0.6716, abs=2e-4)

    def test_single_line_beer_lambert(self, signal_grid):
        d0 = 1.7
        medium = sl.RamanMedium(
            lines=(
                sl.RamanLine(-DELTA / 2, GAMMA, 0.0),
                sl.RamanLine(+DELTA / 2, GAMMA, d0 * GAMMA / LENGTH),
            ),
            splitting=DELTA,
            length_mm=LENGTH,
            k0=K0,
        )
        value = np.exp(0.5j * K0 * LENGTH * sl.chi(medium, DELTA / 2.0))
        assert abs(value) ** 2 == pytest.approx(np.exp(-d0), rel=1e-12)

    def test_passivity(self, std_transfer):
        assert np.max(np.abs(std_transfer.values)) <= 1.0 + 1e-12

    def test_passivity_random_media(self):
        rng = np.random.default_rng(7)
        grid = sl.TimeGrid.centered(2**10, 0.05).frequency_grid()
        for _ in range(20):
            lines = (
                sl.RamanLine(-2.0, rng.uniform(0.1, 3.0), rng.uniform(0.0, 5.0)),
                sl.RamanLine(+2.0, rng.uniform(0.1, 3.0), rng.uniform(0.0, 5.0)),
            )
            medium = sl.RamanMedium(lines=lines, splitting=4.0, length_mm=LENGTH, k0=K0)
            chi = sl.susceptibility_from_medium(medium, grid)
            H = sl.transfer_function(chi, K0, LENGTH)
            assert np.max(np.abs(H.values)) <= 1.0 + 1e-12


class TestPropagate:
    def test_identity(self, flattop_signal):
        out = sl.propagate(flattop_signal, identity_transfer(flattop_signal.grid))
        assert rel_l2(out.samples, flattop_signal.samples) < 1e-13

    def test_linear_phase_shifts_centroid(self, signal_grid):
        # compact pulse: the sinc tails of a flat-top wrap at the grid edge
        # and bias the centroid at the 0.1% level
        pulse = sl.synthesize_pulse("gaussian", signal_grid, duration=2.0)
        fgrid = signal_grid.frequency_grid()
        tau0 = 0.731
        H = sl.TransferFunction(grid=fgrid, values=np.exp(1j * fgrid.omegas * tau0))
        out = sl.propagate(pulse, H)
        assert out.centroid() - pulse.centroid() == pytest.approx(tau0, abs=signal_grid.dt / 100)

    def test_doublet_delays_flattop_by_group_delay(self, std_medium, std_transfer, flattop_signal):
        out = sl.propagate(flattop_signal, std_transfer)
        delay = out.centroid() - flattop_signal.centroid()
        assert delay == pytest.approx(sl.group_delay(std_medium), rel=0.05)

    def test_grid_mismatch_rejected(self, flattop_signal):
        other = sl.TimeGrid.centered(2**10, 0.05)
        with pytest.raises(ValueError, match="grid"):
            sl.propagate(flattop_signal, identity_transfer(other))

    def test_energy_monotone_for_passive_media(self, std_transfer, flattop_signal):
        out = sl.propagate(flattop_signal, std_transfer)
        assert out.energy() <= flattop_signal.energy() + 1e-12

    def test_composition(self, signal_grid, flattop_signal):
        fgrid = signal_grid.frequency_grid()
        m1 = sl.from_target_depth(0.8, GAMMA, DELTA, K0, LENGTH)
        m2 = sl.from_target_depth(1.4, 1.3, DELTA, K0, LENGTH)
        h1 = sl.transfer_function(sl.susceptibility_from_medium(m1, fgrid), K0, LENGTH)
        h2 = sl.transfer_function(sl.susceptibility_from_medium(m2, fgrid), K0, LENGTH)
        two_pass = sl.propagate(sl.propagate(flattop_signal, h1), h2)
        combined = sl.TransferFunction(grid=fgrid, values=h1.values * h2.values)
        one_pass = sl.propagate(flattop_signal, combined)
        assert rel_l2(two_pass.samples, one_pass.samples) < 1e-12

    def test_delay_additivity_in_series(self, signal_grid):
        pulse = sl.synthesize_pulse("flat_top_spectrum", signal_grid, bandwidth=1.2)
        fgrid = signal_grid.frequency_grid()
        delays = []
        media = [
            sl.from_target_depth(1.0, GAMMA, DELTA, K0, LENGTH),
            sl.from_target_depth(0.7, GAMMA, DELTA, K0, LENGTH),
        ]
        transfers = [
            sl.transfer_function(sl.susceptibility_from_medium(m, fgrid), K0, LENGTH)
            for m in media
        ]
        for H in transfers:
            delays.append(sl.propagate(pulse, H).centroid() - pulse.centroid())
        series = sl.propagate(sl.propagate(pulse, transfers[0]), transfers[1])
        total = series.centroid() - pulse.centroid()
        assert total == pytest.approx(sum(delays), rel=0.01)


class TestPropagateCausal:
    def test_control_off_is_identity(self, std_medium, flattop_signal):
        out = sl.fdprop.propagate_causal(flattop_signal, std_medium.with_control_intensity(0.0))
        assert out.grid == flattop_signal.grid
        scale = np.max(np.abs(flattop_signal.samples))
        assert np.max(np.abs(out.samples - flattop_signal.samples)) < 1e-14 * scale

    def test_nothing_wraps_around_the_window(self, std_medium):
        # a pulse 6 ps before the window end: its delayed tail must not reappear at the start
        grid = sl.TimeGrid.centered(2**12, 0.03)
        centered = sl.synthesize_pulse("gaussian", grid, duration=1.0)
        late = sl.ComplexEnvelope(grid=grid, samples=np.roll(centered.samples, grid.n // 2 - 200))
        medium = std_medium.with_control_intensity(1.0)
        chi = sl.susceptibility_from_medium(medium, grid.frequency_grid())
        periodic = sl.propagate(late, sl.transfer_function(chi, medium.k0, medium.length_mm))
        causal = sl.fdprop.propagate_causal(late, medium)
        front = slice(0, grid.n // 4)
        peak = np.max(np.abs(late.samples))
        assert np.max(np.abs(late.samples[front])) < 1e-14 * peak
        assert np.max(np.abs(periodic.samples[front])) > 1e-5 * peak
        assert np.max(np.abs(causal.samples[front])) < 1e-14 * peak


class TestOutputSpectra:
    def test_identity_spectra_match(self, flattop_signal):
        on, off = sl.output_spectra(flattop_signal, identity_transfer(flattop_signal.grid))
        assert np.allclose(on, off, rtol=0, atol=1e-15 * np.max(off))

    def test_center_ratio_is_transmission(self, std_transfer, flattop_signal):
        on, off = sl.output_spectra(flattop_signal, std_transfer)
        i0 = std_transfer.grid.zero_index
        assert on[i0] / off[i0] == pytest.approx(0.6716, abs=2e-4)

    def test_absorption_recovers_transfer_magnitude(self, std_transfer, flattop_signal):
        on, off = sl.output_spectra(flattop_signal, std_transfer)
        a, valid = sl.absorption_spectrum(on, off)
        expected = 1.0 - np.abs(std_transfer.values) ** 2
        assert np.max(np.abs(a[valid] - expected[valid])) < 1e-10
