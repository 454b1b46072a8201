import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import slowlight as sl
from slowlight.errors import GridResolutionError
from slowlight import tdprop
from slowlight.analysis import delay_and_loss
from slowlight.tdprop import _coherence_scan, _march, _scan_weights

from conftest import DELTA, GAMMA, K0, LENGTH, rel_l2


def fd_reference(medium, pulse):
    chi = sl.susceptibility_from_medium(medium, pulse.grid.frequency_grid())
    H = sl.transfer_function(chi, medium.k0, medium.length_mm)
    return sl.propagate(pulse, H)


def midpoint(medium, control, pulse, nz):
    """The z reference: nz explicit midpoint steps, degree-2 Taylor sums."""
    return next(_march(medium, control, pulse, sl.SolverSettings(nz), midpoint=True)).output.samples


class TestCoherenceScan:
    @settings(max_examples=40, deadline=None)
    @given(
        log2_n=st.integers(3, 12),
        gamma_dt=st.floats(1e-3, 5.0),
        detuning_ratio=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(log2_n=12, gamma_dt=1e-3, detuning_ratio=3.4, seed=0)  # longest memory
    @example(log2_n=12, gamma_dt=1e-3, detuning_ratio=-3.4, seed=1)
    @example(log2_n=3, gamma_dt=5.0, detuning_ratio=0.0, seed=2)
    def test_matches_sequential_recurrence(self, log2_n, gamma_dt, detuning_ratio, seed):
        n = 2**log2_n
        gamma, dt = 1.0 + 1j * detuning_ratio, gamma_dt
        rng = np.random.default_rng(seed)
        drive = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        weights = _scan_weights(gamma, dt, n)
        scan = _coherence_scan(drive, weights, np.empty(n, complex), np.empty(n, complex))
        c_prev, c_curr, _ = weights
        e = cmath.exp(-gamma * dt)
        expected = [0j]
        for k in range(1, n):
            expected.append(e * expected[-1] + (c_prev * drive[k - 1] + c_curr * drive[k]))
        expected = np.array(expected)
        assert np.max(np.abs(scan - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestSolve:
    def test_control_off_is_identity(self, std_medium, flattop_signal):
        result = sl.solve(std_medium, sl.ControlField.constant(0.0), flattop_signal)
        assert np.array_equal(result.output.samples, flattop_signal.samples)
        assert np.all(result.coherences.q21 == 0)
        assert np.all(result.coherences.q31 == 0)

    def test_matches_frequency_domain_solution(self, std_medium, flattop_signal):
        result = sl.solve(std_medium, sl.ControlField.constant(1.0), flattop_signal)
        reference = fd_reference(std_medium, flattop_signal)
        assert rel_l2(result.output.samples, reference.samples) < 1e-3
        td_delay = result.output.centroid() - flattop_signal.centroid()
        fd_delay = reference.centroid() - flattop_signal.centroid()
        assert td_delay == pytest.approx(fd_delay, rel=0.01)

    def test_single_line_beer_lambert(self):
        d0 = 1.0
        grid = sl.TimeGrid.centered(2**14, 0.02)
        medium = sl.RamanMedium(
            lines=(
                sl.RamanLine(-DELTA / 2, GAMMA, 0.0),
                sl.RamanLine(+DELTA / 2, GAMMA, d0 * GAMMA / LENGTH),
            ),
            splitting=DELTA,
            length_mm=LENGTH,
            k0=K0,
        )
        # narrowband pulse sitting on the upper line: tone at +Delta/2
        carrier = np.exp(-1j * (DELTA / 2.0) * grid.times)
        base = sl.synthesize_pulse("gaussian", grid, duration=10.0)
        pulse = sl.ComplexEnvelope(grid=grid, samples=base.samples * carrier)
        result = sl.solve(medium, sl.ControlField.constant(1.0), pulse)
        ratio = result.output.energy() / pulse.energy()
        assert ratio == pytest.approx(np.exp(-d0), rel=0.02)

    def test_causality(self, std_medium):
        grid = sl.TimeGrid.centered(2**13, 0.03)
        base = sl.synthesize_pulse("gaussian", grid, duration=1.5)
        result = sl.solve(std_medium, sl.ControlField.constant(1.0), base)
        peak_in = np.max(np.abs(base.samples))
        leading = np.argmax(np.abs(base.samples) > 1e-8 * peak_in)
        front = np.abs(result.output.samples[: max(leading - 1, 0)])
        assert front.size == 0 or np.max(front) < 1e-8 * peak_in

    def test_passivity(self, flattop_signal):
        rng = np.random.default_rng(11)
        for _ in range(5):
            lines = (
                sl.RamanLine(-DELTA / 2, rng.uniform(0.3, 2.0), rng.uniform(0.0, 0.1)),
                sl.RamanLine(+DELTA / 2, rng.uniform(0.3, 2.0), rng.uniform(0.0, 0.1)),
            )
            medium = sl.RamanMedium(lines=lines, splitting=DELTA, length_mm=LENGTH, k0=K0)
            result = sl.solve(medium, sl.ControlField.constant(1.0), flattop_signal)
            assert result.output.energy() <= flattop_signal.energy() + 1e-12

    def test_z_convergence_is_second_order(self, std_medium):
        grid = sl.TimeGrid.centered(2**13, 0.03)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=2.0)
        control = sl.ControlField.constant(1.0)
        reference = sl.solve(std_medium, control, pulse).output
        errors = {nz: rel_l2(midpoint(std_medium, control, pulse, nz), reference.samples) for nz in (16, 32, 64)}
        for coarse, fine in ((16, 32), (32, 64)):
            ratio = errors[coarse] / errors[fine]
            assert 2.8 < ratio < 5.2  # second order: factor 4 +- 30%

    def test_long_control_matches_constant(self, std_medium):
        grid = sl.TimeGrid.centered(2**13, 0.02)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=0.65)
        const = sl.solve(std_medium, sl.ControlField.constant(1.0), pulse)
        shaped_control = sl.ControlField.flat_top(grid, fwhm_ps=4.0, intensity=1.0)
        shaped = sl.solve(std_medium, shaped_control, pulse)
        assert rel_l2(shaped.output.samples, const.output.samples) < 0.02
        d_const = const.output.centroid() - pulse.centroid()
        d_shaped = shaped.output.centroid() - pulse.centroid()
        assert d_shaped == pytest.approx(d_const, rel=0.02)

    def test_weak_signal_warning(self, std_medium, flattop_signal):
        loud = sl.ComplexEnvelope(
            grid=flattop_signal.grid, samples=10.0 * flattop_signal.samples
        )
        result = sl.solve(std_medium, sl.ControlField.constant(1.0), loud)
        assert any("weak-signal" in w for w in result.warnings)

    def test_short_control_warns(self, std_medium):
        grid = sl.TimeGrid.centered(2**13, 0.02)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=2.0)
        control = sl.ControlField.gaussian(grid, fwhm_ps=3.0, intensity=1.0)
        result = sl.solve(std_medium, control, pulse)
        assert any("control" in w for w in result.warnings)

    def test_coarse_time_step_refused(self, std_medium):
        grid = sl.TimeGrid.centered(2**10, 0.2)  # > 2 pi / (8 Delta)
        pulse = sl.ComplexEnvelope(grid=grid, samples=np.exp(-grid.times**2).astype(complex))
        with pytest.raises(GridResolutionError, match="dt"):
            sl.solve(std_medium, sl.ControlField.constant(1.0), pulse)

    def test_insufficient_z_steps_refused(self):
        medium = sl.from_target_depth(50.0, GAMMA, DELTA, K0, LENGTH)
        grid = sl.TimeGrid.centered(2**12, 0.05)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=2.0)
        with pytest.raises(GridResolutionError, match="nz >="):
            sl.solve(medium, sl.ControlField.constant(1.0), pulse, sl.SolverSettings(nz=16))

    def test_settings_validation(self):
        with pytest.raises(ValueError, match="16"):
            sl.SolverSettings(nz=8)
        with pytest.raises(ValueError, match="non-negative"):
            sl.ControlField.constant(-1.0)

    def test_example_point_takes_one_substep(self, std_medium, flattop_signal):
        result = sl.solve(std_medium, sl.ControlField.constant(1.0), flattop_signal)
        assert (result.nz, result.nz_needed) == (1, 13)
        assert result.z_error_estimate < 1e-14
        assert 0.0 < result.peak_coherence < 0.1
        assert result.warnings == []

    def test_matches_causal_frequency_domain_reference(self, std_medium, flattop_signal):
        # the periodic FD reference differs by 5e-4 through wrap-around alone
        result = sl.solve(std_medium, sl.ControlField.constant(1.0), flattop_signal)
        reference = sl.fdprop.propagate_causal(flattop_signal, std_medium.with_control_intensity(1.0))
        assert rel_l2(result.output.samples, reference.samples) < 2e-4

    def test_one_substep_up_to_phase_four(self, std_medium, flattop_signal, monkeypatch):
        # I = 3 puts the whole-length phase at 3.9; two substeps of 1.95 each agree to rounding
        control = sl.ControlField.constant(3.0)
        one = sl.solve(std_medium, control, flattop_signal)
        monkeypatch.setattr(tdprop, "_MAX_SUBSTEP_PHASE", 2.0)
        two = sl.solve(std_medium, control, flattop_signal)
        assert (one.nz, one.nz_needed, two.nz) == (1, 39, 2)
        assert rel_l2(one.output.samples, two.output.samples) < 1e-14

    def test_all_zero_pulse_has_zero_error(self, std_medium, signal_grid):
        zero = sl.ComplexEnvelope(grid=signal_grid, samples=np.zeros(signal_grid.n, dtype=complex))
        with np.errstate(all="raise"):
            results = [sl.solve(std_medium, sl.ControlField.constant(1.0), zero)]
            results += _march(std_medium, sl.ControlField.constant(2.0), zero, sl.SolverSettings(), [0.0, 0.5, 1.0])
        for result in results:
            assert not np.any(result.output.samples)
            assert (result.z_error_estimate, result.peak_coherence, result.warnings) == (0.0, 0.0, [])


class TestSolveProperties:
    """Hypothesis over the benchmark's seed box: d0 in [2, 3], flat-top
    bandwidth in [1.5, 2.1] /ps, constant control, on the default grid
    (n = 16384, dt = 0.06); smaller grids widen the causal gap (7.7e-4 at
    n = 2048 in the worst corner).  The z property also takes a Gaussian
    control of 40-80 ps FWHM, on 2^12 samples to keep it fast."""

    @settings(max_examples=6, deadline=None)
    @given(d0=st.floats(2.0, 3.0), bandwidth=st.floats(1.5, 2.1))
    @example(d0=3.0, bandwidth=1.5)  # the worst corner: 9.9e-5
    def test_converged_solve_matches_causal_reference(self, signal_grid, d0, bandwidth):
        pulse = sl.synthesize_pulse("flat_top_spectrum", signal_grid, bandwidth=bandwidth)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        result = sl.solve(medium, sl.ControlField.constant(1.0), pulse)
        reference = sl.fdprop.propagate_causal(pulse, medium.with_control_intensity(1.0))
        assert rel_l2(result.output.samples, reference.samples) < 2e-4

    @settings(max_examples=2, deadline=None)
    @given(d0=st.floats(2.0, 3.0), bandwidth=st.floats(1.5, 2.1), fwhm=st.none() | st.floats(40.0, 80.0))
    @example(d0=3.0, bandwidth=1.5, fwhm=None)
    @example(d0=3.0, bandwidth=2.1, fwhm=80.0)
    def test_converged_solve_is_exact_in_z(self, d0, bandwidth, fwhm):
        # midpoint at nz and 2 nz, Richardson-extrapolated: its own error is
        # about 1e-11 here (against 512 and 1024), the solve's gap about 1e-11
        grid = sl.TimeGrid.centered(2**12, 0.06)
        pulse = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=bandwidth)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        control = sl.ControlField.constant(1.0) if fwhm is None else sl.ControlField.gaussian(grid, fwhm, 1.0)
        coarse, fine = (midpoint(medium, control, pulse, nz) for nz in (256, 512))
        extrapolated = fine + (fine - coarse) / 3.0
        result = sl.solve(medium, control, pulse)
        assert rel_l2(result.output.samples, extrapolated) < 1e-9

    @settings(max_examples=6, deadline=None)
    @given(d0=st.floats(0.0, 3.0), bandwidth=st.floats(1.5, 2.1))
    def test_energy_never_grows(self, signal_grid, d0, bandwidth):
        pulse = sl.synthesize_pulse("flat_top_spectrum", signal_grid, bandwidth=bandwidth)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        result = sl.solve(medium, sl.ControlField.constant(1.0), pulse)
        assert result.output.energy() <= pulse.energy() * (1.0 + 1e-12)


def per_point_rows(medium, intensities, pulse):
    rows = []
    for i in intensities:
        result = sl.solve(medium, sl.ControlField.constant(i), pulse)
        rows.append((i, *delay_and_loss(pulse, result.output), tuple(result.warnings)))
    return rows


def assert_rows_match(points, rows):
    for point, (intensity, delay, loss, warnings) in zip(points, rows, strict=True):
        assert point.intensity == intensity and point.warnings == warnings
        assert point.delay_ps == pytest.approx(delay, rel=1e-12, abs=0.0)
        assert point.loss_db == pytest.approx(loss, rel=1e-12, abs=0.0)


class TestControlScan:
    @settings(max_examples=3, deadline=None)
    @given(
        d0=st.floats(2.0, 3.0),
        bandwidth=st.floats(1.5, 2.1),
        intensities=st.lists(st.floats(0.0, 2.0), min_size=8, max_size=8).map(lambda xs: sorted([0.0, *xs])),
    )
    @example(d0=3.0, bandwidth=1.5, intensities=[0.0, *np.linspace(0.25, 2.0, 8).tolist()])  # the largest phase, 3.2
    def test_shared_series_matches_per_point_solves(self, d0, bandwidth, intensities):
        # the benchmark's seed box, where every point takes one substep; 2^12 samples keep it fast
        pulse = sl.synthesize_pulse("flat_top_spectrum", sl.TimeGrid.centered(2**12, 0.06), bandwidth=bandwidth)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        points = sl.delay_vs_control_scan(medium, intensities, pulse)
        assert_rows_match(points, per_point_rows(medium, intensities, pulse))

    def test_shared_points_keep_their_weak_signal_warnings(self, std_medium):
        # ten times the amplitude: the coherences of 0.25 and 1.0 pass 0.1, those of 0.01 do not
        grid = sl.TimeGrid.centered(2**12, 0.06)
        loud = sl.ComplexEnvelope(grid=grid, samples=10.0 * sl.synthesize_pulse("flat_top_spectrum", grid, 1.8).samples)
        points = sl.delay_vs_control_scan(std_medium, [0.01, 0.25, 1.0], loud)
        assert [len(p.warnings) for p in points] == [0, 1, 1]
        assert_rows_match(points, per_point_rows(std_medium, [0.01, 0.25, 1.0], loud))

    def test_insufficient_z_steps_refused(self, flattop_signal):
        medium = sl.from_target_depth(50.0, GAMMA, DELTA, K0, LENGTH)
        with pytest.raises(GridResolutionError, match="nz >="):
            sl.delay_vs_control_scan(medium, [0.0, 1.0], flattop_signal, sl.SolverSettings(nz=16))

    def test_points_past_one_substep_are_solved_alone(self, std_medium, monkeypatch):
        pulse = sl.synthesize_pulse("flat_top_spectrum", sl.TimeGrid.centered(2**12, 0.06), bandwidth=1.8)
        alone = []

        def spy(medium, control, pulse, settings=None):
            alone.append(control.intensity)
            return sl.solve(medium, control, pulse, settings)

        monkeypatch.setattr(tdprop, "solve", spy)
        points = sl.delay_vs_control_scan(std_medium, [0.5, 1.0, 16.0], pulse)
        assert alone == [16.0]
        assert_rows_match(points, per_point_rows(std_medium, [0.5, 1.0, 16.0], pulse))
        assert points[-1].warnings[0].startswith("coherence amplitude reached")

    def test_empty_scan(self, std_medium, flattop_signal):
        assert sl.delay_vs_control_scan(std_medium, [], flattop_signal) == []

    def test_negative_intensity_rejected(self, std_medium, flattop_signal):
        with pytest.raises(ValueError, match="non-negative"):
            sl.delay_vs_control_scan(std_medium, [-1.0], flattop_signal)

    def test_zero_intensity_row(self, std_medium, flattop_signal):
        points = sl.delay_vs_control_scan(std_medium, [0.0], flattop_signal)
        assert points[0].delay_ps == 0.0
        assert points[0].loss_db == pytest.approx(0.0, abs=1e-12)

    def test_linear_regime(self, flattop_signal):
        medium = sl.from_target_depth(1.2, GAMMA, DELTA, K0, LENGTH)
        points = sl.delay_vs_control_scan(medium, [0.0, 0.5, 1.0], flattop_signal)
        delays = [p.delay_ps for p in points]
        assert delays[0] == 0.0
        assert delays[1] == pytest.approx(delays[2] / 2.0, rel=0.02)

    def test_monotone_for_slow_light_medium(self, std_medium, flattop_signal):
        points = sl.delay_vs_control_scan(
            std_medium, [0.0, 0.25, 0.5, 0.75, 1.0], flattop_signal
        )
        delays = [p.delay_ps for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(delays, delays[1:]))

    def test_structured_medium_is_less_linear(self, flattop_signal):
        intensities = list(np.linspace(0.0, 1.0, 6))
        symmetric = sl.from_target_depth(2.5, GAMMA, DELTA, K0, LENGTH)
        sym_points = sl.delay_vs_control_scan(symmetric, intensities, flattop_signal)
        _, sym_residual = sl.linearity_diagnostic(
            [(p.intensity, p.delay_ps) for p in sym_points]
        )
        lopsided = sl.RamanMedium(
            lines=(
                sl.RamanLine(-DELTA / 2, 0.5, 1.2 * GAMMA / LENGTH),
                sl.RamanLine(+DELTA / 2, 2.2, 4.0 * GAMMA / LENGTH),
            ),
            splitting=DELTA,
            length_mm=LENGTH,
            k0=K0,
        )
        asym_points = sl.delay_vs_control_scan(lopsided, intensities, flattop_signal)
        _, asym_residual = sl.linearity_diagnostic(
            [(p.intensity, p.delay_ps) for p in asym_points]
        )
        assert asym_residual > sym_residual
