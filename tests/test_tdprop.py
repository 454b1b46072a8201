import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import slowlight as sl
from slowlight.errors import GridResolutionError
from slowlight import fdprop, tdprop
from slowlight.analysis import delay_and_loss
from slowlight.spectral import _dft_order, interpolated_fwhm
from slowlight.tdprop import _apply, _coherence_peak, _symbols

from conftest import DELTA, GAMMA, K0, LENGTH, rel_l2


_SCAN_CUTOFF = 1e-18  # the doubling scan stops once |e^k| falls below this
_POWER_BITS = 120  # fixed-point precision of the squarings behind e^k


def _scan_weights(gamma: complex, dt: float):
    """Weights (c_prev, c_curr, e) of the circular recurrence
    R_k = e R_{k-1 mod n} + x_k, the exact integral of a linearly interpolated
    drive d against e^{-gamma (dt - s)} over one step: e = e^{-gamma dt},
    x_k = c_prev d_{k-1 mod n} + c_curr d_k, and gamma may be complex (damping
    plus detuning).  The DFT mode z^k, z = e^{2 pi i j/n}, drives it to
    (c_curr + c_prev / z) / (1 - e / z) times itself: the scan symbol, a
    second-order model in dt of the line's response, which the solve takes
    exactly from the medium."""
    a = gamma * dt
    e = cmath.exp(-a)
    c_prev = (1.0 - e * (1.0 + a)) / (gamma * a)
    c_curr = (1.0 - e) / gamma - c_prev
    return c_prev, c_curr, e


def doubling_weights(gamma, dt, n):
    """The weights (c_prev, c_curr, e) of _scan_weights, with the ``powers``
    and ``wrap`` of the doubling scan.  ``powers`` holds e^k for k = 1, 2, 4,
    ... < n while |e^k| >= _SCAN_CUTOFF, squared in fixed point: each is
    within an ulp of the exact power (double squarings drift k ulps).
    ``wrap`` holds e^{k+1} / (1 - e^n) for the K powers e^1 ... e^K, K <= n,
    of magnitude at least _SCAN_CUTOFF; each is a product of such powers, so
    none underflows."""
    c_prev, c_curr, e = _scan_weights(gamma, dt)
    one = 1 << _POWER_BITS
    re, im = int(e.real * one), int(e.imag * one)
    powers = []
    while 1 << len(powers) < n and abs(complex(re, im)) >= _SCAN_CUTOFF * one:
        powers.append(complex(re / one, im / one))
        re, im = (re * re - im * im) >> _POWER_BITS, (re * im) >> (_POWER_BITS - 1)
    wrap = np.array([e])
    while wrap.size < n and abs(wrap[-1]) >= _SCAN_CUTOFF:
        wrap = np.concatenate((wrap, wrap[-1] * wrap))  # e^1 ... e^{2m} from e^1 ... e^m
    wrap = wrap[: min(n, np.count_nonzero(np.abs(wrap) >= _SCAN_CUTOFF))]
    if wrap.size == n:  # else |e^n| < _SCAN_CUTOFF and 1 - e^n rounds to 1
        wrap /= 1.0 - wrap[-1]
    return c_prev, c_curr, e, powers, wrap


def coherence_scan(drive, weights):
    """Solve dR/dtau = -gamma R + drive(tau) over the grid as one period, in
    the time domain: by a doubling scan (Hillis & Steele 1986), from r = x
    add e^k times r shifted by k for k = 1, 2, 4, ..., which gives the
    response from rest at the window start; then add the periodic part,
    wrap[k] r[n-1] at sample k.  The oracle of the solve's DFT symbols."""
    c_prev, c_curr, _, powers, wrap = weights
    r = c_curr * drive + c_prev * np.roll(drive, 1)
    for doubling, power in enumerate(powers):
        k = 1 << doubling
        r[k:] += power * r[:-k]
    r[: wrap.size] += wrap * r[-1]
    return r


def scan_operator(medium, ec, grid):
    """A at control amplitude ``ec`` from the doubling scan, as
    ``apply(e_field) -> (A e_field, peak coherence)``."""
    ec = np.broadcast_to(ec, grid.n)
    lines = [(line.strength_per_intensity, doubling_weights(line.linewidth + beat * medium.splitting, grid.dt, grid.n))
             for line, beat in zip(medium.lines, (-0.5j, 0.5j))]

    def apply(e_field):
        drive = np.conj(ec) * e_field
        scans = [(g, coherence_scan(drive, weights)) for g, weights in lines]
        peak = max(float(np.max(np.abs(1j * math.sqrt(g / 2.0) * r))) for g, r in scans)
        return -sum(g / 2.0 * ec * r for g, r in scans), peak

    return apply


def scan_symbols(medium, grid):
    """``_symbols`` with the scan symbol in place of the medium's response, so
    a solve run with it in place is the solve of that symbol."""
    inverse_z = np.exp(-2j * np.pi * np.fft.fftfreq(grid.n))
    symbols = []
    for line, beat in zip(medium.lines, (-0.5j, 0.5j)):
        c_prev, c_curr, e = _scan_weights(line.linewidth + beat * medium.splitting, grid.dt)
        symbols.append((line.strength_per_intensity, (c_curr + c_prev * inverse_z) / (1.0 - e * inverse_z)))
    return -sum(g / 2.0 * s for g, s in symbols), [1j * math.sqrt(g / 2.0) * s for g, s in symbols]


def apply_with_peak(symbols, ec, e_field):
    """A e_field from ``_apply`` on ``symbols``, and the peak coherence it reads."""
    eigenvalues, coherence_symbols = symbols
    out = np.empty(e_field.size, dtype=complex)
    return out, _coherence_peak(coherence_symbols, _apply(eigenvalues, ec, e_field, out))


def bin_detunings(grid):
    """FD's detuning on each DFT bin: forward_transform puts
    omega_k = (k - n/2) domega on bin (n/2 - k) mod n."""
    n = grid.n
    omegas = np.empty(n)
    omegas[(n // 2 - np.arange(n)) % n] = grid.frequency_grid().omegas
    return omegas


def fd_reference(medium, pulse):
    chi = sl.susceptibility_from_medium(medium, pulse.grid.frequency_grid())
    H = sl.transfer_function(chi, medium.k0, medium.length_mm)
    return sl.propagate(pulse, H)


def dense_exponential(medium, control, grid):
    """exp(L A) as a matrix, for A = diag(Ec) C diag(conj(Ec)): C is the
    circulant whose eigenvalues are i k0 chi(omega_j) / 2 at unit intensity,
    built on the DFT matrix, so A is the solve's operator in a form
    independent of its FFTs.  Scaling and squaring: Taylor terms to the 20th
    of exp(B) with ||B||_1 <= 1, squared back (Moler & Van Loan, SIAM Rev. 45
    (2003) 3)."""
    n = grid.n
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    eigenvalues = 0.5j * medium.k0 * sl.chi(medium.with_control_intensity(1.0), bin_detunings(grid))
    circulant = dft.conj().T @ (eigenvalues[:, None] * dft) / n
    ec = np.broadcast_to(control.amplitude(n), n)
    b = medium.length_mm * ec[:, None] * circulant * np.conj(ec)[None, :]
    squarings = max(0, math.ceil(math.log2(np.linalg.norm(b, 1))))
    b /= 2.0**squarings
    result, term = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
    for m in range(1, 21):
        term = term @ b / m
        result += term
    for _ in range(squarings):
        result = result @ result
    return result


def control_amplitude(grid, envelope, seed):
    """A control amplitude of 1.3 at peak: constant, a Gaussian of an eighth
    of the window or a random phase on every sample."""
    if envelope == "constant":
        return 1.3
    if envelope == "gaussian":
        return 1.3 * sl.ControlField.gaussian(grid, grid.n * grid.dt / 8.0, 1.0).envelope
    return 1.3 * np.exp(2j * np.pi * np.random.default_rng(seed).random(grid.n))


def random_field(grid, seed):
    """A field with every sample and frequency of the grid in it."""
    rng = np.random.default_rng(seed)
    return sl.ComplexEnvelope(grid=grid, samples=rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))


def circular_recurrence(x, e):
    """R_k = e R_{k-1 mod n} + x_k, run sample by sample around the window,
    lap after lap, until the value carried into a lap repeats."""
    carry, seen = 0j, set()
    while carry not in seen:
        seen.add(carry)
        out = []
        for x_k in x:
            carry = e * carry + x_k
            out.append(carry)
    return np.array(out)


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
    @example(log2_n=3, gamma_dt=1e-3, detuning_ratio=0.0, seed=0)  # memory outlasts the window: |e^n| = 0.992
    def test_matches_sequential_recurrence(self, log2_n, gamma_dt, detuning_ratio, seed):
        n = 2**log2_n
        gamma, dt = 1.0 + 1j * detuning_ratio, gamma_dt
        rng = np.random.default_rng(seed)
        drive = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        weights = doubling_weights(gamma, dt, n)
        scan = coherence_scan(drive, weights)
        c_prev, c_curr, e, _, _ = weights
        assert e == cmath.exp(-gamma * dt)
        expected = circular_recurrence(c_curr * drive + c_prev * np.roll(drive, 1), e)
        # closing the period divides by 1 - e^n, which scales the rounding of both sides
        closure = 1.0 + abs(e**n / (1.0 - e**n))
        assert np.max(np.abs(scan - expected)) <= 1e-14 * closure * np.max(np.abs(expected))


class TestOperator:
    @settings(max_examples=30, deadline=None)
    @given(
        log2_n=st.integers(3, 12),
        dt=st.floats(0.01, 0.1),
        d0=st.floats(0.5, 60.0),
        envelope=st.sampled_from(["constant", "gaussian", "random phase"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(log2_n=12, dt=0.06, d0=2.5, envelope="gaussian", seed=0)
    @example(log2_n=3, dt=0.01, d0=60.0, envelope="random phase", seed=1)  # memory outlasts the window
    def test_one_application_matches_the_doubling_scan(self, log2_n, dt, d0, envelope, seed):
        # the scan symbol on FFTs, which the second-order test holds the solve against, is the doubling scan's
        grid = sl.TimeGrid.centered(2**log2_n, dt)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        ec = control_amplitude(grid, envelope, seed)
        e_field = random_field(grid, seed).samples
        out, peak = apply_with_peak(scan_symbols(medium, grid), ec, e_field)
        expected, expected_peak = scan_operator(medium, ec, grid)(e_field)
        assert rel_l2(out, expected) < 1e-14
        assert peak == pytest.approx(expected_peak, rel=1e-14, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        log2_n=st.integers(3, 14),
        dt=st.floats(0.01, 0.1),
        lines=st.tuples(st.floats(0.3, 2.0), st.floats(0.0, 0.5), st.floats(0.3, 2.0), st.floats(0.01, 0.5)),
    )
    @example(log2_n=14, dt=0.06, lines=(GAMMA, 2.5 * GAMMA / LENGTH, GAMMA, 2.5 * GAMMA / LENGTH))  # example.ini
    def test_eigenvalues_are_the_frequency_domain_exponent(self, log2_n, dt, lines):
        # lambda_j = i k0 chi(omega_j) / 2 at unit intensity, on FD's detuning of each bin, asymmetric lines too
        grid = sl.TimeGrid.centered(2**log2_n, dt)
        gamma_lo, g_lo, gamma_hi, g_hi = lines
        lines = (sl.RamanLine(gamma_lo, g_lo), sl.RamanLine(gamma_hi, g_hi))
        medium = sl.RamanMedium(lines=lines, splitting=DELTA, length_mm=LENGTH, k0=K0)
        eigenvalues, _ = _symbols(medium, grid)
        expected = 0.5j * K0 * sl.chi(medium, bin_detunings(grid))
        assert np.max(np.abs(eigenvalues - expected) / np.abs(expected)) <= 1e-15

    def test_chi_and_the_eigenvalues_weight_the_same_line_responses(self, monkeypatch):
        # medium writes each line's response once: on the DFT-bin detunings, chi is i/k0 times the
        # strength-weighted sum of the very responses the eigenvalues -sum (g/2) s are built from, bit for bit
        grid = sl.TimeGrid.centered(2**10, 0.06)
        lines = (sl.RamanLine(0.7, 0.2), sl.RamanLine(1.3, 0.05))
        medium = sl.RamanMedium(lines=lines, splitting=DELTA, length_mm=LENGTH, k0=K0)
        seen = []

        def spy(medium, omega, responses=tdprop._line_responses):
            seen.append((omega, responses(medium, omega)))
            return seen[-1][1]

        monkeypatch.setattr(tdprop, "_line_responses", spy)
        eigenvalues, _ = _symbols(medium, grid)
        [(omegas, (s_lo, s_hi))] = seen
        (g_lo, g_hi), (c_lo, c_hi) = (line.strength_per_intensity for line in lines), medium.line_strengths
        assert np.array_equal(omegas, bin_detunings(grid))
        assert np.array_equal(sl.chi(medium, omegas), (c_lo * s_lo + c_hi * s_hi) * (1j / K0))
        assert np.array_equal(eigenvalues, -(g_lo / 2.0 * s_lo + g_hi / 2.0 * s_hi))

    @settings(max_examples=20, deadline=None)
    @given(
        log2_n=st.integers(3, 12),
        dt=st.floats(0.01, 0.1),
        d0=st.floats(0.5, 60.0),
        envelope=st.sampled_from(["constant", "gaussian", "random phase"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(log2_n=12, dt=0.06, d0=2.5, envelope="gaussian", seed=0)
    def test_one_application_matches_the_frequency_domain_transforms(self, log2_n, dt, d0, envelope, seed):
        # A E = Ec (FD's exponent per unit length applied to conj(Ec) E), and line nu's coherence
        # i sqrt(g_nu / 2) s_nu applied to it, both through forward_transform and inverse_transform
        grid = sl.TimeGrid.centered(2**log2_n, dt)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        ec = control_amplitude(grid, envelope, seed)
        e_field = random_field(grid, seed).samples
        out, peak = apply_with_peak(_symbols(medium, grid), ec, e_field)
        spectrum = sl.forward_transform(sl.ComplexEnvelope(grid=grid, samples=np.conj(ec) * e_field))
        omegas = spectrum.grid.omegas

        def through(symbol):
            return sl.inverse_transform(sl.SpectralEnvelope(spectrum.grid, symbol * spectrum.samples)).samples

        expected = ec * through(0.5j * K0 * sl.chi(medium, omegas))
        expected_peak = max(
            float(np.max(np.abs(through(1j * math.sqrt(line.strength_per_intensity / 2.0)
                                        / (line.linewidth - 1j * (omegas - center))))))
            for line, center in zip(medium.lines, (-DELTA / 2, +DELTA / 2)))
        assert rel_l2(out, expected) < 1e-14
        assert peak == pytest.approx(expected_peak, rel=1e-14, abs=0.0)


class TestConstant:
    @pytest.mark.parametrize("intensity", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", [8, 1024, 16384])
    def test_output_dft_is_the_input_dft_times_the_transfer(self, std_medium, n, intensity):
        # the z = L drive the coherence check reads; t_start's phase cancels on any grid
        grid = sl.TimeGrid(t_start=-0.37 * n * 0.06, dt=0.06, n=n)
        pulse = random_field(grid, n)
        medium = std_medium.with_control_intensity(intensity)
        chi = fdprop.susceptibility_from_medium(medium, grid.frequency_grid())
        transfer = fdprop.transfer_function(chi, medium.k0, medium.length_mm)
        output = fdprop._through(pulse, sl.forward_transform(pulse), transfer)
        drive = np.fft.fft(pulse.samples) * transfer.values[_dft_order(n)]
        if intensity == 0.0:
            assert np.array_equal(drive, np.fft.fft(output.samples))
        assert rel_l2(drive, np.fft.fft(output.samples)) <= 1e-14

    def test_nine_point_scan_transforms_once_per_point_in_constant(self, std_medium, monkeypatch):
        # one inverse transform (an fft) per output, and no coherence read
        pulse = sl.synthesize_pulse("flat_top_spectrum", sl.TimeGrid.centered(2**12, 0.06), bandwidth=1.8)
        counts, inside, constant = {"fft": 0, "ifft": 0}, [], tdprop._constant

        def counted(name, transform):
            def spy(*args, **kwargs):
                counts[name] += len(inside)
                return transform(*args, **kwargs)
            return spy

        def spy_constant(*args, **kwargs):
            inside.append(1)
            try:
                return constant(*args, **kwargs)
            finally:
                inside.pop()

        for name in counts:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        monkeypatch.setattr(tdprop, "_constant", spy_constant)
        assert len(sl.delay_vs_control_scan(std_medium, np.linspace(0.25, 2.0, 9), pulse)) == 9
        assert counts == {"fft": 9, "ifft": 0}


class TestControlField:
    @settings(max_examples=20, deadline=None)
    @given(order=st.sampled_from([1, 4, 8]), fwhm_ps=st.floats(3.0, 60.0))
    @example(order=1, fwhm_ps=3.0)
    @example(order=8, fwhm_ps=60.0)
    def test_fwhm_is_the_intensity_fwhm(self, order, fwhm_ps):
        # the Gaussian is order 1; the peak sample, at t = 0, is 1, so intensity is the peak intensity
        grid = sl.TimeGrid.centered(2**13, 0.02)
        envelope = sl.ControlField.flat_top(grid, fwhm_ps, 1.0, order=order).envelope
        assert np.max(np.abs(envelope)) == 1.0
        assert interpolated_fwhm(grid.times, np.abs(envelope) ** 2) == pytest.approx(fwhm_ps, rel=1e-3)


class TestSolve:
    def test_control_off_is_identity(self, std_medium, flattop_signal):
        result = sl.solve(std_medium, sl.ControlField.constant(0.0), flattop_signal)
        assert np.array_equal(result.output.samples, flattop_signal.samples)
        assert (result.peak_coherence, result.warnings) == (0.0, [])

    def test_matches_frequency_domain_solution(self, std_medium, flattop_signal):
        result = sl.solve(std_medium, sl.ControlField.constant(1.0), flattop_signal)
        reference = fd_reference(std_medium, flattop_signal)
        assert rel_l2(result.output.samples, reference.samples) < 1e-3
        td_delay = result.output.centroid() - flattop_signal.centroid()
        fd_delay = reference.centroid() - flattop_signal.centroid()
        assert td_delay == pytest.approx(fd_delay, rel=1e-3)

    def test_single_line_beer_lambert(self):
        d0 = 1.0
        grid = sl.TimeGrid.centered(2**14, 0.02)
        medium = sl.RamanMedium(
            lines=(
                sl.RamanLine(GAMMA, 0.0),
                sl.RamanLine(GAMMA, d0 * GAMMA / LENGTH),
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
                sl.RamanLine(rng.uniform(0.3, 2.0), rng.uniform(0.0, 0.1)),
                sl.RamanLine(rng.uniform(0.3, 2.0), rng.uniform(0.0, 0.1)),
            )
            medium = sl.RamanMedium(lines=lines, splitting=DELTA, length_mm=LENGTH, k0=K0)
            result = sl.solve(medium, sl.ControlField.constant(1.0), flattop_signal)
            assert result.output.energy() <= flattop_signal.energy() + 1e-12

    @pytest.mark.parametrize("d0, fwhm, substeps", [(2.5, None, 1), (3.0, 4.0, 1), (60.0, None, 1)])
    def test_matches_dense_matrix_exponential(self, d0, fwhm, substeps):
        # 64 samples keep the dense operator small; the scan is checked against its recurrence above
        grid = sl.TimeGrid.centered(64, 0.1)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        control = sl.ControlField.constant(1.0) if fwhm is None else sl.ControlField.gaussian(grid, fwhm, 1.0)
        pulse = random_field(grid, seed=int(d0))
        result = sl.solve(medium, control, pulse)
        assert result.nz == substeps
        assert rel_l2(result.output.samples, dense_exponential(medium, control, grid) @ pulse.samples) < 1e-13

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

    def test_peak_coherence_scales_with_amplitude_and_root_intensity(self, std_medium, flattop_signal):
        # example.ini's physics: the number is relative to the k = b split and a unit-energy signal,
        # so a 10x signal reads 10x, and I = 16 reads 4x I = 1 where the z = 0 read holds the peak;
        # no bound on it is tested, so none of these runs warns
        grid = flattop_signal.grid
        loud = sl.ComplexEnvelope(grid=grid, samples=10.0 * flattop_signal.samples)
        one, sixteen, ten_x = (sl.solve(std_medium, sl.ControlField.constant(i), pulse)
                               for i, pulse in ((1.0, flattop_signal), (16.0, flattop_signal), (1.0, loud)))
        gaussian = [sl.solve(std_medium, sl.ControlField.gaussian(grid, 60.0, i), flattop_signal) for i in (1.0, 16.0)]
        assert one.peak_coherence == pytest.approx(0.031387896061138544, rel=1e-12, abs=0.0)
        assert sixteen.peak_coherence == pytest.approx(4.0 * one.peak_coherence, rel=1e-12, abs=0.0)
        assert ten_x.peak_coherence == pytest.approx(10.0 * one.peak_coherence, rel=1e-12, abs=0.0)
        assert gaussian[1].peak_coherence == pytest.approx(4.0 * gaussian[0].peak_coherence, rel=1e-12, abs=0.0)
        assert [r.warnings for r in (one, sixteen, ten_x, *gaussian)] == [[]] * 5

    def test_short_control_warns(self, std_medium):
        grid = sl.TimeGrid.centered(2**13, 0.02)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=2.0)
        control = sl.ControlField.gaussian(grid, fwhm_ps=3.0, intensity=1.0)
        result = sl.solve(std_medium, control, pulse)
        # the warning measures |envelope|^2, whose FWHM is the fwhm_ps the control was built with
        assert result.warnings == ["control intensity FWHM 3 ps is not long compared to the signal (2 ps), "
                                   "so the fixed-intensity picture may not apply"]

    def test_loud_signal_under_a_short_control_warns_once(self, std_medium):
        # a loud signal's peak coherence is reported, not warned about: only the control-duration warning
        grid = sl.TimeGrid.centered(2**13, 0.02)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=2.0)
        loud = sl.ComplexEnvelope(grid=grid, samples=10.0 * pulse.samples)
        result = sl.solve(std_medium, sl.ControlField.gaussian(grid, fwhm_ps=3.0, intensity=1.0), loud)
        assert result.peak_coherence == pytest.approx(0.426, abs=5e-4)
        assert len(result.warnings) == 1
        assert result.warnings[0].startswith("control intensity FWHM")

    def test_envelope_off_the_grid_refused(self, std_medium):
        grid = sl.TimeGrid.centered(2**10, 0.06)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=2.0)
        with pytest.raises(ValueError, match=r"control envelope has \(10,\) samples, grid has 1024"):
            sl.solve(std_medium, sl.ControlField(1.0, envelope=np.ones(10)), pulse)

    def test_coarse_time_step_refused(self, std_medium, monkeypatch):
        # a shaped control's march is held to 2 pi / (8 Delta), checked before chi is sampled
        grid = sl.TimeGrid.centered(2**10, 0.2)  # > 2 pi / (8 Delta)
        pulse = sl.ComplexEnvelope(grid=grid, samples=np.exp(-grid.times**2).astype(complex))
        sampled = []
        monkeypatch.setattr(fdprop, "medium_chi", lambda *args: sampled.append(args))
        with pytest.raises(GridResolutionError, match=r"^time step 0\.2 ps does not resolve the two-photon beat; "
                                                      r"need dt <= 2\*pi/\(8\*Delta\) = 0\.1155 ps$"):
            sl.solve(std_medium, sl.ControlField.gaussian(grid, fwhm_ps=60.0, intensity=1.0), pulse)
        assert sampled == []

    def test_constant_control_takes_a_time_step_past_the_beat(self, std_medium):
        # FD's output on any grid FD takes, and the check march agrees with it there to rounding
        grid = sl.TimeGrid.centered(2**12, 0.2)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=4.0)
        result = sl.solve(std_medium, sl.ControlField.constant(1.0), pulse)
        assert np.array_equal(result.output.samples, fd_reference(std_medium, pulse).samples)
        assert rel_l2(tdprop._march(std_medium, 1.0, pulse, result.nz_needed).output.samples,
                      result.output.samples) < 1e-14

    def test_insufficient_z_steps_refused(self):
        medium = sl.from_target_depth(50.0, GAMMA, DELTA, K0, LENGTH)
        grid = sl.TimeGrid.centered(2**12, 0.05)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=2.0)
        with pytest.raises(GridResolutionError, match="nz >="):
            sl.solve(medium, sl.ControlField.constant(1.0), pulse, sl.SolverSettings(nz=16))

    def test_settings_sample_chi_once(self, std_medium, flattop_signal, monkeypatch):
        # the refusal reads the same plan as the solve
        sampled = []

        def spy(medium, omega, chi=fdprop.medium_chi):
            sampled.append(medium.control_intensity)
            return chi(medium, omega)

        monkeypatch.setattr(fdprop, "medium_chi", spy)
        sl.solve(std_medium, sl.ControlField.constant(1.0), flattop_signal, sl.SolverSettings(nz=256))
        assert sampled == [1.0]

    @pytest.mark.parametrize("shaped", [False, True], ids=["constant", "gaussian"])
    def test_chi_checked_once_per_solve(self, std_medium, shaped, monkeypatch):
        # solve's own check plans the run: a constant control's transfer does not check its chi again
        grid = sl.TimeGrid.centered(2**10, 0.06)
        pulse = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=1.8)
        control = sl.ControlField.gaussian(grid, 20.0, 1.0) if shaped else sl.ControlField.constant(1.0)
        validate, calls = tdprop._validate_resolution, []
        nz_needed = validate(std_medium, sl.susceptibility_from_medium(std_medium, grid.frequency_grid()).values)
        monkeypatch.setattr(tdprop, "_validate_resolution",
                            lambda medium, chi: calls.append(chi) or validate(medium, chi))
        assert sl.solve(std_medium, control, pulse).nz_needed == nz_needed
        assert len(calls) == 1

    def test_nz_at_exactly_nz_needed_accepted(self, std_medium, signal_grid, monkeypatch):
        # a chi peak that puts the whole-length phase at exactly 2.0: 20 steps of exactly 0.1
        chi_max = 4.0 / (std_medium.k0 * std_medium.length_mm)
        assert std_medium.k0 * chi_max * std_medium.length_mm / 2.0 == 2.0
        validate = tdprop._validate_resolution
        monkeypatch.setattr(tdprop, "_validate_resolution",
                            lambda medium, chi: validate(medium, np.array([chi_max])))
        pulse = sl.synthesize_pulse("gaussian", signal_grid, duration=2.0)
        control = sl.ControlField.constant(1.0)
        assert sl.solve(std_medium, control, pulse, sl.SolverSettings(nz=20)).nz_needed == 20
        with pytest.raises(GridResolutionError, match=r"need nz >= 20 \(got 19\)"):
            sl.solve(std_medium, control, pulse, sl.SolverSettings(nz=19))

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

    def test_matches_periodic_frequency_domain_reference(self, std_medium, flattop_signal):
        # under a constant control the solve returns FD's output, from the same sample of chi
        result = sl.solve(std_medium, sl.ControlField.constant(1.0), flattop_signal)
        reference = fd_reference(std_medium, flattop_signal)
        assert np.array_equal(result.output.samples, reference.samples)

    @pytest.mark.parametrize("d0, n", [(2.5, 4096), (60.0, 4096), (60.0, 16384), (200.0, 16384)])
    def test_matches_frequency_domain_above_the_paper_depth(self, d0, n):
        # one periodic problem on both sides, so no window-start transient takes over the delay
        grid = sl.TimeGrid.centered(n, 0.06)
        pulse = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=1.8)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        result = sl.solve(medium, sl.ControlField.constant(1.0), pulse)
        reference = fd_reference(medium, pulse)
        assert rel_l2(result.output.samples, reference.samples) < 1e-3
        td_delay, fd_delay = (out.centroid() - pulse.centroid() for out in (result.output, reference))
        assert td_delay == pytest.approx(fd_delay, rel=1e-3)

    def test_scan_symbol_converges_to_the_solve_at_second_order_in_dt(self, std_medium, monkeypatch):
        # the example point in a 409.6 ps window: the scan symbol, which interpolates the drive
        # linearly, misses the medium's response by a term of order dt^2 (7.7e-5 and 7.0e-5 at dt = 0.1).
        # A constant control is solved in closed form, so its case is the march under an envelope of ones
        for kind in ("ones", "gaussian"):
            gaps = []
            for dt in (0.1, 0.05, 0.025, 0.0125):
                grid = sl.TimeGrid.centered(round(409.6 / dt), dt)
                pulse = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=1.8)
                control = (sl.ControlField(intensity=1.0, envelope=np.ones(grid.n)) if kind == "ones"
                           else sl.ControlField.gaussian(grid, 60.0, 1.0))
                with monkeypatch.context() as patch:
                    patch.setattr(tdprop, "_symbols", scan_symbols)
                    scan = sl.solve(std_medium, control, pulse)
                gaps.append(rel_l2(scan.output.samples, sl.solve(std_medium, control, pulse).output.samples))
            orders = np.log2(np.divide(gaps[:-1], gaps[1:]))
            assert np.all((orders >= 1.9) & (orders <= 2.1)), (kind, orders)

    def test_shaped_control_output_does_not_depend_on_dt(self, std_medium):
        # a 60-ps Gaussian control in a 409.6 ps window: each halving of dt adds samples between the
        # old ones and leaves the output on the old ones where it was, to rounding (1.1e-16 to 3.6e-16)
        outputs = []
        for dt in (0.1, 0.05, 0.025):
            grid = sl.TimeGrid.centered(round(409.6 / dt), dt)
            pulse = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=1.8)
            outputs.append(sl.solve(std_medium, sl.ControlField.gaussian(grid, 60.0, 1.0), pulse).output.samples)
        for coarse, fine in zip(outputs, outputs[1:]):
            assert rel_l2(fine[::2], coarse) < 1e-14

    def test_one_substep_up_to_phase_four(self, std_medium, flattop_signal, monkeypatch):
        # I = 3 puts the whole-length phase at 3.9; two substeps of 1.95 each agree to rounding.
        # Only a shaped control takes substeps: a constant one is solved in closed form
        control = sl.ControlField.gaussian(flattop_signal.grid, 60.0, 3.0)
        one = sl.solve(std_medium, control, flattop_signal)
        monkeypatch.setattr(tdprop, "_MAX_SUBSTEP_PHASE", 2.0)
        two = sl.solve(std_medium, control, flattop_signal)
        assert (one.nz, one.nz_needed, two.nz) == (1, 39, 2)
        assert rel_l2(one.output.samples, two.output.samples) < 1e-14

    def test_all_zero_pulse_has_zero_error(self, std_medium, signal_grid):
        zero = sl.ComplexEnvelope(grid=signal_grid, samples=np.zeros(signal_grid.n, dtype=complex))
        with np.errstate(all="raise"):
            results = [sl.solve(std_medium, control, zero)
                       for control in (sl.ControlField.constant(1.0), sl.ControlField.gaussian(signal_grid, 60.0, 1.0))]
        for result in results:
            assert not np.any(result.output.samples)
            assert (result.z_error_estimate, result.peak_coherence, result.warnings) == (0.0, 0.0, [])


class TestShapedControlReferences:
    """The shaped-control march against two references it does not build, at
    example.ini's medium with a 3-ps Gaussian signal on n = 8192, dt = 0.06."""

    GRID = sl.TimeGrid.centered(2**13, 0.06)

    @pytest.mark.parametrize("bins", [50, -50])
    def test_detuned_control_moves_the_window(self, std_medium, bins):
        # a control exp(i beta t) of constant amplitude, beta a whole number of detuning bins, moves
        # the Raman resonance by beta: the output is FD's through chi(omega + beta), exactly
        pulse = sl.synthesize_pulse("gaussian", self.GRID, duration=3.0)
        fgrid = self.GRID.frequency_grid()
        beta = bins * fgrid.domega
        result = sl.solve(std_medium, sl.ControlField(1.0, envelope=np.exp(1j * beta * self.GRID.times)), pulse)

        def fd(shift):
            chi = sl.Susceptibility(fgrid, sl.chi(std_medium, fgrid.omegas + shift))
            return sl.propagate(pulse, sl.transfer_function(chi, K0, LENGTH)).samples

        assert rel_l2(result.output.samples, fd(beta)) < 1e-13  # 2.1e-15
        assert rel_l2(result.output.samples, fd(-beta)) > 0.1  # 0.23: the sign is seen

    def test_long_control_is_the_frozen_intensity_limit(self, std_medium):
        # under a Gaussian control much longer than the signal, each sample is the constant-control
        # output at the control's local intensity; the reference interpolates, sample by sample and
        # linearly, constant-control outputs on 41 intensities in [0, 1], whose own error (read
        # against 81) stays below a tenth of the gap at ratio 32.  Gaps 9.18e-4, 2.34e-4, 5.87e-5
        pulse = sl.synthesize_pulse("gaussian", self.GRID, duration=3.0)
        samples = np.arange(self.GRID.n)

        def constant_outputs(count):
            levels = np.linspace(0.0, 1.0, count)
            return levels, np.array([sl.solve(std_medium, sl.ControlField.constant(i), pulse).output.samples
                                     for i in levels])

        def frozen(levels, outputs, intensity):
            k = np.clip(np.searchsorted(levels, intensity), 1, levels.size - 1)
            w = (intensity - levels[k - 1]) / (levels[k] - levels[k - 1])
            return (1.0 - w) * outputs[k - 1, samples] + w * outputs[k, samples]

        coarse, gaps = constant_outputs(41), []
        for ratio in (8, 16, 32):
            control = sl.ControlField.gaussian(self.GRID, ratio * pulse.intensity_fwhm(), 1.0)
            intensity = np.abs(control.envelope) ** 2
            reference = frozen(*coarse, intensity)
            gaps.append(rel_l2(sl.solve(std_medium, control, pulse).output.samples, reference))
        assert rel_l2(reference, frozen(*constant_outputs(81), intensity)) < gaps[-1] / 10.0
        orders = np.log2(np.divide(gaps[:-1], gaps[1:]))  # 1.97, 1.99
        assert np.all((orders >= 1.8) & (orders <= 2.2)), orders


class TestSolveProperties:
    """Hypothesis over the benchmark's seed box: d0 in [2, 3], flat-top
    bandwidth in [1.5, 2.1] /ps, constant control, on the default grid
    (n = 16384, dt = 0.06).  The z property ranges over d0 up to 200 and a
    Gaussian control of 2-8 ps FWHM, on 64 samples to keep it fast."""

    @settings(max_examples=6, deadline=None)
    @given(d0=st.floats(2.0, 3.0), bandwidth=st.floats(1.5, 2.1))
    @example(d0=3.0, bandwidth=2.1)  # the largest phase of the box
    def test_converged_solve_matches_periodic_reference(self, signal_grid, d0, bandwidth):
        pulse = sl.synthesize_pulse("flat_top_spectrum", signal_grid, bandwidth=bandwidth)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        result = sl.solve(medium, sl.ControlField.constant(1.0), pulse)
        assert np.array_equal(result.output.samples, fd_reference(medium, pulse).samples)

    @settings(max_examples=12, deadline=None)
    @given(
        d0=st.floats(0.5, 200.0),
        split=st.floats(0.05, 0.95).filter(lambda split: abs(split - 0.5) > 0.05),
        fwhm=st.none() | st.floats(2.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d0=60.0, split=0.3, fwhm=None, seed=0)  # 8 substeps against 3 and 6
    @example(d0=200.0, split=0.7, fwhm=4.0, seed=1)
    def test_converged_solve_is_exact_in_z(self, d0, split, fwhm, seed):
        # the split law exp(L A) = exp((L - a) A) exp(a A), on 64 samples; uneven
        # splits, since even halves take the same substeps as the whole
        grid = sl.TimeGrid.centered(64, 0.1)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        control = sl.ControlField.constant(1.0) if fwhm is None else sl.ControlField.gaussian(grid, fwhm, 1.0)
        pulse = random_field(grid, seed)
        whole = sl.solve(medium, control, pulse)
        first = sl.solve(dataclasses.replace(medium, length_mm=split * LENGTH), control, pulse)
        second = sl.solve(dataclasses.replace(medium, length_mm=(1.0 - split) * LENGTH), control, first.output)
        assert rel_l2(second.output.samples, whole.output.samples) < 1e-12

    @settings(max_examples=4, deadline=None)
    @given(d0=st.floats(2.0, 3.0), bandwidth=st.floats(1.5, 2.1), intensity=st.floats(0.1, 2.0))
    @example(d0=60.0, bandwidth=1.8, intensity=1.0)  # eight substeps of the march: 4.2e-14
    def test_envelope_of_ones_is_constant_control(self, signal_grid, d0, bandwidth, intensity):
        # the Taylor march of a shaped control against FD's closed form, the check behind the CLI's
        # td_fd_l2_error: at most 7.0e-16 over a 3 x 3 x 4 lattice of this box
        pulse = sl.synthesize_pulse("flat_top_spectrum", signal_grid, bandwidth=bandwidth)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        shaped = sl.solve(medium, sl.ControlField(intensity=intensity, envelope=np.ones(signal_grid.n)), pulse)
        constant = sl.solve(medium, sl.ControlField.constant(intensity), pulse)
        assert (shaped.nz, constant.nz) == (1 if d0 <= 3.0 else 8, 1)
        assert rel_l2(shaped.output.samples, constant.output.samples) < (1e-15 if d0 <= 3.0 else 1e-13)
        assert shaped.peak_coherence == pytest.approx(constant.peak_coherence, rel=1e-14, abs=0.0)

    @settings(max_examples=6, deadline=None)
    @given(d0=st.floats(0.0, 3.0), bandwidth=st.floats(1.5, 2.1))
    def test_energy_never_grows(self, signal_grid, d0, bandwidth):
        pulse = sl.synthesize_pulse("flat_top_spectrum", signal_grid, bandwidth=bandwidth)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        result = sl.solve(medium, sl.ControlField.constant(1.0), pulse)
        assert result.output.energy() <= pulse.energy() * (1.0 + 1e-12)


def per_point_rows(medium, intensities, pulse):
    return [(i, *delay_and_loss(pulse, sl.solve(medium, sl.ControlField.constant(i), pulse).output))
            for i in intensities]


def assert_rows_match(points, rows):
    # every point takes its own solve's path, so the rows are equal, not close
    assert [tuple(point) for point in points] == rows


class TestControlScan:
    @settings(max_examples=3, deadline=None)
    @given(
        d0=st.floats(2.0, 3.0),
        bandwidth=st.floats(1.5, 2.1),
        intensities=st.lists(st.floats(0.0, 2.0), min_size=8, max_size=8).map(lambda xs: sorted([0.0, *xs])),
    )
    @example(d0=3.0, bandwidth=1.5, intensities=[0.0, *np.linspace(0.25, 2.0, 8).tolist()])  # the largest phase, 3.2
    def test_scan_rows_match_per_point_solves(self, d0, bandwidth, intensities):
        # the benchmark's seed box; 2^12 samples keep it fast
        pulse = sl.synthesize_pulse("flat_top_spectrum", sl.TimeGrid.centered(2**12, 0.06), bandwidth=bandwidth)
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        points = sl.delay_vs_control_scan(medium, intensities, pulse)
        assert_rows_match(points, per_point_rows(medium, intensities, pulse))

    def test_loud_points_equal_their_own_solves(self, std_medium):
        # ten times the amplitude: each row is still its own solve's, and a row has no warnings
        grid = sl.TimeGrid.centered(2**12, 0.06)
        loud = sl.ComplexEnvelope(grid=grid, samples=10.0 * sl.synthesize_pulse("flat_top_spectrum", grid, 1.8).samples)
        points = sl.delay_vs_control_scan(std_medium, [0.01, 0.25, 1.0], loud)
        assert_rows_match(points, per_point_rows(std_medium, [0.01, 0.25, 1.0], loud))
        assert sl.ScanPoint._fields == ("intensity", "delay_ps", "loss_db")

    def test_every_point_equals_its_own_solve(self, std_medium):
        # at any depth, out of order and at zero intensity: I = 16 would take 6 substeps of the march
        pulse = sl.synthesize_pulse("flat_top_spectrum", sl.TimeGrid.centered(2**12, 0.06), bandwidth=1.8)
        intensities = [0.0, 0.25, 0.5, 1.0, 16.0, 2.0]
        points = sl.delay_vs_control_scan(std_medium, intensities, pulse)
        assert_rows_match(points, per_point_rows(std_medium, intensities, pulse))
        assert points[0][1:3] == (0.0, 0.0)

    def test_scan_samples_chi_once_per_point(self, std_medium, monkeypatch):
        # each point's one sample of chi, at its own intensity, serves its transfer
        pulse = sl.synthesize_pulse("flat_top_spectrum", sl.TimeGrid.centered(2**12, 0.06), bandwidth=1.8)
        sampled = []

        def spy(medium, omega, chi=fdprop.medium_chi):
            sampled.append(medium.control_intensity)
            return chi(medium, omega)

        monkeypatch.setattr(fdprop, "medium_chi", spy)
        intensities = np.linspace(0.0, 2.0, 9)
        points = sl.delay_vs_control_scan(std_medium, intensities, pulse)
        assert len(points) == 9 and sampled == intensities.tolist()

    def test_scan_takes_a_time_step_past_the_beat(self, std_medium):
        # each point is FD's output through its own transfer, as on a finer grid
        grid = sl.TimeGrid.centered(2**12, 0.2)
        pulse = sl.synthesize_pulse("gaussian", grid, duration=4.0)
        intensities = [0.0, 0.5, 1.0, 2.0]
        rows = [(i, *delay_and_loss(pulse, fd_reference(std_medium.with_control_intensity(i), pulse)))
                for i in intensities]
        assert [tuple(p[:3]) for p in sl.delay_vs_control_scan(std_medium, intensities, pulse)] == rows

    def test_nine_point_scan_memory(self, std_medium, flattop_signal):
        # the scan's outputs, DFT, eigenvalues and work arrays at n = 16384 stay below 10 MB
        intensities = np.linspace(0.25, 2.0, 9)
        tracemalloc.start()
        try:
            sl.delay_vs_control_scan(std_medium, intensities, flattop_signal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_empty_scan(self, std_medium, flattop_signal):
        assert sl.delay_vs_control_scan(std_medium, [], flattop_signal) == []

    def test_negative_intensity_rejected(self, std_medium, flattop_signal):
        with pytest.raises(ValueError, match="non-negative"):
            sl.delay_vs_control_scan(std_medium, [-1.0], flattop_signal)

    def test_output_past_300_db_is_refused_naming_its_intensity(self, std_medium):
        # at I = 1000 the output is 326 dB down, rounding of the input, refused as its own propagate is
        pulse = sl.synthesize_pulse("flat_top_spectrum", sl.TimeGrid.centered(2**12, 0.06), bandwidth=1.8)
        with pytest.raises(ValueError, match=r"^intensity 1000\.0: the output is 3\d\d\.\d dB below its input"):
            sl.delay_vs_control_scan(std_medium, [0.5, 1000.0], pulse)

    def test_point_past_the_substep_limit_is_refused_as_fd_refuses_it(self, std_medium):
        # no point marches, so none is planned: I = 1e12, whose march would take 3.25e11 substeps, is refused
        # by its empty output, as FD's propagate refuses it; a GridResolutionError is no ValueError
        pulse = sl.synthesize_pulse("flat_top_spectrum", sl.TimeGrid.centered(2**12, 0.06), bandwidth=1.8)
        refusal = "the output has no energy: the whole pulse was absorbed"
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            delay_and_loss(pulse, fd_reference(std_medium.with_control_intensity(1e12), pulse))
        with pytest.raises(ValueError, match=rf"^intensity 1000000000000\.0: {refusal}$"):
            sl.delay_vs_control_scan(std_medium, [0.5, 1e12], pulse)

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
                sl.RamanLine(0.5, 1.2 * GAMMA / LENGTH),
                sl.RamanLine(2.2, 4.0 * GAMMA / LENGTH),
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
