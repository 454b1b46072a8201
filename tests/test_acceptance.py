"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them live).
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slowlight as sl
from slowlight.cli import main as cli_main
from slowlight.spectral import PULSE_SHAPES

from conftest import DELTA, GAMMA, K0, LENGTH, experiment_scale_medium, gated_flat_top, rel_l2

CONFIG = """\
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


def _report(number, label, checks):
    ok = all(passed for passed, _ in checks)
    print(f"\nACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {label}")
    for passed, detail in checks:
        print(f"  {'ok  ' if passed else 'FAIL'} {detail}")
    assert ok, f"acceptance criterion {number} failed"


def _closed_form(d0, gamma=GAMMA, delta=DELTA):
    """Independent plain-arithmetic oracle for the figures of merit."""
    q = delta * delta / 4.0
    tau = d0 * gamma * (q - gamma * gamma) / (q + gamma * gamma) ** 2
    eta = d0 * (10.0 / math.log(10.0)) * 2.0 * gamma * gamma / (q + gamma * gamma)
    return tau, eta


def test_criterion_1_analytic_sweep(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    started = time.monotonic()
    code = cli_main(
        ["analytic", "--config", str(cfg), "--out-dir", str(out), "--d0-max", "5", "--d0-step", "0.1"]
    )
    elapsed = time.monotonic() - started
    body = np.loadtxt(out / "analytic_sweep.csv", delimiter=",", skiprows=1)
    d0, delay, loss, _ = body.T
    i25 = int(np.argmin(np.abs(d0 - 2.5)))
    i50 = int(np.argmin(np.abs(d0 - 5.0)))
    tau_ref, eta_ref = _closed_form(2.5)
    _, eta_ref5 = _closed_form(5.0)
    mask = d0 > 0
    ratio = delay[mask] / loss[mask]
    ratio_ref = (math.log(10.0) / 20.0) * (DELTA**2 / 4 - GAMMA**2) / (GAMMA * (GAMMA**2 + DELTA**2 / 4))
    checks = [
        (code == 0, f"exit code {code}"),
        (abs(delay[i25] - tau_ref) < 1e-3 * tau_ref,
         f"tau_g(2.5) = {delay[i25]:.6f} ps vs closed form {tau_ref:.6f} (0.1%)"),
        (abs(delay[i25] - 0.16735) < 1e-5, f"tau_g(2.5) = {delay[i25]:.5f} ~ 0.16735 ps"),
        (abs(loss[i25] - eta_ref) < 1e-3 * eta_ref,
         f"eta(2.5) = {loss[i25]:.6f} dB vs closed form {eta_ref:.6f} (0.1%)"),
        (abs(loss[i25] - 1.729) < 1e-3, f"eta(2.5) = {loss[i25]:.4f} ~ 1.729 dB"),
        (abs(loss[i50] - eta_ref5) < 1e-3 * eta_ref5,
         f"eta(5) = {loss[i50]:.6f} dB vs closed form {eta_ref5:.6f} (0.1%)"),
        (abs(loss[i50] - 3.458) < 1e-3, f"eta(5) = {loss[i50]:.4f} ~ 3.458 dB"),
        (np.max(np.abs(ratio - ratio_ref)) < 1e-9 * ratio_ref,
         f"delay/loss constant at {ratio_ref:.5f} ps/dB to 1e-9 relative"),
        (abs(ratio_ref - 0.09680) < 1e-5, f"delay per loss {ratio_ref:.5f} ~ 0.09680 ps/dB"),
        (elapsed < 1.0, f"runtime {elapsed:.3f} s < 1 s"),
    ]
    _report(1, "closed-form delay/loss sweep over peak optical depth", checks)


def test_criterion_2_delay_bandwidth_product():
    m25 = sl.from_target_depth(2.5, GAMMA, DELTA, K0, LENGTH)
    dbp25 = sl.delay_bandwidth_product(m25)
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        m = sl.from_target_depth(mid, GAMMA, DELTA, K0, LENGTH)
        if sl.delay_bandwidth_product(m) < 1.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    loss_at_unity = sl.loss_db(sl.from_target_depth(crossing, GAMMA, DELTA, K0, LENGTH))
    checks = [
        (abs(dbp25 - 0.971) <= 0.001, f"DBP(2.5) = {dbp25:.4f} = 0.971 +- 0.001"),
        (abs(crossing - 2.576) <= 0.01, f"DBP = 1 at d0 = {crossing:.4f} = 2.576 +- 0.01"),
        (abs(loss_at_unity - 1.78) < 0.01,
         f"loss at unit DBP = {loss_at_unity:.3f} dB (formula value; quoted ~1.5 dB "
         "remains an open discrepancy)"),
    ]
    _report(2, "delay-bandwidth product reaches unity near d0 = 2.5", checks)


def test_criterion_3_td_fd_equivalence(signal_grid, flattop_signal):
    checks = []
    for d0 in (0.5, 1.0, 2.5):
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
        chi = sl.susceptibility_from_medium(medium, signal_grid.frequency_grid())
        reference = sl.propagate(
            flattop_signal, sl.transfer_function(chi, K0, LENGTH)
        )
        started = time.monotonic()
        result = sl.solve(
            medium, sl.ControlField.constant(1.0), flattop_signal, sl.SolverSettings(nz=256)
        )
        elapsed = time.monotonic() - started
        err = rel_l2(result.output.samples, reference.samples)
        td_delay = result.output.centroid() - flattop_signal.centroid()
        fd_delay = reference.centroid() - flattop_signal.centroid()
        disc = abs(td_delay - fd_delay) / abs(fd_delay)
        checks.append((err < 1e-3, f"d0={d0}: relative L2 field error {err:.2e} < 1e-3"))
        checks.append((disc < 0.01, f"d0={d0}: centroid-delay discrepancy {disc:.2%} < 1%"))
        checks.append((elapsed < 30.0, f"d0={d0}: solve took {elapsed:.2f} s < 30 s"))
    _report(3, "time-domain solver matches the frequency-domain solution", checks)


def test_criterion_4_kramers_kronig_fidelity():
    span = 2.0 * 20.0 * DELTA
    grid = sl.TimeGrid(t_start=0.0, dt=2.0 * np.pi / span, n=2**14).frequency_grid()
    medium = sl.from_target_depth(2.5, GAMMA, DELTA, K0, LENGTH)
    depth = sl.OpticalDepthSpectrum(grid=grid, depth=K0 * LENGTH * sl.chi(medium, grid.omegas).imag)
    chi = sl.kk_real_from_imag(depth, K0, LENGTH)
    expected = sl.chi(medium, grid.omegas)
    err = np.max(np.abs(chi.values.real - expected.real))
    scale = np.max(np.abs(expected.real))
    tau = sl.group_delay_from_susceptibility(chi, K0, LENGTH)
    tau_ref = sl.group_delay(medium)
    checks = [
        (err < 0.01 * scale,
         f"max Re-chi error {err:.3e} < 1% of peak |Re chi| = {scale:.3e}"),
        (abs(tau - tau_ref) < 0.02 * tau_ref,
         f"reconstructed delay {tau:.5f} ps within 2% of analytic {tau_ref:.5f} ps"),
    ]
    _report(4, "Kramers-Kronig reconstruction of the doublet dispersion", checks)


def test_criterion_5_deconvolved_duration():
    value = sl.deconvolve_duration(0.675, 0.160)
    exact = math.sqrt(0.675**2 - 0.160**2)
    checks = [
        (abs(value - exact) < 1e-12, f"deconvolve(0.675, 0.160) = {value:.7f} (exact formula)"),
        (abs(value - 0.6558) < 1e-4, f"value {value:.4f} ~ 0.6558 ps (quoted 650 fs)"),
    ]
    _report(5, "cross-correlation width deconvolution (part 1/3)", checks)


def test_criterion_5_flat_top_transform_limited_duration():
    # Quoted value 0.492 ps assumes the plain-frequency (cycles/ps) pairing
    # of bandwidth and duration.
    # 1.8 THz (cycles/ps) is 2*pi*1.8 rad/ps on the detuning axis (README).
    bandwidth = 2.0 * math.pi * 1.8
    grid = sl.TimeGrid.centered(2**14, 0.03)
    env = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=bandwidth)
    fwhm = env.intensity_fwhm()
    checks = [
        (abs(fwhm - 0.4922) <= 0.005,
         f"flat-top 1.8 THz (axis width {bandwidth:.4f} rad/ps) duration = "
         f"{fwhm:.4f} ps vs quoted 0.4922 +- 0.005 ps"),
    ]
    _report(5, "flat-top transform-limited duration (part 2/3)", checks)


def test_criterion_5_wavelength_bandwidth_conversion():
    value = sl.wavelength_bandwidth_to_frequency(765.0, 3.6)
    exact = sl.C_NM_PER_PS * 3.6 / 765.0**2
    checks = [
        (abs(value - exact) < 1e-12, f"c*dl/l^2 = {value:.6f} cycles/ps (THz; exact formula)"),
        (abs(value - 1.845) < 2e-3, f"value {value:.4f} ~ 1.845 THz (quoted 1.8 THz)"),
    ]
    _report(5, "wavelength-to-frequency bandwidth conversion (part 3/3)", checks)


def test_criterion_6_experiment_scale_delay():
    medium = experiment_scale_medium()
    d0 = sl.peak_optical_depth(medium)
    predicted = sl.group_delay(medium)
    transmission = 10.0 ** (-sl.loss_db(medium) / 10.0)
    long_fwhm, long_delay, _ = gated_flat_top(medium, 1.8)
    # the paper's 1.8-THz signal on the axis (README, "The 2-pi caveat")
    fwhm, delay, loss = gated_flat_top(medium, 2.0 * math.pi * 1.8)
    paper_ratio = 0.140 / 0.650
    checks = [
        (abs(transmission - 0.65) < 1e-12,
         f"window-center transmission {transmission:.4f} = 0.65 (35% absorption)"),
        (abs(d0 - 2.706) < 2e-3, f"implied d0 = {d0:.4f} ~ 2.706"),
        (abs(predicted - 0.181) < 5e-4, f"predicted group delay {predicted:.4f} ~ 0.181 ps"),
        (0.10 <= long_delay <= 0.20,
         f"end-to-end first-moment delay {long_delay:.4f} ps in [0.10, 0.20] for a flat top "
         f"of axis width 1.8 1/ps ({long_fwhm:.2f} ps FWHM, far longer than the paper's pulse)"),
        (abs(fwhm - 0.492) <= 0.002,
         f"paper's signal (axis width {2.0 * math.pi * 1.8:.2f} 1/ps): input FWHM {fwhm:.4f} ps = 0.492 +- 0.002 ps"),
        (abs(delay - 0.1058) <= 5e-4,
         f"paper's signal: first-moment xcorr delay {delay:.4f} ps = 0.1058 +- 0.0005 ps (paper: 0.140 ps)"),
        (abs(loss - 4.396) <= 0.01, f"paper's signal: loss {loss:.3f} dB = 4.396 +- 0.01 dB"),
        (abs(delay / fwhm - paper_ratio) <= 0.002,
         f"paper's signal: delay / FWHM {delay / fwhm:.3f} = the paper's 140/650 = {paper_ratio:.3f} +- 0.002"),
    ]
    _report(6, "experiment-scale consistency at 35% window-center absorption", checks)


def _property(check, bound, **strategies):
    """Run ``check`` as a Hypothesis property that the value it returns stays
    at or below ``bound``; gives (held, the largest value seen) for a report line."""
    seen = []

    @settings(max_examples=8, deadline=None)
    @given(**strategies)
    def holds(**drawn):
        seen.append(check(**drawn))
        assert seen[-1] <= bound

    try:
        holds()
    except AssertionError as exc:
        print(*getattr(exc, "__notes__", []), sep="\n")  # the falsifying example
        return False, max(seen, default=math.nan)
    return True, max(seen)


def test_criterion_7_property_suites(signal_grid, flattop_signal, std_medium, std_transfer):
    fgrid = signal_grid.frequency_grid()
    checks = []

    # passivity over random asymmetric doublets
    def largest_gain(gamma_lo, gamma_hi, g_lo, g_hi):
        lines = (sl.RamanLine(gamma_lo, g_lo), sl.RamanLine(gamma_hi, g_hi))
        med = sl.RamanMedium(lines=lines, splitting=DELTA, length_mm=LENGTH, k0=K0)
        chi = sl.chi(med, fgrid.omegas)
        assert np.all(chi.imag >= -1e-15)
        return float(np.max(np.abs(sl.transfer_function(sl.Susceptibility(grid=fgrid, values=chi), K0, LENGTH).values)))

    linewidth, strength = st.floats(0.1, 3.0), st.floats(0.0, 5.0)
    passive, gain = _property(largest_gain, 1.0 + 1e-12, gamma_lo=linewidth, gamma_hi=linewidth,
                              g_lo=strength, g_hi=strength)
    checks.append((passive, f"passivity: Im chi >= 0 and max |H| = {gain:.12g} <= 1 over random media"))

    # KK applied to the model's Im chi gives back its Re chi, over the seed
    # box's depth and sweep intensities
    kk_grid = sl.TimeGrid(t_start=0.0, dt=2.0 * np.pi / (2.0 * 20.0 * DELTA), n=2**14).frequency_grid()

    def kk_error(d0, intensity):
        medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH).with_control_intensity(intensity)
        expected = sl.chi(medium, kk_grid.omegas)
        depth = sl.OpticalDepthSpectrum(grid=kk_grid, depth=K0 * LENGTH * expected.imag)
        chi = sl.kk_real_from_imag(depth, K0, LENGTH)
        return float(np.max(np.abs(chi.values.real - expected.real)) / np.max(np.abs(expected.real)))

    kk_held, kk_worst = _property(kk_error, 1e-3, d0=st.floats(2.0, 3.0), intensity=st.floats(0.1, 2.0))
    checks.append((kk_held, f"KK of the model's Im chi: max Re-chi error {kk_worst:.2e} of peak <= 1e-3"))

    # transform identities over the seed box's signals
    def transform_error(shape, bandwidth):
        pulse = sl.synthesize_pulse(shape, signal_grid, bandwidth=bandwidth)
        spec = sl.forward_transform(pulse)
        round_trip = rel_l2(sl.inverse_transform(spec).samples, pulse.samples)
        parseval = abs(spec.energy() - pulse.energy()) / pulse.energy()
        return max(round_trip, parseval)

    exact, transform_worst = _property(transform_error, 1e-12, shape=st.sampled_from(PULSE_SHAPES),
                                       bandwidth=st.floats(1.5, 2.1))
    checks.append((exact, f"round-trip identity and Parseval: worst mismatch {transform_worst:.2e} <= 1e-12"))

    # shift covariance through the propagator
    probe = sl.synthesize_pulse("gaussian", signal_grid, duration=2.0)
    tau0 = 0.477
    H = sl.TransferFunction(grid=fgrid, values=np.exp(1j * fgrid.omegas * tau0))
    shifted = sl.propagate(probe, H)
    shift_err = abs((shifted.centroid() - probe.centroid()) - tau0)
    checks.append(
        (shift_err < signal_grid.dt / 100, f"shift covariance error {shift_err:.2e} ps")
    )

    # causality of the time-domain solver
    pulse = sl.synthesize_pulse("gaussian", signal_grid, duration=1.5)
    result = sl.solve(std_medium, sl.ControlField.constant(1.0), pulse)
    peak = np.max(np.abs(pulse.samples))
    leading = int(np.argmax(np.abs(pulse.samples) > 1e-8 * peak))
    front = np.abs(result.output.samples[: max(leading - 1, 0)])
    causal = front.size == 0 or float(np.max(front)) < 1e-8 * peak
    checks.append((causal, "causality: no output before the input's leading edge"))

    # delay linearity in depth for the Lorentzian model, and the structured
    # multi-line response must be strictly less linear
    scales = np.linspace(0.0, 1.0, 6)
    chi_doublet = sl.chi(std_medium, fgrid.omegas)

    def scan(chi_values):
        series = []
        for s in scales:
            H = sl.transfer_function(
                sl.Susceptibility(grid=fgrid, values=s * chi_values), K0, LENGTH
            )
            out = sl.propagate(flattop_signal, H)
            series.append((s, out.centroid() - flattop_signal.centroid()))
        return sl.linearity_diagnostic(series)

    _, lorentzian_residual = scan(chi_doublet)
    w = fgrid.omegas
    structured_depth = (
        2.5 / (1.0 + (w - DELTA / 2) ** 2)
        + 2.0 / (1.0 + (w + DELTA / 2) ** 2)
        + 0.9 * 0.45**2 / (0.45**2 + (w - 1.2) ** 2)
    )
    structured = sl.kk_real_from_imag(
        sl.OpticalDepthSpectrum(grid=fgrid, depth=structured_depth),
        K0,
        LENGTH,
    )
    _, structured_residual = scan(structured.values)
    checks.append(
        (lorentzian_residual < 0.02,
         f"Lorentzian-model delay linearity residual {lorentzian_residual:.2e} < 0.02")
    )
    checks.append(
        (structured_residual > lorentzian_residual,
         f"structured multi-line residual {structured_residual:.2e} exceeds the "
         f"Lorentzian {lorentzian_residual:.2e}")
    )
    _report(7, "property suites: passivity, identities, causality, linearity", checks)
