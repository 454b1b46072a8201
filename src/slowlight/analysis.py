"""Experiment-facing metrics: intensity cross-correlation, first-moment
delays, widths, deconvolved durations, absorption spectra, the delay and
loss of a propagated pulse, the TD-FD envelope error and the linearity
diagnostic for delay-versus-power scans.

The sum-frequency cross-correlator is modeled as an ideal intensity
correlator, I_xc(tau) = int I_sig(t) I_ref(t - tau) dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import ComplexEnvelope, interpolated_fwhm, moment_centroid

_ABSORPTION_FLOOR = 1e-6  # off-spectrum level, relative to its peak, below which A is not taken


@dataclass
class CorrelationCurve:
    delays: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        if self.delays.shape != self.intensity.shape:
            raise ValueError("delay and intensity arrays must have matching shapes")

    def first_moment(self) -> float:
        """Mean delay over the full grid."""
        return moment_centroid(self.delays, self.intensity)


def cross_correlate(signal: ComplexEnvelope, reference: ComplexEnvelope) -> CorrelationCurve:
    """Intensity cross-correlation of a signal against a reference pulse,
    normalized to unit peak."""
    if signal.grid != reference.grid:
        raise ValueError("signal and reference must share a time grid")
    n = signal.grid.n
    # sum_t I_sig(t + lag) I_ref(t) = int I_sig(t) I_ref(t - lag) dt for the n
    # central lags -n//2 ... n - 1 - n//2; padding to 2n keeps the FFT linear
    spectrum = np.fft.rfft(signal.intensity(), 2 * n) * np.conj(np.fft.rfft(reference.intensity(), 2 * n))
    raw = np.roll(np.fft.irfft(spectrum, 2 * n), n // 2)[:n] * signal.grid.dt
    lags = (np.arange(n) - n // 2) * signal.grid.dt
    raw = np.maximum(raw, 0.0)  # clip FFT round-off noise
    peak = np.max(raw)
    if peak > 0:
        raw = raw / peak
    return CorrelationCurve(delays=lags, intensity=raw)


def first_moment_delay(on: CorrelationCurve, off: CorrelationCurve) -> float:
    """Difference of the normalized first moments, on minus off (ps)."""
    return on.first_moment() - off.first_moment()


def delay_and_loss(reference: ComplexEnvelope, output: ComplexEnvelope) -> tuple[float, float]:
    """Delay (ps) and loss (dB) of ``output`` against ``reference``: the
    intensity-centroid shift and -10 log10 of the energy ratio."""
    delay = output.centroid() - reference.centroid()
    loss = -10.0 * np.log10(output.energy() / reference.energy())
    # + 0.0 turns the -0.0 of a lossless run into 0.0 and moves nothing else
    return float(delay), float(loss) + 0.0


def relative_l2_error(envelope: ComplexEnvelope, reference: ComplexEnvelope) -> float:
    """||envelope - reference||_2 / ||reference||_2 over the samples."""
    diff = envelope.samples - reference.samples
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) / np.sum(np.abs(reference.samples) ** 2)))


def fwhm(curve: CorrelationCurve) -> float:
    """Interpolated FWHM of a correlation curve (ps)."""
    return interpolated_fwhm(curve.delays, curve.intensity)


def deconvolve_duration(tau_xc: float, tau_ref: float) -> float:
    """Signal duration from a cross-correlation width, sqrt(xc^2 - ref^2)."""
    if tau_ref < 0:
        raise ValueError(f"reference duration must be non-negative, got {tau_ref}")
    if tau_xc <= tau_ref:
        raise ValueError(
            f"cross-correlation width {tau_xc} must exceed the reference width {tau_ref}"
        )
    return float(np.sqrt(tau_xc**2 - tau_ref**2))


def absorption_spectrum(on: np.ndarray, off: np.ndarray):
    """Fractional absorption A = 1 - on/off, with a validity mask.

    Points where the control-off spectrum falls below _ABSORPTION_FLOOR
    times its peak are flagged invalid (A set to 0 there) rather than
    divided out.
    """
    on = np.asarray(on, dtype=float)
    off = np.asarray(off, dtype=float)
    if on.shape != off.shape:
        raise ValueError("spectra must have matching shapes")
    valid = off > _ABSORPTION_FLOOR * np.max(off)
    a = np.zeros_like(off)
    a[valid] = 1.0 - on[valid] / off[valid]
    return a, valid


def linearity_diagnostic(series) -> tuple[float, float]:
    """Least-squares line through the origin for (intensity, delay) points.

    Returns (slope, residual_ratio) where residual_ratio is the maximum
    absolute residual over the maximum absolute delay.
    """
    pts = [(float(x), float(y)) for x, y in series]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 scan points, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    denom = float(np.sum(x * x))
    if denom == 0:
        raise ValueError("all intensities are zero; cannot fit a slope")
    slope = float(np.sum(x * y) / denom)
    max_delay = float(np.max(np.abs(y)))
    if max_delay == 0:
        return slope, 0.0
    residual = float(np.max(np.abs(y - slope * x)))
    return slope, residual / max_delay
