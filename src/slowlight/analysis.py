"""Experiment-facing metrics: intensity cross-correlation, first-moment
delays, widths, deconvolved durations, absorption spectra, the delay and
loss of a propagated pulse, the TD-FD envelope error and the linearity
diagnostic for delay-versus-power scans.

The sum-frequency cross-correlator is modeled as an ideal intensity
correlator with a Gaussian gate, I_xc(tau) = int I_sig(t) I_ref(t - tau) dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _FINITE, _NON_NEGATIVE, _POSITIVE, _require
from .spectral import ComplexEnvelope, interpolated_fwhm, moment_centroid

_ABSORPTION_FLOOR = 1e-6  # off-spectrum level, relative to its peak, below which A is not taken
_MAX_LOSS_DB = 300.0  # an amplitude ratio of 1e-15: a few times the rounding of the input, not a pulse


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


def cross_correlate(signal: ComplexEnvelope, reference_fwhm_ps: float) -> CorrelationCurve:
    """Intensity cross-correlation of a signal against a Gaussian gate of
    intensity FWHM ``reference_fwhm_ps``, on the signal's own time axis and
    normalized to unit peak.  The gate enters by its closed-form transform,
    exp(-w^2 fwhm^2 / (16 ln 2)), so it needs no samples: any width is taken,
    finer than the grid's step or not."""
    _require(_POSITIVE, "reference duration", reference_fwhm_ps)
    grid = signal.grid
    # the gate is even, so the correlation is a convolution; padding to 2n keeps the FFT linear
    omegas = 2.0 * np.pi * np.fft.rfftfreq(2 * grid.n, grid.dt)
    with np.errstate(over="ignore"):  # a gate past the float range keeps only the mean: exp(-inf) = 0
        gate = np.exp(-((omegas * reference_fwhm_ps) ** 2) / (16.0 * np.log(2.0)))
    raw = np.fft.irfft(np.fft.rfft(signal.intensity(), 2 * grid.n) * gate, 2 * grid.n)[: grid.n]
    raw = np.maximum(raw, 0.0)  # clip FFT round-off noise
    peak = np.max(raw)
    if peak > 0:
        raw = raw / peak
    return CorrelationCurve(delays=grid.times, intensity=raw)


def first_moment_delay(on: CorrelationCurve, off: CorrelationCurve) -> float:
    """Difference of the normalized first moments, on minus off (ps)."""
    return on.first_moment() - off.first_moment()


def delay_and_loss(reference: ComplexEnvelope, output: ComplexEnvelope) -> tuple[float, float]:
    """Delay (ps) and loss (dB) of ``output`` against ``reference``: the
    intensity-centroid shift and -10 log10 of the energy ratio.  ValueError
    for an output with no energy or more than _MAX_LOSS_DB below ``reference``."""
    output_energy = output.energy()
    if output_energy == 0:
        raise ValueError("the output has no energy: the whole pulse was absorbed")
    loss = -10.0 * np.log10(output_energy / reference.energy())
    if loss > _MAX_LOSS_DB:
        raise ValueError(f"the output is {loss:.4g} dB below its input; past {_MAX_LOSS_DB:g} dB (an amplitude "
                         "ratio of 1e-15, a few times the input's rounding) it is rounding, not a pulse")
    # + 0.0 turns the -0.0 of a lossless run into 0.0 and moves nothing else
    return float(output.centroid() - reference.centroid()), float(loss) + 0.0


def relative_l2_error(envelope: ComplexEnvelope, reference: ComplexEnvelope) -> float:
    """||envelope - reference||_2 / ||reference||_2 over the samples."""
    diff = envelope.samples - reference.samples
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) / np.sum(np.abs(reference.samples) ** 2)))


def fwhm(curve: CorrelationCurve) -> float:
    """Interpolated FWHM of a correlation curve (ps)."""
    return interpolated_fwhm(curve.delays, curve.intensity)


def deconvolve_duration(tau_xc: float, tau_ref: float) -> float:
    """Signal duration from a cross-correlation width, sqrt(xc^2 - ref^2)."""
    _require(_NON_NEGATIVE, "reference duration", tau_ref)
    _require(_FINITE, "cross-correlation width", tau_xc)
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
