"""Uniform time/frequency grids, complex envelopes and the discrete
Fourier transform convention used by every other module.

Conventions
-----------
Time is in ps. The frequency axis holds detunings from the signal carrier
in 1/ps, with the transform kernel ``exp(+i*omega*t)``:

    S(omega) = integral E(t) exp(+i omega t) dt
    E(t)     = (1/2pi) integral S(omega) exp(-i omega t) domega

Under this convention multiplying a spectrum by ``exp(+i*omega*tau0)``
delays the envelope by ``+tau0``, so a positive spectral phase slope is a
positive group delay.  Medium rates (linewidths, splittings) quoted in
1/ps are placed on this axis as-is; see README for the unit discussion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _FINITE, _NON_NEGATIVE, _POSITIVE, AmbiguousWidthError, GridResolutionError, _require

C_MM_PER_PS = 299.792458
C_NM_PER_PS = 2.99792458e5

# Intensity-FWHM time-bandwidth constants on the exp(i*omega*t) axis.  Their
# plain-frequency (cycles/ps) counterparts are 2*pi smaller:
# GAUSSIAN_TBP/(2*pi) = 2 ln2/pi ~ 0.4413 and FLAT_TOP_TBP/(2*pi) ~ 0.8859.
# sinc half-power point: sin(x)/x = 1/sqrt(2)
SINC_HALF_POWER_X = 1.3915573782515105
GAUSSIAN_TBP = 4.0 * math.log(2.0)          # 2.772589
FLAT_TOP_TBP = 4.0 * SINC_HALF_POWER_X      # 5.566230

_TBP = {"gaussian": GAUSSIAN_TBP, "flat_top_spectrum": FLAT_TOP_TBP}
PULSE_SHAPES = tuple(_TBP)

_MIN_SAMPLES_PER_FWHM = 16
_SAMPLE_COUNT = ("a power of two >= 8", lambda n: n >= 8 and (n & (n - 1)) == 0)  # a TimeGrid size


def _grid_array(grid, values, dtype) -> np.ndarray:
    """``values`` as an array of ``dtype`` holding one sample per grid point."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {values.shape}")
    return values


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: ``t_k = t_start + k*dt`` for k = 0..n-1."""

    t_start: float
    dt: float
    n: int

    def __post_init__(self):
        _require(_POSITIVE, "time step", self.dt)
        _require(_FINITE, "grid start", self.t_start)
        _require(_SAMPLE_COUNT, "sample count", self.n)

    @classmethod
    def centered(cls, n: int, dt: float) -> "TimeGrid":
        """Grid symmetric about t = 0 (zero is the sample at index n//2)."""
        return cls(t_start=-(n // 2) * dt, dt=dt, n=n)

    @property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.n) * self.dt

    @property
    def span(self) -> float:
        return self.n * self.dt

    def frequency_grid(self) -> "FrequencyGrid":
        return FrequencyGrid(time_grid=self)


@dataclass(frozen=True)
class FrequencyGrid:
    """Detuning grid conjugate to a :class:`TimeGrid`.

    Ordered symmetrically around zero detuning, ``omega_k = (k - n/2)*domega``
    with ``domega = 2*pi/(n*dt)``; zero detuning is the sample at index n//2.
    """

    time_grid: TimeGrid

    @property
    def n(self) -> int:
        return self.time_grid.n

    @property
    def domega(self) -> float:
        return 2.0 * np.pi / (self.n * self.time_grid.dt)

    @property
    def omegas(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.domega

    @property
    def zero_index(self) -> int:
        return self.n // 2


@dataclass
class ComplexEnvelope:
    """Complex slowly-varying field samples on a time grid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = _grid_array(self.grid, self.samples, complex)

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.dt)

    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2

    def centroid(self) -> float:
        """First moment of the intensity profile (ps)."""
        return moment_centroid(self.grid.times, self.intensity())

    def intensity_fwhm(self) -> float:
        """Interpolated FWHM of the intensity profile (ps)."""
        return interpolated_fwhm(self.grid.times, self.intensity())


@dataclass
class SpectralEnvelope:
    """Complex spectrum on the detuning grid."""

    grid: FrequencyGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = _grid_array(self.grid, self.samples, complex)

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.domega / (2.0 * np.pi))

    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2

    def intensity_fwhm(self) -> float:
        return interpolated_fwhm(self.grid.omegas, self.intensity())


def forward_transform(env: ComplexEnvelope) -> SpectralEnvelope:
    """Transform an envelope to the detuning domain, ``S(w) = int E e^{iwt} dt``."""
    grid = env.grid
    fgrid = grid.frequency_grid()
    # sum_k E_k exp(i*omega_j*k*dt) over the shifted frequency ordering
    core = np.fft.fftshift(np.fft.ifft(env.samples)) * grid.n
    samples = grid.dt * core * np.exp(1j * fgrid.omegas * grid.t_start)
    return SpectralEnvelope(grid=fgrid, samples=samples)


def _dft_order(n: int) -> np.ndarray:
    """The detuning index of each DFT bin: ``np.fft.fft(E)[j]`` is
    ``forward_transform(E).samples[k] / dt`` up to a phase of k alone, for
    ``k = _dft_order(n)[j] = (n/2 - j) mod n``."""
    return (n // 2 - np.arange(n)) % n


def inverse_transform(spec: SpectralEnvelope) -> ComplexEnvelope:
    """Exact inverse of :func:`forward_transform`."""
    fgrid = spec.grid
    tgrid = fgrid.time_grid
    core = spec.samples * np.exp(-1j * fgrid.omegas * tgrid.t_start)
    samples = np.fft.fft(np.fft.ifftshift(core)) / (tgrid.n * tgrid.dt)
    return ComplexEnvelope(grid=tgrid, samples=samples)


def synthesize_pulse(
    shape: str,
    grid: TimeGrid,
    bandwidth: float | None = None,
    duration: float | None = None,
    quadratic_spectral_phase: float = 0.0,
) -> ComplexEnvelope:
    """Build a unit-energy pulse centered at t = 0.

    Parameters
    ----------
    shape : "gaussian" or "flat_top_spectrum"
    grid : TimeGrid
    bandwidth : FWHM of the spectral intensity on the detuning axis, in
        1/ps (full width of the top for the flat-top shape), so the
        transform-limited duration is ``GAUSSIAN_TBP/bandwidth`` or
        ``FLAT_TOP_TBP/bandwidth``.  A width quoted in cycles/ps (THz) is
        ``2*pi`` times larger on this axis.  The flat top is quantized to
        ``domega``, so its top needs many detuning samples.  Exactly one of
        ``bandwidth`` and ``duration`` must be given.
    duration : FWHM of the transform-limited temporal intensity in ps.
    quadratic_spectral_phase : spectral phase curvature in ps^2; the applied
        phase is ``0.5 * value * omega**2``.
    """
    if shape not in PULSE_SHAPES:
        raise ValueError(f"unknown pulse shape {shape!r}; expected one of {PULSE_SHAPES}")
    if (bandwidth is None) == (duration is None):
        raise ValueError("specify exactly one of bandwidth or duration")

    if bandwidth is not None:
        _require(_POSITIVE, "bandwidth", bandwidth)
        width = float(bandwidth)
    else:
        _require(_POSITIVE, "duration", duration)
        width = _TBP[shape] / float(duration)
    _require(_FINITE, "spectral phase curvature", quadratic_spectral_phase)

    tl_duration = _transform_limited_duration(shape, bandwidth, duration)
    if tl_duration < _MIN_SAMPLES_PER_FWHM * grid.dt:
        raise GridResolutionError(
            f"grid too coarse: pulse FWHM {tl_duration:.4g} ps needs dt <= "
            f"{tl_duration / _MIN_SAMPLES_PER_FWHM:.4g} ps, grid has dt = {grid.dt:.4g} ps"
        )

    fgrid = grid.frequency_grid()
    on_grid = f"on the grid of {grid.n} samples at dt = {grid.dt:.4g} ps"
    if not np.isfinite(fgrid.domega):
        raise GridResolutionError(f"the detuning axis overflows the float range {on_grid}")
    w = fgrid.omegas
    with np.errstate(over="ignore"):  # an exponent past the float range is exp(-inf) = 0; a phase is refused
        if shape == "gaussian":
            # spectral intensity FWHM = width
            mag = np.exp(-2.0 * np.log(2.0) * (w / width) ** 2)
        else:
            mag = (np.abs(w) <= width / 2.0).astype(float)
        phase = 0.5 * quadratic_spectral_phase * w**2 if quadratic_spectral_phase else 0.0
    if not np.all(np.isfinite(phase)):
        raise GridResolutionError(f"spectral phase curvature {quadratic_spectral_phase:g} ps^2 puts the phase past "
                                  f"the float range on this grid, whose |omega| reaches {np.max(np.abs(w)):.4g} 1/ps")
    spec = SpectralEnvelope(grid=fgrid, samples=mag * np.exp(1j * phase))
    env = inverse_transform(spec)
    with np.errstate(over="ignore"):  # an energy past the float range is inf, refused below
        energy = env.energy()
    if not 0 < energy < np.inf:
        raise GridResolutionError(f"synthesized pulse energy {energy:g} is not positive and finite {on_grid}")
    env.samples = env.samples / np.sqrt(energy)
    return env


def _transform_limited_duration(shape: str, bandwidth: float | None, duration: float | None) -> float:
    """Intensity FWHM (ps) of the transform-limited pulse: ``duration`` as
    given, else the shape's time-bandwidth product over ``bandwidth``."""
    if duration is not None:
        return float(duration)
    return _TBP[shape] / float(bandwidth)


def wavelength_bandwidth_to_frequency(lambda0_nm: float, delta_lambda_nm: float) -> float:
    """Convert a wavelength FWHM to a frequency FWHM, ``c*dlambda/lambda0**2``.

    The result is a plain frequency in cycles/ps (THz), not rad/ps; on the
    detuning axis the same width is ``2*pi`` times larger.
    """
    _require(_POSITIVE, "center wavelength", lambda0_nm)
    _require(_NON_NEGATIVE, "bandwidth", delta_lambda_nm)
    return C_NM_PER_PS * delta_lambda_nm / lambda0_nm**2


def moment_centroid(x: np.ndarray, weights: np.ndarray) -> float:
    """First moment of a non-negative sample distribution."""
    total = float(np.sum(weights))
    if total <= 0:
        raise ValueError("cannot take the centroid of a non-positive distribution")
    return float(np.sum(x * weights) / total)


def _half_crossings(x: np.ndarray, y: np.ndarray, half: float):
    """All (left, right) linearly interpolated half-maximum crossing pairs;
    a curve already above half at an end crosses at that end's sample."""
    above = y >= half
    edges = np.flatnonzero(above[1:] != above[:-1]) + 1
    up = edges[above[edges]]
    down = edges[~above[edges]]
    f = (half - y[up - 1]) / (y[up] - y[up - 1])
    lefts = x[up - 1] + f * (x[up] - x[up - 1])
    f = (y[down - 1] - half) / (y[down - 1] - y[down])
    rights = x[down - 1] + f * (x[down] - x[down - 1])
    if above[0]:
        lefts = np.concatenate((x[:1], lefts))
    if above[-1]:
        rights = np.concatenate((rights, x[-1:]))
    return list(zip(lefts.tolist(), rights.tolist()))


def interpolated_fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """FWHM with linear interpolation between samples.

    Raises ValueError if the curve has no positive peak, and
    AmbiguousWidthError, which holds every crossing pair, if the half level
    is crossed more than once.
    """
    y = np.asarray(y, dtype=float)
    peak = float(np.max(y))
    if peak <= 0:
        raise ValueError("cannot measure the width of a non-positive curve")
    pairs = _half_crossings(np.asarray(x, dtype=float), y, peak / 2.0)
    if not pairs:
        raise ValueError("curve never reaches half maximum")
    if len(pairs) > 1:
        raise AmbiguousWidthError(
            f"found {len(pairs)} half-maximum crossing pairs, the first {pairs[0]} and the last {pairs[-1]}",
            candidates=pairs,
        )
    left, right = pairs[0]
    return right - left
