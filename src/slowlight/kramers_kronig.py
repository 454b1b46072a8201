"""Kramers-Kronig reconstruction: recover the dispersive (real) part of a
susceptibility from an absorption spectrum via a numerical principal-value
Hilbert transform, plus ingestion of wavelength-domain absorption data.

The PV integral

    Re chi(w) = (1/pi) PV int Im chi(w') / (w' - w) dw'

is evaluated as a discrete Hilbert transform: multiply the conjugate-
domain transform by i*sign and transform back, on a zero-padded grid so
the circular convolution never wraps into the data.  That operator is
applied as a short convolution with its closed-form kernel, the
even-length discrete Hilbert kernel -(2/m) cot(pi k/m) at odd lags, so
the padding factor must be even.  A direct PV sum with singular-point
exclusion lives in the tests as the slow oracle, and the padded
transform pair as the oracle of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _POSITIVE, GridResolutionError, TruncationRiskError, _require
from .spectral import C_NM_PER_PS, FrequencyGrid, _grid_array

_EDGE_DECAY_FRACTION = 0.01
_TAPER_FRACTION = 0.05
_PAD_FACTOR = 16
_EVEN_PAD = ("an even integer >= 2", lambda value: value >= 2 and value % 2 == 0)
_MIN_RECORD_SAMPLES = 32  # across the records; the KTP delay reads 0.1490 ps at 19, 0.1471 at 39, 0.1466 at 613


@dataclass
class OpticalDepthSpectrum:
    """Dimensionless optical depth d(w) = alpha(w)*L on a detuning grid."""

    grid: FrequencyGrid
    depth: np.ndarray

    def __post_init__(self):
        self.depth = _grid_array(self.grid, self.depth, float)
        if not np.all((self.depth >= 0) & (self.depth < np.inf)):
            raise ValueError("optical depth must be non-negative and finite everywhere")


@dataclass
class Susceptibility:
    """Complex chi(w) sampled on a detuning grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _grid_array(self.grid, self.values, complex)


def _records_to_depth(wavelengths_nm, values, absorption: bool):
    lam = np.asarray(wavelengths_nm, dtype=float)
    val = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.shape != val.shape or lam.size < 2:
        raise ValueError("need matching 1-d wavelength/value arrays with >= 2 records")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(val))):
        raise ValueError("every wavelength and value must be finite")
    if np.any(lam <= 0):
        raise ValueError("wavelengths must be positive")
    dl = np.diff(lam)
    if not (np.all(dl > 0) or np.all(dl < 0)):
        raise ValueError("wavelengths must be strictly monotonic")
    if absorption:
        if np.any(val >= 1.0):
            raise ValueError("fractional absorption A >= 1 is unrepresentable as a depth")
        if np.any(val < 0.0):
            raise ValueError("fractional absorption must be non-negative")
        depth = -np.log1p(-val)
    else:
        if np.any(val < 0.0):
            raise ValueError("optical depth must be non-negative")
        depth = val
    return lam, depth


def ingest_absorption(
    records,
    center_wavelength_nm: float,
    target_grid: FrequencyGrid,
    *,
    force_taper: bool = False,
    absorption: bool = True,
) -> OpticalDepthSpectrum:
    """Map measured (wavelength, absorption) records onto a detuning grid.

    Converts wavelength to frequency detuning about ``center_wavelength_nm``,
    maps fractional absorption A to depth d = -ln(1 - A) (or takes depth
    directly with ``absorption=False``), linearly interpolates onto the
    grid and zero-pads outside the measured range.

    Records whose endpoints have not decayed below 1% of the peak depth are
    rejected as a truncation risk; with ``force_taper`` a raised-cosine
    roll-off to zero is appended over 5% of the grid span at each end.
    Records with positive depth none of which reaches the grid are refused,
    and GridResolutionError is raised when fewer than 32 grid samples fall
    inside their detuning range.
    """
    _require(_POSITIVE, "center wavelength", center_wavelength_nm)
    wl, values = records
    lam, depth = _records_to_depth(wl, values, absorption)

    nu = C_NM_PER_PS / lam - C_NM_PER_PS / center_wavelength_nm
    order = np.argsort(nu)
    nu, depth = nu[order], depth[order]

    peak = float(np.max(depth))
    edge = max(depth[0], depth[-1])
    if edge > _EDGE_DECAY_FRACTION * peak and not force_taper:
        raise TruncationRiskError(
            f"measured depth at the record edges is {edge:.3g} "
            f"({edge / peak:.1%} of peak); the PV integral would be corrupted. "
            "Re-measure with wider coverage or enable the edge taper."
        )

    w = target_grid.omegas
    d = np.interp(w, nu, depth, left=0.0, right=0.0)
    # sharp cliffs at the measured-range ends corrupt the transform as badly
    # as grid-edge truncation, so the taper rolls the ends down to zero
    if force_taper:
        width = _TAPER_FRACTION * (w[-1] - w[0])
        for end, lo, hi in ((0, nu[0] - width, nu[0]), (-1, nu[-1], nu[-1] + width)):
            zone = (w > lo) & (w < hi)
            d[zone] = depth[end] * 0.5 * (1.0 + np.cos(np.pi * np.abs(w[zone] - nu[end]) / width))
    if peak > 0 and not d.any():
        raise ValueError(
            f"no record with positive depth falls on the grid: the records lie at detunings "
            f"{nu[0]:.4g} to {nu[-1]:.4g} 1/ps, the grid spans {w[0]:.4g} to {w[-1]:.4g} 1/ps"
        )
    inside = int(np.count_nonzero((w >= nu[0]) & (w <= nu[-1])))
    if peak > 0 and inside < _MIN_RECORD_SAMPLES:
        raise GridResolutionError(
            f"only {inside} of n = {target_grid.n} grid samples (span {target_grid.n * target_grid.domega:.4g} 1/ps) "
            f"fall inside the records' detunings {nu[0]:.4g} to {nu[-1]:.4g} 1/ps; "
            f"a converged delay needs at least {_MIN_RECORD_SAMPLES}: raise n or narrow the span"
        )
    return OpticalDepthSpectrum(grid=target_grid, depth=d)


def hilbert_transform(f: np.ndarray, pad_factor: int = _PAD_FACTOR) -> np.ndarray:
    """Discrete principal-value Hilbert transform on a uniform grid,

        g(w) = (1/pi) PV int f(w') / (w' - w) dw'

    defined by conjugate-domain multiplication with i*sign on a grid
    zero-padded to m = ``pad_factor`` * n samples.  That operator is a
    circular convolution with the real kernel h = Re ifft(i*sign), and
    since f is zero outside its n samples only the lags |k| < n reach the
    output, so it is computed as one linear convolution of length 2n with h
    in closed form: h[k] = -(2/m) cot(pi k/m) at odd k and 0 at even k
    (Kak, Proc. IEEE 58 (1970) 585).  That form holds for even m only, so
    ``pad_factor`` must be an even integer >= 2; then every angle pi k/m
    lies below pi/2 and cot keeps full relative precision.
    """
    _require(_EVEN_PAD, "pad factor", pad_factor)
    f = np.asarray(f, dtype=float)
    n = f.size
    m = pad_factor * n
    h = np.zeros(n)
    h[1::2] = -2.0 / m / np.tan(np.pi / m * np.arange(1, n, 2))
    kernel = np.concatenate((h, [0.0], -h[:0:-1]))  # h is odd in k
    return np.fft.irfft(np.fft.rfft(f, 2 * n) * np.fft.rfft(kernel), 2 * n)[:n]


def kk_real_from_imag(depth: OpticalDepthSpectrum, k0: float, length_mm: float) -> Susceptibility:
    """Susceptibility from an optical-depth spectrum: Im from the depth,
    Re from the Kramers-Kronig (PV Hilbert) transform of Im."""
    _require(_POSITIVE, "k0", k0)
    _require(_POSITIVE, "length", length_mm)
    d = depth.depth
    peak = float(np.max(d))
    edge = max(d[0], d[-1])
    if edge > _EDGE_DECAY_FRACTION * peak:
        raise TruncationRiskError(
            f"depth at the grid edges is {edge / peak:.1%} of peak (limit "
            f"{_EDGE_DECAY_FRACTION:.0%}); widen the grid or taper the data."
        )
    im = d / (k0 * length_mm)
    re = hilbert_transform(im)
    return Susceptibility(grid=depth.grid, values=re + 1j * im)


def group_delay_from_susceptibility(chi: Susceptibility, k0: float, length_mm: float) -> float:
    """Group delay (k0*L/2) * d Re(chi)/dw at zero detuning, the centre of the
    transparency window, by central differences."""
    idx = chi.grid.zero_index
    slope = (chi.values[idx + 1].real - chi.values[idx - 1].real) / (2.0 * chi.grid.domega)
    return 0.5 * k0 * length_mm * float(slope)
