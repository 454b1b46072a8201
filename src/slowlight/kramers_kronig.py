"""Kramers-Kronig reconstruction: recover the dispersive (real) part of a
susceptibility from an absorption spectrum via a numerical principal-value
Hilbert transform, plus ingestion of wavelength-domain absorption data.

The PV integral

    Re chi(w) = (1/pi) PV int Im chi(w') / (w' - w) dw'

is evaluated as a discrete Hilbert transform: multiply the conjugate-
domain transform by i*sign and transform back, on a zero-padded grid so
the circular convolution never wraps into the data.  A direct PV sum with
singular-point exclusion lives in the tests as the slow oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationRiskError
from .spectral import C_NM_PER_PS, FrequencyGrid, _grid_array

_EDGE_DECAY_FRACTION = 0.01
_TAPER_FRACTION = 0.05
_PAD_FACTOR = 16


@dataclass
class OpticalDepthSpectrum:
    """Dimensionless optical depth d(w) = alpha(w)*L on a detuning grid."""

    grid: FrequencyGrid
    depth: np.ndarray
    center_wavelength_nm: float

    def __post_init__(self):
        self.depth = _grid_array(self.grid, self.depth, float)
        if np.any(self.depth < 0):
            raise ValueError("optical depth must be non-negative everywhere")


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
    length_mm: float,
    target_grid: FrequencyGrid,
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
    """
    if length_mm <= 0:
        raise ValueError(f"length must be positive, got {length_mm}")
    if center_wavelength_nm <= 0:
        raise ValueError(f"center wavelength must be positive, got {center_wavelength_nm}")
    wl, values = records
    lam, depth = _records_to_depth(wl, values, absorption)

    nu = C_NM_PER_PS / lam - C_NM_PER_PS / center_wavelength_nm
    order = np.argsort(nu)
    nu, depth = nu[order], depth[order]

    peak = float(np.max(depth))
    if peak > 0:
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
    if force_taper and peak > 0:
        width = _TAPER_FRACTION * (w[-1] - w[0])
        for end, lo, hi in ((0, nu[0] - width, nu[0]), (-1, nu[-1], nu[-1] + width)):
            zone = (w > lo) & (w < hi)
            d[zone] = depth[end] * 0.5 * (1.0 + np.cos(np.pi * np.abs(w[zone] - nu[end]) / width))
    return OpticalDepthSpectrum(grid=target_grid, depth=d, center_wavelength_nm=center_wavelength_nm)


def hilbert_transform(f: np.ndarray, pad_factor: int = _PAD_FACTOR) -> np.ndarray:
    """Discrete principal-value Hilbert transform on a uniform grid,

        g(w) = (1/pi) PV int f(w') / (w' - w) dw'

    computed by conjugate-domain multiplication with i*sign on a grid
    zero-padded by ``pad_factor``.
    """
    f = np.asarray(f, dtype=float)
    n = f.size
    m = pad_factor * n
    padded = np.zeros(m)
    padded[:n] = f
    kernel = np.zeros(m, dtype=complex)
    kernel[1 : m // 2] = 1j
    kernel[m // 2 + 1 :] = -1j
    g = np.fft.ifft(np.fft.fft(padded) * kernel).real
    return g[:n]


def kk_real_from_imag(depth: OpticalDepthSpectrum, k0: float, length_mm: float) -> Susceptibility:
    """Susceptibility from an optical-depth spectrum: Im from the depth,
    Re from the Kramers-Kronig (PV Hilbert) transform of Im."""
    if k0 <= 0 or length_mm <= 0:
        raise ValueError(f"k0 and length must be positive, got ({k0}, {length_mm})")
    d = depth.depth
    peak = float(np.max(d)) if d.size else 0.0
    if peak == 0.0:
        return Susceptibility(grid=depth.grid, values=np.zeros(depth.grid.n, dtype=complex))
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
