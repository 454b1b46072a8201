"""Frequency-domain linear propagation through an arbitrary susceptibility.

With a control field of fixed intensity the medium acts as the transfer
function H(w) = exp(i * k0 * L * chi(w) / 2); the vacuum transit phase
exp(i * w * L / c) is a pure common delay and is excluded, so every
reported delay is a control-on/off difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _POSITIVE, _require
from .kramers_kronig import Susceptibility
from .medium import RamanMedium, chi as medium_chi
from .spectral import (
    ComplexEnvelope,
    FrequencyGrid,
    SpectralEnvelope,
    _grid_array,
    forward_transform,
    inverse_transform,
)


@dataclass
class TransferFunction:
    """Complex single-pass transfer function H(w) on the signal grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _grid_array(self.grid, self.values, complex)

    def center_transmission(self) -> float:
        """Intensity transmission |H(0)|^2 at zero detuning."""
        return float(np.abs(self.values[self.grid.zero_index]) ** 2)


def susceptibility_from_medium(medium: RamanMedium, grid: FrequencyGrid) -> Susceptibility:
    """Sample the closed-form two-line susceptibility onto a grid."""
    return Susceptibility(grid=grid, values=medium_chi(medium, grid.omegas))


def transfer_function(chi: Susceptibility, k0: float, length_mm: float) -> TransferFunction:
    _require(_POSITIVE, "k0", k0)
    _require(_POSITIVE, "length", length_mm)
    return TransferFunction(grid=chi.grid, values=np.exp(0.5j * k0 * length_mm * chi.values))


def propagate(env: ComplexEnvelope, H: TransferFunction) -> ComplexEnvelope:
    """Apply H in the detuning domain: inverse(H * forward(env)).  Where every
    value of H is exactly 1, the input itself, so a medium that does nothing
    adds no rounding."""
    return _through(env, forward_transform(env), H)


def _through(env: ComplexEnvelope, spectrum: SpectralEnvelope, H: TransferFunction) -> ComplexEnvelope:
    """``propagate`` of ``env`` whose forward transform ``spectrum`` is already held."""
    if H.grid.time_grid != env.grid:
        raise ValueError("transfer function and envelope live on different grids")
    if np.all(H.values == 1.0):
        return ComplexEnvelope(grid=env.grid, samples=env.samples.copy())
    return inverse_transform(SpectralEnvelope(grid=spectrum.grid, samples=spectrum.samples * H.values))


def output_spectra(env: ComplexEnvelope, H: TransferFunction):
    """Intensity spectra with the control on and off: (|S*H|^2, |S|^2)."""
    if H.grid.time_grid != env.grid:
        raise ValueError("transfer function and envelope live on different grids")
    spec = forward_transform(env)
    off = np.abs(spec.samples) ** 2
    on = np.abs(spec.samples * H.values) ** 2
    return on, off
