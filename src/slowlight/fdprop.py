"""Frequency-domain linear propagation through an arbitrary susceptibility.

With a control field of fixed intensity the medium acts as the transfer
function H(w) = exp(i * k0 * L * chi(w) / 2); the vacuum transit phase
exp(i * w * L / c) is a pure common delay and is excluded, so every
reported delay is a control-on/off difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kramers_kronig import Susceptibility
from .medium import RamanMedium, chi as medium_chi
from .spectral import (
    ComplexEnvelope,
    FrequencyGrid,
    TimeGrid,
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
    if k0 <= 0 or length_mm <= 0:
        raise ValueError(f"k0 and length must be positive, got ({k0}, {length_mm})")
    return TransferFunction(grid=chi.grid, values=np.exp(0.5j * k0 * length_mm * chi.values))


def _model_transfer(medium: RamanMedium, grid: FrequencyGrid) -> TransferFunction:
    """The fixed-intensity transfer of the two-line model on ``grid``."""
    return transfer_function(susceptibility_from_medium(medium, grid), medium.k0, medium.length_mm)


def propagate(env: ComplexEnvelope, H: TransferFunction) -> ComplexEnvelope:
    """Apply H in the detuning domain: inverse(H * forward(env))."""
    if H.grid.time_grid != env.grid:
        raise ValueError("transfer function and envelope live on different grids")
    spec = forward_transform(env)
    spec.samples = spec.samples * H.values
    return inverse_transform(spec)


def propagate_causal(env: ComplexEnvelope, medium: RamanMedium) -> ComplexEnvelope:
    """The model's linear, not circular, response to the windowed envelope:
    zero-pad it to 2n samples on the same dt, propagate through the model
    transfer on that grid and crop back to the window (Oppenheim & Schafer,
    "Discrete-Time Signal Processing", ch. 8).  This is what a causal
    time-domain solve from the window start computes."""
    grid = env.grid
    padded = TimeGrid(t_start=grid.t_start, dt=grid.dt, n=2 * grid.n)
    samples = np.concatenate((env.samples, np.zeros(grid.n, dtype=complex)))
    transfer = _model_transfer(medium, padded.frequency_grid())
    out = propagate(ComplexEnvelope(grid=padded, samples=samples), transfer)
    return ComplexEnvelope(grid=grid, samples=out.samples[: grid.n])


def output_spectra(env: ComplexEnvelope, H: TransferFunction):
    """Intensity spectra with the control on and off: (|S*H|^2, |S|^2)."""
    if H.grid.time_grid != env.grid:
        raise ValueError("transfer function and envelope live on different grids")
    spec = forward_transform(env)
    off = np.abs(spec.samples) ** 2
    on = np.abs(spec.samples * H.values) ** 2
    return on, off
