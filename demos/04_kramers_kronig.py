"""Kramers-Kronig reconstruction of dispersion from absorption data.

First validates the principal-value Hilbert transform against the
closed-form doublet, then ingests the bundled KTP-style two-line
absorption spectrum (truncated at 758-778 nm like a real measurement,
hence the edge taper) and reports the reconstructed window-center delay.
Writes the reconstructed susceptibility under demo_out/.
"""

import os

import numpy as np

import slowlight as sl
from slowlight import io
from slowlight.data import ktp_absorption_path

GAMMA, DELTA, D0 = 1.0, 6.8, 2.5
K0, LENGTH = 2 * np.pi / 765e-6, 30.0

span = 2 * 20 * DELTA
grid = sl.TimeGrid(t_start=0.0, dt=2 * np.pi / span, n=2**14).frequency_grid()
medium = sl.from_target_depth(D0, GAMMA, DELTA, K0, LENGTH)

depth = sl.OpticalDepthSpectrum(grid=grid, depth=K0 * LENGTH * sl.chi(medium, grid.omegas).imag)
chi = sl.kk_real_from_imag(depth, K0, LENGTH)
exact = sl.chi(medium, grid.omegas)
err = np.max(np.abs(chi.values.real - exact.real)) / np.max(np.abs(exact.real))
tau = sl.group_delay_from_susceptibility(chi, K0, LENGTH)
print("analytic doublet check:")
print(f"  Re-chi reconstruction error: {err:.2%} of peak")
print(f"  reconstructed delay {tau:.5f} ps vs analytic {sl.group_delay(medium):.5f} ps")

print("\nmeasured-style two-line data (truncated coverage, edge taper on):")
wavelengths, values, kind = io.read_absorption_csv(ktp_absorption_path())
measured = sl.ingest_absorption(
    (wavelengths, values),
    center_wavelength_nm=765.85,
    target_grid=grid,
    force_taper=True,
    absorption=(kind == "absorption"),
)
chi_measured = sl.kk_real_from_imag(measured, K0, LENGTH)
tau_measured = sl.group_delay_from_susceptibility(chi_measured, K0, LENGTH)
print(f"  peak optical depth: {np.max(measured.depth):.3f}")
print(f"  reconstructed window-center delay: {tau_measured:.4f} ps")

os.makedirs("demo_out", exist_ok=True)
io.write_susceptibility_csv("demo_out/kk_susceptibility.csv", grid, chi_measured.values)
print("wrote demo_out/kk_susceptibility.csv")
