"""Delay versus control power and the linearity diagnostic.

For ideal Lorentzian lines the induced delay is linear in the control
intensity; structure inside the transparency window adds group delay
dispersion, which bends the curve.  The scan below compares the two and
writes the time-domain scan as CSV.
"""

import os

import numpy as np

import slowlight as sl
from slowlight import io

GAMMA, DELTA = 1.0, 6.8
K0, LENGTH = 2 * np.pi / 765e-6, 30.0

grid = sl.TimeGrid.centered(2**14, 0.06)
signal = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=1.8)
intensities = list(np.linspace(0.0, 1.0, 6))

medium = sl.from_target_depth(2.5, GAMMA, DELTA, K0, LENGTH)
points = sl.delay_vs_control_scan(medium, intensities, signal)
print(f"{'intensity':>9} {'delay (ps)':>11} {'loss (dB)':>10}")
for p in points:
    print(f"{p.intensity:9.2f} {p.delay_ps:11.5f} {p.loss_db:10.4f}")
slope, residual = sl.linearity_diagnostic([(p.intensity, p.delay_ps) for p in points])
print(f"two-line medium: slope {slope:.5f} ps per unit intensity, "
      f"residual ratio {residual:.2e}")

# a third line inside the window adds curvature (GDD)
fgrid = grid.frequency_grid()
w = fgrid.omegas
structured_depth = (
    2.5 / (1 + (w - DELTA / 2) ** 2)
    + 2.0 / (1 + (w + DELTA / 2) ** 2)
    + 0.9 * 0.45**2 / (0.45**2 + (w - 1.2) ** 2)
)
chi = sl.kk_real_from_imag(
    sl.OpticalDepthSpectrum(grid=fgrid, depth=structured_depth),
    K0, LENGTH,
)
series = []
for s in intensities:
    H = sl.transfer_function(
        sl.Susceptibility(grid=fgrid, values=s * chi.values), K0, LENGTH
    )
    out = sl.propagate(signal, H)
    series.append((s, out.centroid() - signal.centroid()))
slope_s, residual_s = sl.linearity_diagnostic(series)
print(f"structured medium: slope {slope_s:.5f} ps per unit intensity, "
      f"residual ratio {residual_s:.2e}  (less linear, as expected)")

os.makedirs("demo_out", exist_ok=True)
io.write_scan_csv("demo_out/delay_vs_power.csv", points)
print("wrote demo_out/delay_vs_power.csv")
