"""Cross-correlation delay metrics, the way the experiment reads them out.

Propagates the signal with the control on and off, cross-correlates both
outputs against a short Gaussian gate, and extracts the first-moment
delay, the correlation FWHM, and the deconvolved signal duration.
"""

import os

import numpy as np

import slowlight as sl
from slowlight import io

GAMMA, DELTA = 1.0, 6.8
K0, LENGTH = 2 * np.pi / 765e-6, 30.0

# depth chosen so the window-center absorption is 35%
d0 = -np.log(0.65) * (GAMMA**2 + DELTA**2 / 4) / (2 * GAMMA**2)
medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
print(f"d0 = {d0:.4f} (35% window-center absorption), "
      f"predicted delay {sl.group_delay(medium):.4f} ps")

grid = sl.TimeGrid.centered(2**14, 0.01)
signal = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=1.8)
chi = sl.susceptibility_from_medium(medium, grid.frequency_grid())
delayed = sl.propagate(signal, sl.transfer_function(chi, K0, LENGTH))

curve_on = sl.cross_correlate(delayed, 0.160)  # a 160-fs Gaussian gate
curve_off = sl.cross_correlate(signal, 0.160)

mean_delay = sl.first_moment_delay(curve_on, curve_off)
width = sl.fwhm(curve_off)
print(f"first-moment delay (on - off): {mean_delay:.4f} ps")
print(f"cross-correlation FWHM (off):  {width:.4f} ps")
print(f"deconvolved signal duration:   {sl.deconvolve_duration(width, 0.160):.4f} ps")

os.makedirs("demo_out", exist_ok=True)
io.write_correlation_csv("demo_out/xcorr_on.csv", curve_on)
io.write_correlation_csv("demo_out/xcorr_off.csv", curve_off)
print("wrote demo_out/xcorr_on.csv, demo_out/xcorr_off.csv")
