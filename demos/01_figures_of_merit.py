"""Closed-form figures of merit for the two-line Raman medium.

Sweeps the peak optical depth d0 and prints the induced group delay, the
loss, and the delay-bandwidth product, reproducing the headline operating
point: DBP reaches 1 near d0 = 2.5 at about 1.8 dB of loss, with roughly
0.097 ps of delay per dB.  The same closed forms take unequal lines: it
ends with the two-Lorentzian fit of the bundled KTP records, whose lines
have depths 1.6 and 2.0.
"""

import numpy as np

import slowlight as sl

GAMMA, DELTA = 1.0, 6.8        # linewidth and line splitting, 1/ps
K0 = 2 * np.pi / 765e-6        # signal carrier wavevector, rad/mm
LENGTH = 30.0                  # waveguide length, mm

print(f"medium: Gamma = {GAMMA} 1/ps, Delta = {DELTA} 1/ps, "
      f"window = {DELTA - GAMMA} 1/ps, L = {LENGTH} mm")
print(f"delay per loss (depth-independent): "
      f"{sl.delay_per_loss(GAMMA, DELTA):.5f} ps/dB\n")

print(f"{'d0':>5} {'delay (ps)':>11} {'loss (dB)':>10} {'DBP':>7}")
for d0 in np.arange(0.0, 5.01, 0.5):
    medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
    print(
        f"{d0:5.2f} {sl.group_delay(medium):11.5f} "
        f"{sl.loss_db(medium):10.4f} {sl.delay_bandwidth_product(medium):7.4f}"
    )

unit = sl.from_target_depth(1.0, GAMMA, DELTA, K0, LENGTH)
d0_unity = 1.0 / (sl.group_delay(unit) * (DELTA - GAMMA))
at_unity = sl.from_target_depth(d0_unity, GAMMA, DELTA, K0, LENGTH)
print(
    f"\nDBP = 1 at d0 = {d0_unity:.3f}: delay "
    f"{sl.group_delay(at_unity):.4f} ps, loss {sl.loss_db(at_unity):.3f} dB"
)

# unequal lines: (linewidth, coupling) of each, at depths 1.6 and 2.0
ktp = sl.RamanMedium(
    lines=(sl.RamanLine(GAMMA, 1.6 / LENGTH), sl.RamanLine(GAMMA, 2.0 / LENGTH)),
    splitting=DELTA, length_mm=LENGTH, k0=K0,
)
print(
    f"\nlines of depths 1.6 and 2.0: delay {sl.group_delay(ktp):.6f} ps, "
    f"loss {sl.loss_db(ktp):.6f} dB, DBP {sl.delay_bandwidth_product(ktp):.4f}"
)
