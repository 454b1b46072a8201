"""The time-domain Maxwell-Bloch solve against the frequency-domain
solution.

With a fixed-intensity control the linear-response transfer function is
exact, so ``solve`` returns the FD output itself.  The Taylor march that
serves shaped controls takes the same exponent, i k0 chi / 2 per unit
length, over the window as one period, so run under an envelope of ones
it must reproduce that output.  The demo shows its relative L2 gap to the
FD output at three depths, which is rounding (about 5e-16) and is what the
CLI reports as ``metrics.td_fd_l2_error``; the substeps and applications
of the z operator that ``solve`` takes to sum the Taylor series of
exp(L A) E under a shaped control; and the validity of the
near-constant-control approximation for a long flat-topped control pulse.
"""

import numpy as np

import slowlight as sl

GAMMA, DELTA = 1.0, 6.8
K0, LENGTH = 2 * np.pi / 765e-6, 30.0

grid = sl.TimeGrid.centered(2**14, 0.06)
signal = sl.synthesize_pulse("flat_top_spectrum", grid, bandwidth=1.8)


def l2(a, b):
    return np.sqrt(np.sum(np.abs(a - b) ** 2) / np.sum(np.abs(b) ** 2))


print("constant control, the Taylor march under an envelope of ones:")
ones = sl.ControlField(intensity=1.0, envelope=np.ones(grid.n))
for d0 in (0.5, 1.0, 2.5):
    medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
    chi = sl.susceptibility_from_medium(medium, grid.frequency_grid())
    fd = sl.propagate(signal, sl.transfer_function(chi, K0, LENGTH))
    march = sl.solve(medium, ones, signal).output
    print(
        f"  d0 = {d0:3.1f}: gap to the FD output {l2(march.samples, fd.samples):.2e}, "
        f"delay march {march.centroid() - signal.centroid():.10f} ps "
        f"vs FD {fd.centroid() - signal.centroid():.10f} ps"
    )

print("\nTaylor series of exp(L A) E under a 60-ps Gaussian control, exact in z (gaussian probe):")
probe_grid = sl.TimeGrid.centered(2**13, 0.03)
probe = sl.synthesize_pulse("gaussian", probe_grid, duration=2.0)
control = sl.ControlField.gaussian(probe_grid, 60.0, 1.0)
applications = 0
apply = sl.tdprop._apply


def counted_apply(*args):
    """One application of A by the solve, counted."""
    global applications
    applications += 1
    return apply(*args)


sl.tdprop._apply = counted_apply
for d0 in (0.5, 1.0, 2.5):
    depth_medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
    applications = 0
    result = sl.solve(depth_medium, control, probe)
    print(
        f"  d0 = {d0:3.1f}: {result.nz} substep(s) (nz_needed = {result.nz_needed} equal steps of phase < 0.1), "
        f"{applications} applications of A, last term {result.z_error_estimate:.1e}"
    )
sl.tdprop._apply = apply

print("\n4-ps flat-topped control vs constant control (0.65-ps signal):")
short_grid = sl.TimeGrid.centered(2**13, 0.02)
short = sl.synthesize_pulse("gaussian", short_grid, duration=0.65)
const = sl.solve(medium, sl.ControlField.constant(1.0), short).output
shaped = sl.solve(
    medium, sl.ControlField.flat_top(short_grid, fwhm_ps=4.0, intensity=1.0), short
).output
print(f"  field difference: {l2(shaped.samples, const.samples):.2e}")
