"""The time-domain Maxwell-Bloch solve against the frequency-domain
solution.

With a fixed-intensity control the linear-response transfer function is
exact, so the coherence solve must reproduce it; the demo shows the
relative L2 agreement at three depths (against the periodic FD solution
and against the causal one, whose zero-padded window removes the
wrap-around), the substeps and applications of the z operator that
``solve`` takes to sum exp(L A) E exactly in z, and the validity of the
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


print("constant control:")
for d0 in (0.5, 1.0, 2.5):
    medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
    chi = sl.susceptibility_from_medium(medium, grid.frequency_grid())
    fd = sl.propagate(signal, sl.transfer_function(chi, K0, LENGTH))
    causal = sl.fdprop.propagate_causal(signal, medium)
    td = sl.solve(medium, sl.ControlField.constant(1.0), signal).output
    print(
        f"  d0 = {d0:3.1f}: field error {l2(td.samples, fd.samples):.2e} "
        f"(causal FD {l2(td.samples, causal.samples):.2e}), "
        f"delay TD {td.centroid() - signal.centroid():.5f} ps "
        f"vs FD {fd.centroid() - signal.centroid():.5f} ps"
    )

print("\nTaylor series of exp(L A) E, exact in z (gaussian probe):")
probe_grid = sl.TimeGrid.centered(2**13, 0.03)
probe = sl.synthesize_pulse("gaussian", probe_grid, duration=2.0)
control = sl.ControlField.constant(1.0)
scans = 0
coherence_scan = sl.tdprop._coherence_scan


def counted_scan(*args):
    """Count the coherence scans: each application of A takes two."""
    global scans
    scans += 1
    return coherence_scan(*args)


sl.tdprop._coherence_scan = counted_scan
for d0 in (0.5, 1.0, 2.5):
    depth_medium = sl.from_target_depth(d0, GAMMA, DELTA, K0, LENGTH)
    scans = 0
    result = sl.solve(depth_medium, control, probe)
    print(
        f"  d0 = {d0:3.1f}: {result.nz} substep(s) (midpoint needs nz >= {result.nz_needed}), "
        f"{scans // 2} applications of A, last term {result.z_error_estimate:.1e}"
    )
sl.tdprop._coherence_scan = coherence_scan

print("\n4-ps flat-topped control vs constant control (0.65-ps signal):")
short_grid = sl.TimeGrid.centered(2**13, 0.02)
short = sl.synthesize_pulse("gaussian", short_grid, duration=0.65)
const = sl.solve(medium, sl.ControlField.constant(1.0), short).output
shaped = sl.solve(
    medium, sl.ControlField.flat_top(short_grid, fwhm_ps=4.0, intensity=1.0), short
).output
print(f"  field difference: {l2(shaped.samples, const.samples):.2e}")
