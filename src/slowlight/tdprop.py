"""Time-domain Maxwell-Bloch propagation of a signal pulse through the
two-line Raman medium, supporting time-varying control envelopes.

The system is integrated in the retarded frame tau = t - z/c, where the
undepleted control co-propagates without dispersion and the signal obeys

    d/dtau Q31 = -Gamma3 Q31 + i k31 Ec*(tau) E(z,tau) e^{+i Delta tau / 2}
    d/dtau Q21 = -Gamma2 Q21 + i k21 Ec*(tau) E(z,tau) e^{-i Delta tau / 2}
    d/dz   E   = i Ec(tau) [ b31 Q31 e^{-i Delta tau / 2}
                           + b21 Q21 e^{+i Delta tau / 2} ]

with k_nu * b_nu = g_nu / 2, so a fixed-intensity control reproduces the
frequency-domain transfer function exp(i k0 L chi / 2) exactly and the
Gamma3 line absorbs at detuning +Delta/2 on the signal grid.

With fixed populations and an undepleted control, dE/dz = A E for one
linear A that does not depend on z.  Each application of A solves the
stiff coherence ODEs over the whole tau grid with an exponential
integrator on the rotated variables R = Q e^{-+i Delta tau/2}, whose decay
constant Gamma +- i*Delta/2 absorbs both the damping and the two-photon
beat exactly; only the slowly-varying drive Ec* E is linearly interpolated.
The recurrence R_k = e R_{k-1} + x_k runs as a doubling scan (Hillis &
Steele 1986) on work arrays allocated once per solve.

``solve`` sums the Taylor series of exp(L A) E (Al-Mohy & Higham, SIAM J.
Sci. Comput. 33 (2011) 488) over as few equal substeps as keep each one's
phase to 4, each until a term is negligible, so it is exact in z to
rounding.  Under a constant control A is proportional to the intensity,
so ``delay_vs_control_scan`` sums one series for all its one-substep
points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .analysis import delay_and_loss
from .errors import AmbiguousWidthError, GridResolutionError
from .medium import RamanMedium, chi as medium_chi
from .spectral import ComplexEnvelope, TimeGrid, interpolated_fwhm

_WEAK_SIGNAL_COHERENCE_LIMIT = 0.1
_MAX_STEP_PHASE = 0.1
_SCAN_CUTOFF = 1e-18  # the doubling scan stops once |e^k| falls below this
_POWER_BITS = 120  # fixed-point precision of the squarings behind e^k
_MAX_SUBSTEP_PHASE = 4.0  # per-substep phase of solve, so its series terms cancel little
_TERM_TOLERANCE = 1e-15  # a series term this small relative to ||E|| ends the sum
_MAX_TERMS = 60  # bounds the sum; at a phase of 4 a term is below 1e-15 by the 31st


@dataclass
class ControlField:
    """Control pulse: constant intensity or a shaped envelope.

    ``envelope`` holds a complex amplitude shape with unit peak magnitude
    (or None for constant control); the physical amplitude is
    ``sqrt(intensity) * envelope``.
    """

    intensity: float
    envelope: np.ndarray | None = None

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError(f"control intensity must be non-negative, got {self.intensity}")
        if self.envelope is not None:
            self.envelope = np.asarray(self.envelope, dtype=complex)

    @classmethod
    def constant(cls, intensity: float) -> "ControlField":
        return cls(intensity=intensity)

    @classmethod
    def gaussian(cls, grid: TimeGrid, fwhm_ps: float, intensity: float) -> "ControlField":
        """Gaussian intensity envelope with the given FWHM, centered at t = 0:
        the order-1 super-Gaussian."""
        return cls.flat_top(grid, fwhm_ps, intensity, order=1)

    @classmethod
    def flat_top(cls, grid: TimeGrid, fwhm_ps: float, intensity: float, order: int = 4) -> "ControlField":
        """Super-Gaussian (flat-topped) intensity envelope, centered at t = 0."""
        if fwhm_ps <= 0:
            raise ValueError(f"control FWHM must be positive, got {fwhm_ps}")
        t = grid.times
        amp = np.exp(-np.log(2.0) * (2.0 * t / fwhm_ps) ** (2 * order))
        return cls(intensity=intensity, envelope=amp.astype(complex))

    def amplitude(self, n: int) -> float | np.ndarray:
        """The amplitude on n samples: a scalar for constant control."""
        amp = math.sqrt(self.intensity)
        if self.envelope is None:
            return amp
        if self.envelope.shape != (n,):
            raise ValueError(
                f"control envelope has {self.envelope.shape} samples, grid has {n}"
            )
        return amp * self.envelope


@dataclass
class SolverSettings:
    """``nz`` only gates a refusal: ``solve`` refuses one below nz_needed."""

    nz: int = 256

    def __post_init__(self):
        if self.nz < 16:
            raise ValueError(f"need at least 16 z steps, got {self.nz}")


@dataclass
class CoherenceState:
    """Slowly-varying coherences over the time grid at a propagation slice."""

    q21: np.ndarray
    q31: np.ndarray


@dataclass
class SolveResult:
    """``nz`` is the substep count of the solve and ``nz_needed`` the fewest
    midpoint steps the step-phase limit allows; ``z_error_estimate`` is the
    largest last Taylor term the solve added, relative to ||E||, and
    ``peak_coherence`` the largest coherence magnitude the weak-signal
    check read."""

    output: ComplexEnvelope
    coherences: CoherenceState
    warnings: list = field(default_factory=list)
    nz: int = 0
    nz_needed: int = 0
    z_error_estimate: float = math.nan
    peak_coherence: float = 0.0


class ScanPoint(NamedTuple):
    """One row of a delay-versus-control-intensity scan, with the warnings
    of the solve behind it."""

    intensity: float
    delay_ps: float
    loss_db: float
    warnings: tuple[str, ...] = ()


def _scan_weights(gamma: complex, dt: float, n: int):
    """Weights (c_prev, c_curr, powers) of R_k = e R_{k-1} + x_k, the exact
    integral of a linearly interpolated drive d against e^{-gamma (dt - s)}
    over one step: e = e^{-gamma dt}, x_k = c_prev d_{k-1} + c_curr d_k, and
    gamma may be complex (damping plus detuning).  ``powers`` holds e^k for
    k = 1, 2, 4, ... < n while |e^k| >= _SCAN_CUTOFF, squared in fixed point:
    each is within an ulp of the exact power (double squarings drift k ulps)."""
    a = gamma * dt
    e = cmath.exp(-a)
    c_prev = (1.0 - e * (1.0 + a)) / (gamma * a)
    c_curr = (1.0 - e) / gamma - c_prev
    one = 1 << _POWER_BITS
    re, im = int(e.real * one), int(e.imag * one)
    powers = []
    while 1 << len(powers) < n and abs(complex(re, im)) >= _SCAN_CUTOFF * one:
        powers.append(complex(re / one, im / one))
        re, im = (re * re - im * im) >> _POWER_BITS, (re * im) >> (_POWER_BITS - 1)
    return c_prev, c_curr, powers


def _coherence_scan(drive: np.ndarray, weights, r: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """Solve dR/dtau = -gamma R + drive(tau) over the grid with R(0) = 0 into
    r, by a doubling scan (Hillis & Steele 1986): from r = x, add e^k times r
    shifted by k for k = 1, 2, 4, ...  ``shifted`` is scratch of the same size."""
    c_prev, c_curr, powers = weights
    r[0] = 0.0
    np.multiply(c_curr, drive[1:], out=r[1:])
    r[1:] += np.multiply(c_prev, drive[:-1], out=shifted[1:])
    for doubling, power in enumerate(powers):
        k = 1 << doubling
        r[k:] += np.multiply(power, r[:-k], out=shifted[k:])
    return r


def _max_beat_dt(splitting: float) -> float:
    """Largest time step that resolves the two-photon beat, 2*pi/(8*Delta)."""
    return 2.0 * np.pi / (8.0 * splitting)


def _validate_resolution(medium: RamanMedium, pulse: ComplexEnvelope, settings: SolverSettings):
    """The fewest z steps the per-step phase limit allows; GridResolutionError
    if dt misses the beat or settings.nz lies below that."""
    dt = pulse.grid.dt
    dt_max = _max_beat_dt(medium.splitting)
    if dt > dt_max:
        raise GridResolutionError(
            f"time step {dt:.4g} ps does not resolve the two-photon beat; "
            f"need dt <= 2*pi/(8*Delta) = {dt_max:.4g} ps"
        )
    chi_max = float(np.max(np.abs(medium_chi(medium, pulse.grid.frequency_grid().omegas))))
    nz_needed = math.ceil(medium.k0 * chi_max * medium.length_mm / (2.0 * _MAX_STEP_PHASE))
    step_phase = medium.k0 * chi_max * medium.length_mm / (2.0 * settings.nz)
    if step_phase >= _MAX_STEP_PHASE:
        raise GridResolutionError(
            f"per-step phase {step_phase:.3g} exceeds {_MAX_STEP_PHASE}; "
            f"need nz >= {nz_needed} (got {settings.nz})"
        )
    return nz_needed


def _substeps(nz_needed: int) -> int:
    """Substeps of ``solve``: each one's phase at most _MAX_SUBSTEP_PHASE."""
    return max(1, math.ceil(nz_needed * _MAX_STEP_PHASE / _MAX_SUBSTEP_PHASE))


def _march(
    medium: RamanMedium, control: ControlField, pulse: ComplexEnvelope, settings: SolverSettings,
    scales=(1.0,), midpoint: bool = False,
):
    """E(L) = exp(L A) E(0) in equal z steps, each a Taylor sum of exp(dz A)
    until a term falls to _TERM_TOLERANCE of ||E||: as many substeps as hold
    each one's phase to _MAX_SUBSTEP_PHASE or, if ``midpoint``, settings.nz
    steps of degree 2 (explicit midpoint, the z reference of the tests).
    Yields one SolveResult for each operator s A, s in ``scales``.  Several
    scales (a constant control in one substep) share one series: term m of
    A adds s^m times itself to each field until that field's own sum ends.
    Each result comes after its own closing application of A, so one set of
    coherences is alive at a time; its nz and nz_needed are those of A."""
    medium = medium.with_control_intensity(control.intensity)
    nz_needed = _validate_resolution(medium, pulse, settings)
    steps, degree = (settings.nz, 2) if midpoint else (_substeps(nz_needed), _MAX_TERMS)

    grid = pulse.grid
    n, dt = grid.n, grid.dt

    ec = control.amplitude(n)
    line_lo, line_hi = medium.lines
    # coupling split k_nu = b_nu = sqrt(g_nu / 2); only the product is physical
    k_lo = math.sqrt(line_lo.strength_per_intensity / 2.0)
    k_hi = math.sqrt(line_hi.strength_per_intensity / 2.0)
    drive_hi = 1j * k_hi * np.conj(ec)  # times E -> source of R31 = Q31 e^{-i D tau/2}
    drive_lo = 1j * k_lo * np.conj(ec)  # times E -> source of R21 = Q21 e^{+i D tau/2}
    emit_hi = 1j * k_hi * ec
    emit_lo = 1j * k_lo * ec
    weights_hi = _scan_weights(line_hi.linewidth + 0.5j * medium.splitting, dt, n)
    weights_lo = _scan_weights(line_lo.linewidth - 0.5j * medium.splitting, dt, n)

    # work arrays, updated in place by every application of A
    r31, r21, drive, shifted, term = (np.empty(n, dtype=complex) for _ in range(5))
    magnitude = np.empty(n)

    def apply(e_field: np.ndarray, out: np.ndarray) -> float:
        """A e_field into out, which may be e_field; the coherences stay in r31
        and r21, and their peak magnitude is returned."""
        for r, drive_coeff, weights in ((r31, drive_hi, weights_hi), (r21, drive_lo, weights_lo)):
            _coherence_scan(np.multiply(drive_coeff, e_field, out=drive), weights, r, shifted)
        np.add(np.multiply(emit_hi, r31, out=out), np.multiply(emit_lo, r21, out=drive), out=out)
        return max(float(np.max(np.abs(r, out=magnitude))) for r in (r31, r21))

    dz = medium.length_mm / steps
    fields = [pulse.samples.copy() for _ in scales]
    roots = [math.sqrt(s) for s in scales]  # the coherences scale with the control amplitude
    peaks, errors, last = ([0.0] * len(scales) for _ in range(3))
    for _ in range(steps):
        np.copyto(term, fields[0])  # several scales take one step, all from E(0)
        live = range(len(scales))
        for m in range(1, degree + 1):
            peak = apply(term, term)
            if m == 1:  # the weak-signal check reads the fields' coherences only
                peaks = [max(p, root * peak) for p, root in zip(peaks, roots)]
            term *= dz / m
            size = np.linalg.norm(term)
            for j in live:
                fields[j] += np.multiply(scales[j] ** m, term, out=drive)
                norm = np.linalg.norm(fields[j])  # an all-zero field has an exactly zero series
                last[j] = float(scales[j] ** m * size / norm) if norm else 0.0
            if not (live := [j for j in live if last[j] > _TERM_TOLERANCE]):
                break
        errors = [max(e, l) for e, l in zip(errors, last)]

    rot = np.exp(0.5j * medium.splitting * grid.times)  # e^{+i Delta tau / 2}
    shape_warnings = _control_duration_warning(control, pulse) if control.envelope is not None else []
    for e_field, root, peak, error in zip(fields, roots, peaks, errors):
        peak = max(peak, root * apply(e_field, term))
        warnings = [
            f"coherence amplitude reached {peak:.3g} (> "
            f"{_WEAK_SIGNAL_COHERENCE_LIMIT}), so the weak-signal assumption may not hold "
            "in these field units"
        ] if peak > _WEAK_SIGNAL_COHERENCE_LIMIT else []
        yield SolveResult(
            output=ComplexEnvelope(grid=grid, samples=e_field),
            coherences=CoherenceState(q21=r21 * (root * np.conj(rot)), q31=r31 * (root * rot)),
            warnings=warnings + shape_warnings,
            nz=steps,
            nz_needed=nz_needed,
            z_error_estimate=error,
            peak_coherence=peak,
        )


def solve(
    medium: RamanMedium,
    control: ControlField,
    pulse: ComplexEnvelope,
    settings: SolverSettings | None = None,
) -> SolveResult:
    """Propagate the signal envelope from z = 0 to z = L, exactly in z: the
    Taylor series of exp(L A) E over substeps of phase at most 4.

    The control field propagates undepleted; both Raman populations stay
    fixed (weak-signal regime).  A warning is attached if the coherence
    amplitudes grow beyond 0.1 in the field units of the input.
    ``settings.nz`` below nz_needed is refused; above it, it changes nothing.
    """
    return next(_march(medium, control, pulse, settings or SolverSettings()))


def _control_duration_warning(control: ControlField, pulse: ComplexEnvelope):
    try:
        sig_fwhm = pulse.intensity_fwhm()
        ctrl_fwhm = interpolated_fwhm(pulse.grid.times, np.abs(control.envelope) ** 2)
    except (ValueError, AmbiguousWidthError):
        return []  # multi-lobed profiles: no meaningful single width to compare
    if ctrl_fwhm < 4.0 * sig_fwhm:
        return [
            f"control intensity FWHM {ctrl_fwhm:.3g} ps is not long compared to the "
            f"signal ({sig_fwhm:.3g} ps), so the fixed-intensity picture may not apply"
        ]
    return []


def delay_vs_control_scan(
    medium: RamanMedium,
    control_intensities,
    pulse: ComplexEnvelope,
    settings: SolverSettings | None = None,
) -> list[ScanPoint]:
    """First-moment delay and loss versus (constant) control intensity.

    The operator at intensity I is I times the one at unit intensity, so the
    points that ``solve`` takes in one substep share one Taylor series,
    built once at the largest of them; the others are solved one at a time.
    Each point is refused, warned about and truncated as its own ``solve``
    would be, and measured against the input by
    ``analysis.delay_and_loss``: the intensity-centroid shift and the
    energy ratio in dB.
    """
    settings = settings or SolverSettings()
    intensities = [float(i) for i in control_intensities]
    shared = []
    for i in intensities:  # refused in order, as each point's own solve would be
        loaded = medium.with_control_intensity(ControlField.constant(i).intensity)
        if _substeps(_validate_resolution(loaded, pulse, settings)) == 1:
            shared.append(i)
    top = max(shared, default=0.0)
    scales = [i / (top or 1.0) for i in shared]
    alone = (i for i in intensities if i not in shared)
    results = chain(
        zip(shared, _march(medium, ControlField.constant(top), pulse, settings, scales)),
        ((i, solve(medium, ControlField.constant(i), pulse, settings)) for i in alone),
    )
    rows = {i: ScanPoint(i, *delay_and_loss(pulse, r.output), tuple(r.warnings)) for i, r in results}
    return [rows[i] for i in intensities]
