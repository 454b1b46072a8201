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

The z-march is explicit midpoint (second order).  Each source evaluation
solves the stiff coherence ODEs over the whole tau grid with an
exponential integrator on the rotated variables R = Q e^{-+i Delta tau/2},
whose decay constant Gamma +- i*Delta/2 absorbs both the damping and the
two-photon beat exactly; only the slowly-varying drive Ec* E is linearly
interpolated.  The recurrence R_k = e R_{k-1} + x_k runs as a doubling scan
(Hillis & Steele 1986) on work arrays allocated once per solve.

``solve`` marches a given number of z steps; ``solve_converged`` chooses
it from a Richardson estimate of the z error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import delay_and_loss, relative_l2_error
from .errors import AmbiguousWidthError, GridResolutionError
from .medium import RamanMedium, chi as medium_chi
from .spectral import ComplexEnvelope, TimeGrid, interpolated_fwhm

_WEAK_SIGNAL_COHERENCE_LIMIT = 0.1
_MAX_STEP_PHASE = 0.1
_SCAN_CUTOFF = 1e-18  # the doubling scan stops once |e^k| falls below this
_POWER_BITS = 120  # fixed-point precision of the squarings behind e^k
_Z_TOLERANCE = 1e-5  # relative L2 z error that solve_converged aims below


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

    def amplitude(self, n: int) -> np.ndarray:
        amp = math.sqrt(self.intensity)
        if self.envelope is None:
            return np.full(n, amp, dtype=complex)
        if self.envelope.shape != (n,):
            raise ValueError(
                f"control envelope has {self.envelope.shape} samples, grid has {n}"
            )
        return amp * self.envelope


@dataclass
class SolverSettings:
    nz: int = 256  # the step count of solve, the ceiling of solve_converged

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
    """``nz`` is the step count used and ``nz_needed`` the fewest the
    step-phase limit allows; ``z_error_estimate`` is the Richardson estimate
    of the relative L2 z error of ``output`` (nan from a single solve)."""

    output: ComplexEnvelope
    coherences: CoherenceState
    warnings: list = field(default_factory=list)
    nz: int = 0
    nz_needed: int = 0
    z_error_estimate: float = math.nan


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


def _max_chi_magnitude(medium: RamanMedium, grid: TimeGrid) -> float:
    w = grid.frequency_grid().omegas
    return float(np.max(np.abs(medium_chi(medium, w))))


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
    chi_max = _max_chi_magnitude(medium, pulse.grid)
    nz_needed = math.ceil(medium.k0 * chi_max * medium.length_mm / (2.0 * _MAX_STEP_PHASE))
    step_phase = medium.k0 * chi_max * medium.length_mm / (2.0 * settings.nz)
    if step_phase >= _MAX_STEP_PHASE:
        raise GridResolutionError(
            f"per-step phase {step_phase:.3g} exceeds {_MAX_STEP_PHASE}; "
            f"need nz >= {nz_needed} (got {settings.nz})"
        )
    return nz_needed


def solve(
    medium: RamanMedium,
    control: ControlField,
    pulse: ComplexEnvelope,
    settings: SolverSettings | None = None,
) -> SolveResult:
    """March the signal envelope from z = 0 to z = L.

    The control field propagates undepleted; both Raman populations stay
    fixed (weak-signal regime).  A warning is attached if the coherence
    amplitudes grow beyond 0.1 in the field units of the input.
    """
    settings = settings or SolverSettings()
    medium = medium.with_control_intensity(control.intensity)
    nz_needed = _validate_resolution(medium, pulse, settings)

    grid = pulse.grid
    n, dt = grid.n, grid.dt
    tau = grid.times

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

    # work arrays, updated in place by every source evaluation
    r31, r21, drive, shifted, slope, trial = (np.empty(n, dtype=complex) for _ in range(6))
    magnitude = np.empty(n)
    max_coherence = 0.0

    def source(e_field: np.ndarray):
        """dE/dz into slope; the coherences stay in r31 and r21."""
        nonlocal max_coherence
        for r, drive_coeff, weights in ((r31, drive_hi, weights_hi), (r21, drive_lo, weights_lo)):
            _coherence_scan(np.multiply(drive_coeff, e_field, out=drive), weights, r, shifted)
            max_coherence = max(max_coherence, float(np.max(np.abs(r, out=magnitude))))
        np.add(np.multiply(emit_hi, r31, out=slope), np.multiply(emit_lo, r21, out=drive), out=slope)

    dz = medium.length_mm / settings.nz
    e_field = pulse.samples.copy()
    for _ in range(settings.nz):
        source(e_field)
        source(np.add(e_field, np.multiply(0.5 * dz, slope, out=trial), out=trial))
        e_field += np.multiply(dz, slope, out=trial)

    source(e_field)
    rot = np.exp(0.5j * medium.splitting * tau)  # e^{+i Delta tau / 2}
    q31 = r31 * rot
    q21 = r21 * np.conj(rot)

    warnings = []
    if max_coherence > _WEAK_SIGNAL_COHERENCE_LIMIT:
        warnings.append(
            f"coherence amplitude reached {max_coherence:.3g} (> "
            f"{_WEAK_SIGNAL_COHERENCE_LIMIT}); the weak-signal assumption may not hold "
            "in these field units"
        )
    if control.envelope is not None:
        warnings.extend(_control_duration_warning(control, pulse))

    return SolveResult(
        output=ComplexEnvelope(grid=grid, samples=e_field),
        coherences=CoherenceState(q21=q21, q31=q31),
        warnings=warnings,
        nz=settings.nz,
        nz_needed=nz_needed,
    )


def solve_converged(
    medium: RamanMedium,
    control: ControlField,
    pulse: ComplexEnvelope,
    settings: SolverSettings | None = None,
) -> SolveResult:
    """``solve`` at the first nz whose Richardson error estimate (Hairer,
    Norsett & Wanner, "Solving ODEs I", sec. II.4) is below _Z_TOLERANCE.

    nz starts at the smallest power of two >= max(16, nz_needed) and
    doubles up to the ceiling ``settings.nz``; the midpoint march is second
    order, so at step ratio r the finer solve's error is about
    ||E_fine - E_coarse|| / ((r^2 - 1) ||E_fine||).  Reaching the ceiling
    above the tolerance adds a warning."""
    settings = settings or SolverSettings()
    ceiling = settings.nz
    nz_needed = _validate_resolution(medium.with_control_intensity(control.intensity), pulse, settings)
    nz = min(ceiling, 1 << (max(16, nz_needed) - 1).bit_length())
    fine = solve(medium, control, pulse, SolverSettings(nz))
    while nz < ceiling:
        coarse, nz = fine, min(2 * nz, ceiling)
        fine = solve(medium, control, pulse, SolverSettings(nz))
        ratio = nz / coarse.nz
        fine.z_error_estimate = relative_l2_error(coarse.output, fine.output) / (ratio**2 - 1.0)
        if fine.z_error_estimate < _Z_TOLERANCE:
            return fine
    fine.warnings.append(
        f"z error estimate {fine.z_error_estimate:.3g} is not below {_Z_TOLERANCE} "
        f"at the nz ceiling {ceiling}; raise [solver] nz"
    )
    return fine


def _control_duration_warning(control: ControlField, pulse: ComplexEnvelope):
    try:
        sig_fwhm = pulse.intensity_fwhm()
        ctrl_fwhm = interpolated_fwhm(pulse.grid.times, np.abs(control.envelope) ** 2)
    except (ValueError, AmbiguousWidthError):
        return []  # multi-lobed profiles: no meaningful single width to compare
    if ctrl_fwhm < 4.0 * sig_fwhm:
        return [
            f"control intensity FWHM {ctrl_fwhm:.3g} ps is not long compared to the "
            f"signal ({sig_fwhm:.3g} ps); the fixed-intensity picture may not apply"
        ]
    return []


def delay_vs_control_scan(
    medium: RamanMedium,
    control_intensities,
    pulse: ComplexEnvelope,
    settings: SolverSettings | None = None,
) -> list[ScanPoint]:
    """First-moment delay and loss versus (constant) control intensity.

    Each point is an independent ``solve_converged``, measured against the
    input by ``analysis.delay_and_loss``: the intensity-centroid shift and
    the energy ratio in dB.  Each point keeps the warnings of its solve.
    """
    points = []
    for i in control_intensities:
        result = solve_converged(medium, ControlField.constant(i), pulse, settings)
        points.append(ScanPoint(float(i), *delay_and_loss(pulse, result.output), tuple(result.warnings)))
    return points
