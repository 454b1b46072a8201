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
linear A that does not depend on z.  The window is one period, as it is
for the FD transfer function, so each coherence ODE is solved on the DFT
modes of the tau grid: a drive mode at detuning omega is answered exactly
by line nu's response s_nu(omega) = 1 / (Gamma_nu - i (omega - c_nu)),
c_nu = -+Delta/2 its centre, which ``medium`` gives chi too: the Fourier
pseudo-spectral method (Trefethen, "Spectral Methods in MATLAB", SIAM
2000).  Both lines are driven by Ec* E and emit through Ec, so
A = diag(Ec) C diag(Ec*) with C circulant (Davis, "Circulant Matrices",
1979), and under any control one application of A is Ec ifft(lambda
fft(Ec* E)), with lambda = -sum_nu (g_nu / 2) s_nu the eigenvalues of C:
i k0 chi / 2 at unit intensity, the FD exponent per unit length.

Under a constant control A is itself circulant and exp(L I lambda) is the
FD transfer function, so ``solve`` returns FD's output, through the
transfer of the chi it samples once for nz_needed too: exact in z with no
series (nz = 1), and the input bit for bit where that transfer is exactly
1.  ``_constant`` solves one constant-control point, for ``solve``, each
scan point and ``propagate``, from the input's spectrum and that point's
chi, and plans nothing: only a run that marches is planned.
Under a shaped control ``solve`` sums the Taylor series of exp(L A) E
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488) over as few equal
substeps as keep each one's phase to 4, each until a term is negligible,
so it is exact in z to rounding; in tau it errs only by the part of the
drive's spectrum past the band edge, for which its one grid rule, dt <=
2*pi/(8*Delta), is a proxy blind to the control's shape (ROADMAP item 9
gives its measured misses).  A constant control takes every grid FD takes.
The march run at a constant-control run's own amplitude on its nz_needed is
the check beside its output: its gap to FD's output is the CLI's
``metrics.td_fd_l2_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fdprop
from .analysis import delay_and_loss
from .errors import _FINITE, _NON_NEGATIVE, _POSITIVE, AmbiguousWidthError, GridResolutionError, _require
from .medium import RamanMedium, _line_responses
from .spectral import ComplexEnvelope, TimeGrid, _dft_order, forward_transform, interpolated_fwhm

_MAX_STEP_PHASE = 0.1
_MAX_SUBSTEP_PHASE = 4.0  # per-substep phase of solve, so its series terms cancel little
_TERM_TOLERANCE = 1e-15  # a series term this small relative to ||E|| ends the sum
_MAX_TERMS = 60  # bounds the sum; at a phase of 4 a term is below 1e-15 by the 31st
_MAX_SUBSTEPS = 10**9  # refused: at 0.4 ms a substep on 8 samples, over four days of solving


@dataclass
class ControlField:
    """Control pulse: constant intensity or a shaped envelope.

    ``envelope`` holds a complex amplitude shape (or None for constant
    control); the physical amplitude is ``sqrt(intensity) * envelope``, so
    ``intensity`` is the peak intensity only when the envelope's peak
    magnitude is 1, as ``flat_top`` and ``gaussian`` build it.
    """

    intensity: float
    envelope: np.ndarray | None = None

    def __post_init__(self):
        _require(_NON_NEGATIVE, "control intensity", self.intensity)
        if self.envelope is not None:
            self.envelope = np.asarray(self.envelope, dtype=complex)
            _require(_FINITE, "control envelope peak", float(np.max(np.abs(self.envelope), initial=0.0)))

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
        """Super-Gaussian (flat-topped) intensity envelope with the given FWHM,
        centered at t = 0: the amplitude exp(-(ln2 / 2) (2t / fwhm)^(2 order))."""
        _require(_POSITIVE, "control FWHM", fwhm_ps)
        with np.errstate(over="ignore"):  # an exponent past the float range is exp(-inf) = 0
            amp = np.exp(-np.log(2.0) / 2.0 * (2.0 * grid.times / fwhm_ps) ** (2 * order))
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
    """Given these, ``solve`` refuses an nz below nz_needed."""

    nz: int = 256

    def __post_init__(self):
        if self.nz < 16:
            raise ValueError(f"need at least 16 z steps, got {self.nz}")


@dataclass
class SolveResult:
    """``nz`` is the substep count of the solve, 1 under a constant control,
    which has no series, and ``nz_needed`` the fewest equal z steps whose
    phase is at most 0.1; ``z_error_estimate`` is the largest last Taylor
    term the solve added, relative to ||E|| (0 with no series), and
    ``peak_coherence`` the largest coherence magnitude read, relative to the
    split k_nu = b_nu = sqrt(g_nu / 2) (only the product is physical) and to
    the input's amplitude (unit energy in ps when synthesized): linear in that
    amplitude, and sqrt(I) times its I = 1 value where the z = 0 read peaks."""

    output: ComplexEnvelope
    warnings: list = field(default_factory=list)
    nz: int = 0
    nz_needed: int = 0
    z_error_estimate: float = math.nan
    peak_coherence: float = 0.0


class ScanPoint(NamedTuple):
    """One row of a delay-versus-control-intensity scan."""

    intensity: float
    delay_ps: float
    loss_db: float


def _max_beat_dt(splitting: float) -> float:
    """Largest time step a shaped control is marched at, 2*pi/(8*Delta): eight per beat period."""
    return 2.0 * np.pi / (8.0 * splitting)


def _validate_resolution(medium: RamanMedium, chi: np.ndarray) -> int:
    """nz_needed for ``chi`` sampled on the grid: the fewest z steps of phase at most
    _MAX_STEP_PHASE at its peak; GridResolutionError past _MAX_SUBSTEPS substeps."""
    phase = medium.k0 * float(np.max(np.abs(chi))) * medium.length_mm / 2.0  # of exp(L A)
    if not phase <= _MAX_SUBSTEPS * _MAX_SUBSTEP_PHASE:  # an infinite phase too
        raise GridResolutionError(f"the solve would take {phase / _MAX_SUBSTEP_PHASE:.3g} z substeps, "
                                  f"more than the {_MAX_SUBSTEPS:.3g} any run could finish")
    return math.ceil(phase / _MAX_STEP_PHASE)


def _symbols(medium: RamanMedium, grid: TimeGrid):
    """``(eigenvalues, coherence_symbols)`` on the DFT bins of ``grid``, which no
    control amplitude changes: lambda_j = -sum_nu (g_nu / 2) s_nu(omega_j), the
    eigenvalues of the circulant C, with s_nu = 1 / (Gamma_nu - i (omega - c_nu))
    line nu's response in medium, so lambda_j = i k0 chi(omega_j) / 2 at unit
    intensity, FD's exponent per unit length at FD's detuning omega_j of bin j;
    line nu's coherence is ifft(i k_nu s_nu spectrum) for the drive fft(conj(Ec) E)."""
    omegas = grid.frequency_grid().omegas[_dft_order(grid.n)]
    responses = list(zip((line.strength_per_intensity for line in medium.lines), _line_responses(medium, omegas)))
    # coupling split k_nu = b_nu = sqrt(g_nu / 2); only the product is physical
    return -sum(g / 2.0 * s for g, s in responses), [1j * math.sqrt(g / 2.0) * s for g, s in responses]


def _apply(eigenvalues: np.ndarray, ec, e_field: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write A e_field = ec ifft(lambda fft(conj(ec) e_field)) into ``out`` (which may be
    e_field) at control amplitude ``ec``, and return the drive spectrum fft(conj(ec) e_field)."""
    spectrum = np.fft.fft(np.multiply(np.conj(ec), e_field, out=out))  # out doubles as the scratch
    np.fft.ifft(np.multiply(eigenvalues, spectrum, out=out), out=out)
    out *= ec
    return spectrum


def _coherence_peak(coherence_symbols, spectrum: np.ndarray) -> float:
    """The peak magnitude of the two coherences the drive spectrum ``spectrum`` raises."""
    coherence = np.empty_like(spectrum)  # one buffer for both lines: large temporaries cost page faults
    return max(float(np.max(np.abs(np.fft.ifft(np.multiply(symbol, spectrum, out=coherence), out=coherence))))
               for symbol in coherence_symbols)


def _constant(medium: RamanMedium, pulse: ComplexEnvelope, spectrum, chi):
    """``(SolveResult, transfer)``: FD's output through the transfer of ``chi`` from
    ``spectrum``, the input's transform, with no plan and no coherence read."""
    transfer = fdprop.transfer_function(chi, medium.k0, medium.length_mm)
    return SolveResult(output=fdprop._through(pulse, spectrum, transfer), nz=1, z_error_estimate=0.0), transfer


def _constant_peak(medium: RamanMedium, pulse: ComplexEnvelope, transfer) -> float:
    """The peak coherence of ``pulse`` through ``transfer`` under the medium's constant
    control: read at z = 0 and z = L at unit intensity from the input's DFT and the
    output's, that DFT times the transfer on its bins, then scaled by sqrt(I)."""
    _, symbols = _symbols(medium, pulse.grid)
    drive, bins = np.fft.fft(pulse.samples), _dft_order(pulse.grid.n)
    peak = max(_coherence_peak(symbols, drive), _coherence_peak(symbols, drive * transfer.values[bins]))
    return math.sqrt(medium.control_intensity) * peak


def _norm(x: np.ndarray) -> float:
    """||x||_2 without BLAS, whose threads would split the sum, so its bits follow no thread count."""
    return math.sqrt(np.einsum("i,i", x.view(float), x.view(float)))


def _march(medium: RamanMedium, ec, pulse: ComplexEnvelope, nz_needed: int) -> SolveResult:
    """E(L) = exp(L A) E(0) at control amplitude ``ec`` (a scalar, or one per
    sample) in equal z substeps, ``nz_needed`` steps of _MAX_STEP_PHASE
    regrouped into as few of _MAX_SUBSTEP_PHASE, each a Taylor sum of
    exp(dz A) until a term falls to _TERM_TOLERANCE of ||E||.  The peak
    coherence is read at the start of each substep, from the drive spectrum
    of its first application, and at z = L, from one more FFT."""
    eigenvalues, symbols = _symbols(medium, pulse.grid)
    substeps = max(1, math.ceil(nz_needed * _MAX_STEP_PHASE / _MAX_SUBSTEP_PHASE))
    e_field = pulse.samples.copy()
    term = np.empty_like(e_field)
    peak = error = 0.0
    dz = medium.length_mm / substeps
    for _ in range(substeps):
        peak = max(peak, _coherence_peak(symbols, _apply(eigenvalues, ec, e_field, term)))
        for m in range(1, _MAX_TERMS + 1):
            term *= dz / m
            e_field += term
            norm = _norm(e_field)  # zero only for an all-zero field, whose series is exactly zero
            last = _norm(term) / norm if norm else 0.0
            if not last > _TERM_TOLERANCE:
                break
            _apply(eigenvalues, ec, term, term)
        error = max(error, last)
    peak = max(peak, _coherence_peak(symbols, np.fft.fft(np.conj(ec) * e_field)))
    return SolveResult(output=ComplexEnvelope(grid=pulse.grid, samples=e_field), nz=substeps,
                       nz_needed=nz_needed, z_error_estimate=error, peak_coherence=peak)


def solve(medium: RamanMedium, control: ControlField, pulse: ComplexEnvelope,
          settings: SolverSettings | None = None) -> SolveResult:
    """Propagate the signal envelope from z = 0 to z = L, exactly in z: FD's
    output under a constant control, else the Taylor series of exp(L A) E
    over substeps of phase at most 4.

    The control field propagates undepleted; both Raman populations stay
    fixed (weak-signal regime), which no bound on ``peak_coherence`` tests:
    it is relative to the split k_nu = b_nu and a unit-energy signal (see
    ``SolveResult``).  Given settings, an nz below nz_needed is refused; no
    setting changes the result.
    Only a shaped control refuses a dt past 2*pi/(8*Delta), the proxy for its error
    in tau, and before chi is sampled.
    """
    medium = medium.with_control_intensity(control.intensity)
    if control.envelope is not None and pulse.grid.dt > (dt_max := _max_beat_dt(medium.splitting)):
        raise GridResolutionError(f"time step {pulse.grid.dt:.4g} ps does not resolve the two-photon beat; "
                                  f"need dt <= 2*pi/(8*Delta) = {dt_max:.4g} ps")
    chi = fdprop.susceptibility_from_medium(medium, pulse.grid.frequency_grid())
    nz_needed = _validate_resolution(medium, chi.values)
    if settings is not None and settings.nz < nz_needed:
        raise GridResolutionError(
            f"per-step phase exceeds {_MAX_STEP_PHASE}; need nz >= {nz_needed} (got {settings.nz})"
        )
    if control.envelope is None:
        result, transfer = _constant(medium, pulse, forward_transform(pulse), chi)
        result.nz_needed, result.peak_coherence = nz_needed, _constant_peak(medium, pulse, transfer)
        return result
    result = _march(medium, control.amplitude(pulse.grid.n), pulse, nz_needed)
    result.warnings += _control_duration_warning(control, pulse)
    return result


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


def _scan(medium: RamanMedium, control_intensities, pulse: ComplexEnvelope):
    """The points of ``delay_vs_control_scan`` and the SolveResult behind each: each point is sampled,
    sent through ``_constant`` and measured in turn, unplanned, and a refusal names its intensity."""
    fgrid, spectrum, points, results = pulse.grid.frequency_grid(), forward_transform(pulse), [], []
    for i in map(float, control_intensities):
        point = medium.with_control_intensity(i)
        result, _ = _constant(point, pulse, spectrum, fdprop.susceptibility_from_medium(point, fgrid))
        try:
            points.append(ScanPoint(i, *delay_and_loss(pulse, result.output)))
        except ValueError as exc:
            raise ValueError(f"intensity {i!r}: {exc}") from None
        results.append(result)
    return points, results


def delay_vs_control_scan(medium: RamanMedium, control_intensities, pulse: ComplexEnvelope) -> list[ScanPoint]:
    """First-moment delay and loss versus (constant) control intensity.

    Each point's chi is sampled once, at its own intensity, and the point is
    solved as its own ``solve`` would: FD's output through the transfer of
    that chi.  No point marches, so none is planned, and the scan refuses,
    naming the intensity, what FD's ``propagate`` refuses: a medium past the
    float range, an output with no energy, or more than 300 dB of loss.
    """
    return _scan(medium, control_intensities, pulse)[0]
