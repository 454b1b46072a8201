"""Two-line Raman medium: complex susceptibility and closed-form figures
of merit (peak optical depth, group delay, loss, delay per loss,
delay-bandwidth product).

The medium consists of two Raman absorption lines.  The detuning origin
is their two-photon midpoint, so they sit at -Delta/2 and +Delta/2 by
construction and a ``RamanLine`` takes only ``(linewidth,
strength_per_intensity)``; records whose fitted lines are off-centre are
re-centred by choosing ``kk --center-nm``.  Each line contributes a
Lorentzian of strength ``c = g * |E_c|^2`` to the susceptibility

    chi(w) = (i/k0) * sum_nu  c_nu s_nu(w),  s_nu(w) = 1 / (Gamma_nu - i*(w - center_nu))

so Im(chi) >= 0 (absorption, never gain) and the dispersion between the
lines is normal: the transparency window slows pulses down.  The line
response s_nu is written once, here, for chi and the time-domain operator.
The on-line peak optical depth of one line is d0 = L * c / Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import _FINITE, _NON_NEGATIVE, _POSITIVE, AsymmetricMediumError, _require

_SYMMETRY_RTOL = 1e-9


@dataclass(frozen=True)
class RamanLine:
    """One Raman absorption line.

    linewidth : Lorentzian half width Gamma (1/ps)
    strength_per_intensity : effective coupling per unit control intensity;
        the line strength is ``strength_per_intensity * control_intensity``
        and carries units of 1/(ps*mm) per intensity unit.
    """

    linewidth: float
    strength_per_intensity: float

    def __post_init__(self):
        _require(_POSITIVE, "linewidth", self.linewidth)
        _require(_NON_NEGATIVE, "line strength (absorption lines, never gain)", self.strength_per_intensity)


@dataclass(frozen=True)
class RamanMedium:
    """Two Raman lines at -Delta/2 and +Delta/2 plus propagation geometry.

    splitting : line spacing Delta (1/ps)
    length_mm : propagation length L
    k0        : signal-carrier wavevector (rad/mm)
    control_intensity : |E_c|^2 in the arbitrary units the line strengths
        are defined against.
    """

    lines: tuple[RamanLine, RamanLine]
    splitting: float
    length_mm: float
    k0: float
    control_intensity: float = 1.0

    def __post_init__(self):
        for what, value in (("splitting", self.splitting), ("length", self.length_mm), ("k0", self.k0)):
            _require(_POSITIVE, what, value)
        _require(_NON_NEGATIVE, "control intensity", self.control_intensity)
        at = f"at control intensity {self.control_intensity!r}"
        for line, c in zip(self.lines, self.line_strengths):  # chi holds c / Gamma, its transfer L c / Gamma
            _require(_FINITE, f"a line's c / Gamma {at}", c / line.linewidth)
            _require(_FINITE, f"peak optical depth L c / Gamma {at}", self.length_mm * c / line.linewidth)

    @property
    def line_strengths(self) -> tuple[float, float]:
        """c_nu = g_nu * |E_c|^2 for the (lower, upper) line."""
        return tuple(ln.strength_per_intensity * self.control_intensity for ln in self.lines)

    def with_control_intensity(self, intensity: float) -> "RamanMedium":
        return replace(self, control_intensity=intensity)

    def is_symmetric(self) -> bool:
        lo, hi = self.lines
        gmax = max(lo.linewidth, hi.linewidth)
        smax = max(lo.strength_per_intensity, hi.strength_per_intensity, 1e-300)
        return (abs(lo.linewidth - hi.linewidth) <= _SYMMETRY_RTOL * gmax
                and abs(lo.strength_per_intensity - hi.strength_per_intensity) <= _SYMMETRY_RTOL * smax)


def symmetric_doublet(g: float, gamma: float, delta: float, k0: float, length_mm: float) -> RamanMedium:
    """Two lines of equal linewidth ``gamma`` and coupling ``g`` at -delta/2
    and +delta/2."""
    return RamanMedium(lines=(RamanLine(gamma, g), RamanLine(gamma, g)), splitting=delta, length_mm=length_mm, k0=k0)


def from_target_depth(d0: float, gamma: float, delta: float, k0: float, length_mm: float) -> RamanMedium:
    """Symmetric medium parameterized directly by its peak optical depth.

    Inverts d0 = L * g * |E_c|^2 / Gamma at unit control intensity.
    """
    _require(_NON_NEGATIVE, "target depth", d0)
    for what, value in (("gamma", gamma), ("delta", delta), ("k0", k0), ("length_mm", length_mm)):
        _require(_POSITIVE, what, value)
    return symmetric_doublet(d0 * gamma / length_mm, gamma, delta, k0, length_mm)


def _line_responses(medium: RamanMedium, omega) -> list:
    """Each line's response 1 / (Gamma_nu - i (omega - center_nu)) at ``omega``, in line order:
    the centres are -Delta/2 and +Delta/2 by construction."""
    w = np.asarray(omega, dtype=float)
    half = medium.splitting / 2.0
    return [1.0 / (line.linewidth - 1j * (w - center)) for line, center in zip(medium.lines, (-half, +half))]


def chi(medium: RamanMedium, omega) -> np.ndarray | complex:
    """Complex linear susceptibility at detuning ``omega`` (scalar or array)."""
    out = sum(c * s for c, s in zip(medium.line_strengths, _line_responses(medium, omega))) * (1j / medium.k0)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return complex(out)
    return out


def _require_symmetric(medium: RamanMedium, what: str) -> tuple[float, float]:
    if not medium.is_symmetric():
        lo, hi = medium.lines
        raise AsymmetricMediumError(
            f"{what} is defined for symmetric media only; got linewidths "
            f"({lo.linewidth}, {hi.linewidth}) and strengths "
            f"({lo.strength_per_intensity}, {hi.strength_per_intensity}). "
            "Use the numerical propagators for asymmetric media."
        )
    gamma = medium.lines[0].linewidth
    c = medium.line_strengths[0]
    return gamma, c


def peak_optical_depth(medium: RamanMedium) -> float:
    """On-resonance intensity optical depth of one Raman line, d0 = L*c/Gamma."""
    gamma, c = _require_symmetric(medium, "peak optical depth")
    return medium.length_mm * c / gamma


def group_delay(medium: RamanMedium) -> float:
    """Window-center group delay relative to control-off propagation (ps),

        tau_g = d0 * Gamma * (Delta^2/4 - Gamma^2) / (Delta^2/4 + Gamma^2)^2
    """
    gamma, _ = _require_symmetric(medium, "group delay")
    d0 = peak_optical_depth(medium)
    q = medium.splitting**2 / 4.0
    return d0 * gamma * (q - gamma**2) / (q + gamma**2) ** 2


def loss_db(medium: RamanMedium) -> float:
    """Window-center loss in dB,

        eta = d0 * (10/ln 10) * 2*Gamma^2 / (Delta^2/4 + Gamma^2)
    """
    gamma, _ = _require_symmetric(medium, "loss")
    d0 = peak_optical_depth(medium)
    q = medium.splitting**2 / 4.0
    return d0 * (10.0 / np.log(10.0)) * 2.0 * gamma**2 / (q + gamma**2)


def delay_per_loss(gamma: float, delta: float) -> float:
    """Delay per dB of loss (ps/dB); independent of depth and control power."""
    _require(_POSITIVE, "gamma", gamma)
    _require(_POSITIVE, "delta", delta)
    q = delta**2 / 4.0
    return (np.log(10.0) / 20.0) * (q - gamma**2) / (gamma * (gamma**2 + q))


def delay_bandwidth_product(medium: RamanMedium) -> float:
    """tau_g times the transparency-window bandwidth (Delta - Gamma)."""
    gamma, _ = _require_symmetric(medium, "delay-bandwidth product")
    if gamma >= medium.splitting:
        raise ValueError(
            f"no transparency window: Gamma = {gamma} >= Delta = {medium.splitting}"
        )
    return group_delay(medium) * (medium.splitting - gamma)


@dataclass(frozen=True)
class FiguresOfMerit:
    """All closed-form figures for a symmetric medium in one record."""

    d0: float
    group_delay_ps: float
    loss_db: float
    delay_per_loss_ps_per_db: float
    delay_bandwidth_product: float


def figures_of_merit(medium: RamanMedium) -> FiguresOfMerit:
    gamma, _ = _require_symmetric(medium, "figures of merit")
    return FiguresOfMerit(
        d0=peak_optical_depth(medium),
        group_delay_ps=group_delay(medium),
        loss_db=loss_db(medium),
        delay_per_loss_ps_per_db=delay_per_loss(gamma, medium.splitting),
        delay_bandwidth_product=delay_bandwidth_product(medium),
    )
