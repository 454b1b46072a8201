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
Line nu has the on-line peak optical depth d_nu = L * c_nu / Gamma_nu, and
each closed-form figure is a sum over the two lines, so it holds for
unequal lines as well as for a symmetric doublet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import _FINITE, _NON_NEGATIVE, _POSITIVE, _require


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


def _line_depths(medium: RamanMedium) -> tuple[float, float]:
    """d_nu = L * c_nu / Gamma_nu, each line's on-resonance optical depth, in line order."""
    return tuple(medium.length_mm * c / line.linewidth for line, c in zip(medium.lines, medium.line_strengths))


def _mean_over_lines(medium: RamanMedium, term) -> float:
    """Half the sum over the lines of ``term(d_nu, Gamma_nu, q)``, q = Delta^2/4: each term is the
    symmetric doublet's figure at that line's depth and width, so equal lines read it exactly."""
    q = medium.splitting**2 / 4.0
    lo, hi = (term(d, line.linewidth, q) for line, d in zip(medium.lines, _line_depths(medium)))
    return (lo + hi) / 2.0


def peak_optical_depth(medium: RamanMedium) -> float:
    """On-resonance intensity optical depth of the deeper line, d0 = max_nu L*c_nu/Gamma_nu."""
    return max(_line_depths(medium))


def group_delay(medium: RamanMedium) -> float:
    """Window-center group delay relative to control-off propagation (ps),

        tau_g = (1/2) sum_nu d_nu * Gamma_nu * (Delta^2/4 - Gamma_nu^2) / (Delta^2/4 + Gamma_nu^2)^2
    """
    return _mean_over_lines(medium, lambda d, gamma, q: d * gamma * (q - gamma**2) / (q + gamma**2) ** 2)


def loss_db(medium: RamanMedium) -> float:
    """Window-center loss in dB,

        eta = (1/2) sum_nu d_nu * (10/ln 10) * 2*Gamma_nu^2 / (Delta^2/4 + Gamma_nu^2)
    """
    return _mean_over_lines(medium, lambda d, gamma, q: d * (10.0 / np.log(10.0)) * 2.0 * gamma**2 / (q + gamma**2))


def delay_per_loss(gamma: float, delta: float) -> float:
    """Delay per dB of loss (ps/dB) of lines of width ``gamma``; independent of depth and control power."""
    _require(_POSITIVE, "gamma", gamma)
    _require(_POSITIVE, "delta", delta)
    q = delta**2 / 4.0
    return (np.log(10.0) / 20.0) * (q - gamma**2) / (gamma * (gamma**2 + q))


def delay_bandwidth_product(medium: RamanMedium) -> float:
    """tau_g times the transparency-window bandwidth Delta - (Gamma_lo + Gamma_hi)/2,
    which is Delta - Gamma for equal lines."""
    mean_gamma = (medium.lines[0].linewidth + medium.lines[1].linewidth) / 2.0
    if mean_gamma >= medium.splitting:
        raise ValueError(
            f"no transparency window: mean linewidth (Gamma_lo + Gamma_hi)/2 = {mean_gamma} >= Delta = {medium.splitting}"
        )
    return group_delay(medium) * (medium.splitting - mean_gamma)


@dataclass(frozen=True)
class FiguresOfMerit:
    """All closed-form figures of a medium in one record.  ``d0`` is the deeper line's depth, and
    ``delay_per_loss_ps_per_db`` is the mean of the lines' own ratios weighted by their losses,
    which is tau_g / eta wherever the medium has depth and stays defined where it has none."""

    d0: float
    group_delay_ps: float
    loss_db: float
    delay_per_loss_ps_per_db: float
    delay_bandwidth_product: float


def figures_of_merit(medium: RamanMedium) -> FiguresOfMerit:
    q = medium.splitting**2 / 4.0
    r_lo, r_hi = (delay_per_loss(line.linewidth, medium.splitting) for line in medium.lines)
    # each line's share of the loss at unit intensity; the lines are weighted alike when neither couples
    w_lo, w_hi = (line.strength_per_intensity * line.linewidth / (q + line.linewidth**2) for line in medium.lines)
    share_hi = w_hi / (w_lo + w_hi) if w_lo + w_hi > 0 else 0.5
    return FiguresOfMerit(
        d0=peak_optical_depth(medium),
        group_delay_ps=group_delay(medium),
        loss_db=loss_db(medium),
        delay_per_loss_ps_per_db=r_lo + (r_hi - r_lo) * share_hi,
        delay_bandwidth_product=delay_bandwidth_product(medium),
    )
