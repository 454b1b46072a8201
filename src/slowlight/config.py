"""Run configuration: strict INI-style blocks for the medium, signal,
control, grid and solver, with units embedded in the key names.

One field declaration per key: each section dataclass lists its keys in
the order ``resolved_config.ini`` writes them, and the key's parser, check
and requirement live in the field's metadata.  Loading, validation, the
resolved INI and the ``config.*`` summary keys are all driven by these
declarations; rules that tie keys of one section together live in that
section's ``__post_init__``.

Unknown sections or keys abort before any computation; every run writes
back the fully-resolved configuration so results can be reproduced
bit-for-bit.
"""

from __future__ import annotations

import configparser
import itertools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

from .errors import ConfigError
from .medium import RamanMedium, symmetric_doublet
from .spectral import PULSE_SHAPES, ComplexEnvelope, TimeGrid, synthesize_pulse
from .spectral import _MIN_SAMPLES_PER_FWHM, _is_sample_count, _transform_limited_duration
from .tdprop import ControlField, SolverSettings, _max_beat_dt


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _finite_list(raw: str) -> list[float]:
    return [_finite(item.strip()) for item in raw.split(",")]


def _read(raw: str, parse, requirement=None, check=None):
    """``raw`` read by one rule: ``parse`` converts it, and ``check``, if
    given, accepts the value or a ValueError says it must be ``requirement``."""
    value = parse(raw)
    if check is not None and not check(value):
        raise ValueError(f"must be {requirement}, got {raw!r}")
    return value


def wavenumber(lambda0_nm: float) -> float:
    """The carrier wavevector k0 = 2 pi / lambda0 in rad/mm; inf where
    lambda0 in mm underflows to zero."""
    lambda0_mm = lambda0_nm * 1e-6
    return 2.0 * math.pi / lambda0_mm if lambda0_mm else math.inf


# (parse, requirement, check) rules shared by config keys and CLI flags
_POSITIVE = (_finite, "positive", lambda value: value > 0)
_WAVELENGTH = (_finite, "positive with a finite k0 = 2*pi/lambda0",
               lambda value: value > 0 and math.isfinite(wavenumber(value)))
_NON_NEGATIVE = (_finite, "non-negative", lambda value: value >= 0)
_SAMPLE_COUNT = (int, "a power of two >= 8", _is_sample_count)

_SPAN_DURATIONS = 16.0  # a derived grid spans at least this many pulse durations


def _key(*rule, **default):
    """Declare one key read by ``rule``, the arguments of _read after the text."""
    return field(metadata={"rule": rule}, **default)


def _one_of(options, **default):
    return _key(str, f"one of {options}", options.__contains__, **default)


@dataclass(kw_only=True)
class MediumConfig:
    gamma_invps: float = _key(*_POSITIVE)
    delta_invps: float = _key(*_POSITIVE)
    d0: float | None = _key(*_NON_NEGATIVE, default=None)
    g_per_intensity: float | None = _key(*_NON_NEGATIVE, default=None)
    length_mm: float = _key(*_POSITIVE)
    lambda0_nm: float = _key(*_WAVELENGTH)

    def __post_init__(self):
        if (self.d0 is None) == (self.g_per_intensity is None):
            raise ConfigError("section [medium] needs exactly one of d0 or g_per_intensity")
        if self.gamma_invps >= self.delta_invps:
            raise ConfigError(
                f"no transparency window: gamma_invps = {self.gamma_invps} >= "
                f"delta_invps = {self.delta_invps}"
            )

    @property
    def k0(self) -> float:
        return wavenumber(self.lambda0_nm)

    def strength_per_intensity(self) -> float:
        if self.g_per_intensity is not None:
            return self.g_per_intensity
        return self.d0 * self.gamma_invps / self.length_mm

    def build(self) -> RamanMedium:
        return symmetric_doublet(
            self.strength_per_intensity(), self.gamma_invps, self.delta_invps, self.k0, self.length_mm
        )


@dataclass(kw_only=True)
class SignalConfig:
    shape: str = _one_of(PULSE_SHAPES)
    bandwidth_invps: float | None = _key(*_POSITIVE, default=None)
    duration_ps: float | None = _key(*_POSITIVE, default=None)
    gdd_ps2: float = _key(_finite, default=0.0)

    def __post_init__(self):
        if (self.bandwidth_invps is None) == (self.duration_ps is None):
            raise ConfigError("section [signal] needs exactly one of bandwidth_invps or duration_ps")

    def transform_limited_duration(self) -> float:
        return _transform_limited_duration(self.shape, self.bandwidth_invps, self.duration_ps)

    def build(self, grid: TimeGrid) -> ComplexEnvelope:
        return synthesize_pulse(
            self.shape,
            grid,
            bandwidth=self.bandwidth_invps,
            duration=self.duration_ps,
            quadratic_spectral_phase=self.gdd_ps2,
        )


@dataclass(kw_only=True)
class ControlConfig:
    kind: str = _one_of(("constant", "gaussian", "flat_top"), default="constant")
    intensity_list: list[float] = _key(
        _finite_list, "non-negative", lambda values: min(values) >= 0, default_factory=list
    )
    intensity: float | None = _key(*_NON_NEGATIVE, default=None)
    fwhm_ps: float | None = _key(*_POSITIVE, default=None)

    def __post_init__(self):
        if self.kind != "constant" and self.fwhm_ps is None:
            raise ConfigError(f"control.kind = {self.kind} requires fwhm_ps")
        if self.intensity is None and not self.intensity_list:
            self.intensity = 1.0

    def build(self, grid: TimeGrid, intensity: float | None = None) -> ControlField:
        level = self.intensity if intensity is None else intensity
        if self.kind == "constant":
            return ControlField.constant(level)
        if self.kind == "gaussian":
            return ControlField.gaussian(grid, self.fwhm_ps, level)
        return ControlField.flat_top(grid, self.fwhm_ps, level)


@dataclass(kw_only=True)
class GridConfig:
    n: int = _key(*_SAMPLE_COUNT, default=2**14)
    dt_ps: float | None = _key(*_POSITIVE, default=None)

    def resolve_dt(self, signal: SignalConfig, medium: MediumConfig) -> float:
        """The given dt_ps, else a step resolving the two-photon beat and the
        pulse, with span at least _SPAN_DURATIONS transform-limited durations."""
        if self.dt_ps is not None:
            return self.dt_ps
        duration = signal.transform_limited_duration()
        dt_beat = _max_beat_dt(medium.delta_invps)
        dt_pulse = duration / _MIN_SAMPLES_PER_FWHM
        dt = max(min(0.5 * dt_beat, dt_pulse), _SPAN_DURATIONS * duration / self.n)
        if dt > min(dt_beat, dt_pulse):
            raise ConfigError(
                f"no time step with n = {self.n} both spans {_SPAN_DURATIONS:g}x the pulse and resolves "
                f"the beat; increase grid n"
            )
        return dt

    def build(self, signal: SignalConfig, medium: MediumConfig) -> TimeGrid:
        return TimeGrid.centered(self.n, self.resolve_dt(signal, medium))


@dataclass(kw_only=True)
class SolverConfig:
    nz: int = _key(int, default=256)

    def build(self) -> SolverSettings:
        return SolverSettings(nz=self.nz)


@dataclass
class SimulationConfig:
    medium: MediumConfig
    signal: SignalConfig
    control: ControlConfig
    grid: GridConfig
    solver: SolverConfig

    def _resolved_items(self):
        """(section, key, text) for every resolved key, in file order: d0 is
        written as g_per_intensity and dt_ps as the step the grid uses."""
        resolved = replace(
            self,
            medium=replace(self.medium, d0=None, g_per_intensity=self.medium.strength_per_intensity()),
            grid=replace(self.grid, dt_ps=self.grid.resolve_dt(self.signal, self.medium)),
        )
        for section in fields(resolved):
            block = getattr(resolved, section.name)
            for key in fields(block):
                value = getattr(block, key.name)
                if value is None or value == []:
                    continue
                if isinstance(value, list):
                    text = ", ".join(repr(v) for v in value)
                else:
                    text = value if isinstance(value, str) else repr(value)
                yield section.name, key.name, text

    def resolved_ini(self) -> str:
        """Fully-resolved configuration, suitable for bit-identical re-runs."""
        blocks = []
        for section, items in itertools.groupby(self._resolved_items(), key=lambda item: item[0]):
            blocks.append(f"[{section}]\n" + "".join(f"{key} = {text}\n" for _, key, text in items))
        return "\n".join(blocks)

    def flat_items(self) -> dict:
        """config.* entries embedded in run summaries."""
        return {f"config.{section}.{key}": text for section, key, text in self._resolved_items()}


def _load_section(cls, name: str, given):
    """Parse one INI section, empty when absent, into its dataclass."""
    values = {}
    for key in fields(cls):
        qualified = f"{name}.{key.name}"
        if key.name not in given:
            if key.default is MISSING and key.default_factory is MISSING:
                raise ConfigError(f"missing required key {qualified}")
            continue
        try:
            values[key.name] = _read(given[key.name], *key.metadata["rule"])
        except ValueError as exc:
            raise ConfigError(f"key {qualified}: {exc}") from exc
    return cls(**values)


def load_config(path) -> SimulationConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    # resolved_config.ini files once carried the solver's only scheme
    if parser.get("solver", "scheme", fallback=None) == "midpoint":
        parser.remove_option("solver", "scheme")
    sections = typing.get_type_hints(SimulationConfig)
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"unknown config section [{name}]")
        unknown = set(parser[name]) - {key.name for key in fields(sections[name])}
        if unknown:
            raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section [{name}]")

    config = SimulationConfig(**{
        name: _load_section(cls, name, parser[name] if name in parser else {})
        for name, cls in sections.items()
    })
    try:
        config.medium.build()
        config.solver.build()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config.grid.resolve_dt(config.signal, config.medium)  # refused here, not after a run's first output
    return config
