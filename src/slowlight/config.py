"""Run configuration: strict INI-style blocks for the medium, signal,
control and grid, with units embedded in the key names.

One field declaration per key: each section dataclass lists its keys in
the order ``resolved_config.ini`` writes them, and the key's parser, check
and requirement live in the field's metadata.  Loading, validation, the
resolved INI and the ``config.*`` summary keys are all driven by these
declarations; rules that tie keys of one section together live in that
section's ``__post_init__``.

Values are resolved and checked once, when the config is built: a given d0
becomes the coupling g_per_intensity, and a missing grid step dt_ps becomes
the step the grid uses.  A loaded config therefore holds exactly what
``resolved_config.ini`` writes.  Unknown sections or keys abort before any
computation; every run writes back that resolved configuration so results
can be reproduced bit-for-bit.
"""

from __future__ import annotations

import configparser
import itertools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields

from . import errors, spectral
from .errors import ConfigError
from .io import _read_text
from .medium import RamanMedium, symmetric_doublet
from .spectral import PULSE_SHAPES, ComplexEnvelope, TimeGrid, synthesize_pulse
from .spectral import _MIN_SAMPLES_PER_FWHM, _transform_limited_duration
from .tdprop import ControlField, _max_beat_dt


def _read(raw: str, parse, rule=None):
    """``raw`` read by one rule: ``parse`` converts it, and the value must
    meet ``rule``, a (requirement, check) pair, if given."""
    value = parse(raw)
    if rule is not None:
        errors._require(rule, "value", value)
    return value


def _list_of(rule):
    """A parser of comma-separated values, each read by ``rule``."""
    return lambda raw: [_read(item, *rule) for item in raw.split(",")]


def wavenumber(lambda0_nm: float) -> float:
    """The carrier wavevector k0 = 2 pi / lambda0 in rad/mm; inf where
    lambda0 in mm underflows to zero."""
    lambda0_mm = lambda0_nm * 1e-6
    return 2.0 * math.pi / lambda0_mm if lambda0_mm else math.inf


# (parse, rule) of config keys and CLI flags, by the library's number rules
_POSITIVE = (float, errors._POSITIVE)
_NON_NEGATIVE = (float, errors._NON_NEGATIVE)
_FINITE = (float, errors._FINITE)
_WAVELENGTH = (float, ("positive and finite with a finite k0 = 2*pi/lambda0",
                       lambda value: errors._POSITIVE[1](wavenumber(value))))  # k0 is 0 at inf and nan at nan
_SAMPLE_COUNT = (int, spectral._SAMPLE_COUNT)

_SPAN_DURATIONS = 16.0  # a grid, given or derived, spans at least this many pulse durations


def _key(*rule, **default):
    """Declare one key read by ``rule``, the arguments of _read after the text."""
    return field(metadata={"rule": rule}, **default)


def _one_of(options, **default):
    return _key(str, (f"one of {options}", options.__contains__), **default)


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
        if self.d0 is not None:  # held as the coupling it sets, as resolved_config.ini writes it
            g = self.d0 * self.gamma_invps / self.length_mm
            if not math.isfinite(g):
                raise ConfigError(f"key medium.d0: coupling d0 * gamma_invps / length_mm = {g!r} is not finite")
            self.d0, self.g_per_intensity = None, g

    @property
    def k0(self) -> float:
        return wavenumber(self.lambda0_nm)

    def build(self) -> RamanMedium:
        return symmetric_doublet(self.g_per_intensity, self.gamma_invps, self.delta_invps, self.k0, self.length_mm)


@dataclass(kw_only=True)
class SignalConfig:
    shape: str = _one_of(PULSE_SHAPES)
    bandwidth_invps: float | None = _key(*_POSITIVE, default=None)
    duration_ps: float | None = _key(*_POSITIVE, default=None)
    gdd_ps2: float = _key(*_FINITE, default=0.0)

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
    intensity_list: list[float] = _key(_list_of(_NON_NEGATIVE), default_factory=list)
    intensity: float | None = _key(*_NON_NEGATIVE, default=None)
    fwhm_ps: float | None = _key(*_POSITIVE, default=None)

    def __post_init__(self):
        if self.kind != "constant" and self.fwhm_ps is None:
            raise ConfigError(f"control.kind = {self.kind} requires fwhm_ps")
        # a key no run would read is refused, not written back to resolved_config.ini
        if self.kind == "constant" and self.fwhm_ps is not None:
            raise ConfigError("keys control.kind = constant and control.fwhm_ps: a constant control has no width")
        if self.intensity is None and not self.intensity_list:
            self.intensity = 1.0

    def build(self, grid: TimeGrid) -> ControlField:
        if self.kind == "constant":
            return ControlField.constant(self.intensity)
        if self.kind == "gaussian":
            return ControlField.gaussian(grid, self.fwhm_ps, self.intensity)
        return ControlField.flat_top(grid, self.fwhm_ps, self.intensity)


@dataclass(kw_only=True)
class GridConfig:
    n: int = _key(*_SAMPLE_COUNT, default=2**14)
    dt_ps: float | None = _key(*_POSITIVE, default=None)

    def resolve_dt(self, signal: SignalConfig, medium: MediumConfig) -> float:
        """The given dt_ps, else a step resolving the two-photon beat and the
        pulse; either grid spans at least _SPAN_DURATIONS transform-limited durations."""
        duration = signal.transform_limited_duration()
        dt_span = _SPAN_DURATIONS * duration / self.n
        if self.dt_ps is not None:
            if self.dt_ps < dt_span:
                raise ConfigError(
                    f"keys grid.n = {self.n} and grid.dt_ps = {self.dt_ps!r} span {self.n * self.dt_ps:.4g} ps, "
                    f"less than {_SPAN_DURATIONS:g}x the pulse duration {duration:.4g} ps; increase grid n or dt_ps"
                )
            return self.dt_ps
        dt_beat = _max_beat_dt(medium.delta_invps)
        dt_pulse = duration / _MIN_SAMPLES_PER_FWHM
        dt = max(min(0.5 * dt_beat, dt_pulse), dt_span)
        if dt > min(dt_beat, dt_pulse):
            raise ConfigError(
                f"no time step with n = {self.n} both spans {_SPAN_DURATIONS:g}x the pulse and resolves "
                f"the beat; increase grid n"
            )
        return dt

    def build(self) -> TimeGrid:
        return TimeGrid.centered(self.n, self.dt_ps)


@dataclass
class SimulationConfig:
    medium: MediumConfig
    signal: SignalConfig
    control: ControlConfig
    grid: GridConfig

    def __post_init__(self):
        # refused here, not after a run's first output
        self.grid.dt_ps = self.grid.resolve_dt(self.signal, self.medium)

    def _resolved_items(self):
        """(section, key, text) for every key set, in file order."""
        for section in fields(self):
            block = getattr(self, section.name)
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
        parser.read_string(_read_text(path), source=str(path))
    except configparser.Error as exc:  # its text names the file and the line, over several lines
        raise ConfigError(f"malformed config: {' '.join(str(exc).split())}") from exc

    # older resolved_config.ini files carry [solver] nz = <int> and scheme = midpoint, which no run reads
    for key, text in parser.items("solver") if parser.has_section("solver") else ():
        if key == "nz":
            try:
                int(text)
            except ValueError as exc:
                raise ConfigError(f"key solver.nz: {exc}") from exc
        elif (key, text) != ("scheme", "midpoint"):
            raise ConfigError(f"unknown key {key!r} in section [solver]")
    parser.remove_section("solver")
    sections = typing.get_type_hints(SimulationConfig)
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"unknown config section [{name}]")
        unknown = set(parser[name]) - {key.name for key in fields(sections[name])}
        if unknown:
            raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section [{name}]")

    return SimulationConfig(**{
        name: _load_section(cls, name, parser[name] if name in parser else {})
        for name, cls in sections.items()
    })
