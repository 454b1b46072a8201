"""CSV and summary-file formats.

All CSVs are UTF-8 with LF line endings and full double precision
(17 significant digits).  Headers are fixed per format:

    envelope        time_ps,re,im
    spectrum        detuning_invps,re,im
    susceptibility  detuning_invps,chi_re,chi_im
    absorption in   wavelength_nm,absorption | wavelength_nm,optical_depth
    correlation     delay_ps,intensity
    intensity scan  control_intensity,delay_ps,loss_db
    analytic sweep  d0,delay_ps,loss_db,dbp

Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import ConfigError
from .spectral import ComplexEnvelope, FrequencyGrid, TimeGrid

_FMT = "%.17g"

ENVELOPE_HEADER = "time_ps,re,im"
SPECTRUM_HEADER = "detuning_invps,re,im"
SUSCEPTIBILITY_HEADER = "detuning_invps,chi_re,chi_im"
CORRELATION_HEADER = "delay_ps,intensity"
SCAN_HEADER = "control_intensity,delay_ps,loss_db"
ANALYTIC_HEADER = "d0,delay_ps,loss_db,dbp"
ABSORPTION_HEADERS = ("wavelength_nm,absorption", "wavelength_nm,optical_depth")


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_text(header: str, columns) -> str:
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join([_FMT] * rows.shape[1]) + "\n"
    return header + "\n" + (row * rows.shape[0]) % tuple(rows.ravel().tolist())


def _write_complex_csv(path, header: str, axis: np.ndarray, values: np.ndarray):
    values = np.asarray(values, dtype=complex)
    atomic_write_text(path, _table_text(header, [axis, values.real, values.imag]))


def write_envelope_csv(path, env: ComplexEnvelope):
    _write_complex_csv(path, ENVELOPE_HEADER, env.grid.times, env.samples)


def read_envelope_csv(path) -> ComplexEnvelope:
    _, (t, re, im) = _read_table(path, ENVELOPE_HEADER)
    dt = _uniform_step(t, f"time axis of {path}")
    try:
        grid = TimeGrid(t_start=float(t[0]), dt=dt, n=t.size)
    except ValueError as exc:
        raise ConfigError(f"envelope CSV {path}: {exc}") from None
    return ComplexEnvelope(grid=grid, samples=re + 1j * im)


def write_spectrum_csv(path, grid: FrequencyGrid, values: np.ndarray):
    _write_complex_csv(path, SPECTRUM_HEADER, grid.omegas, values)


def write_susceptibility_csv(path, grid: FrequencyGrid, chi: np.ndarray):
    _write_complex_csv(path, SUSCEPTIBILITY_HEADER, grid.omegas, chi)


def read_susceptibility_csv(path):
    """Returns (detunings, chi) arrays; the caller resamples as needed."""
    _, (w, re, im) = _read_table(path, SUSCEPTIBILITY_HEADER)
    _uniform_step(w, f"detuning axis of {path}")
    return w, re + 1j * im


def write_correlation_csv(path, curve):
    atomic_write_text(path, _table_text(CORRELATION_HEADER, [curve.delays, curve.intensity]))


def write_scan_csv(path, points):
    cols = [[p.intensity for p in points], [p.delay_ps for p in points], [p.loss_db for p in points]]
    atomic_write_text(path, _table_text(SCAN_HEADER, cols))


def write_analytic_csv(path, d0, delay, loss, dbp):
    atomic_write_text(path, _table_text(ANALYTIC_HEADER, [d0, delay, loss, dbp]))


def read_absorption_csv(path):
    """Read measured absorption data.

    Returns (wavelengths_nm, values, kind) with kind one of "absorption"
    (fractional A) or "optical_depth", auto-detected from the header.
    """
    header, (wavelengths, values) = _read_table(path, *ABSORPTION_HEADERS)
    return wavelengths, values, header.partition(",")[2]


def write_summary(path, entries: dict):
    """Flat ``key = value`` summary document."""
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            lines.append(f"{key} = {_FMT % value}")
        else:
            lines.append(f"{key} = {value}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _open_csv(path):
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _read_table(path, *headers: str):
    """(header, columns) of a CSV whose header is one of ``headers``."""
    with _open_csv(path) as handle:
        header = handle.readline().strip()
        if header not in headers:
            expected = " or ".join(map(repr, headers))
            raise ConfigError(f"unexpected CSV header {header!r} in {path}; expected {expected}")
        try:
            body = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"malformed CSV {path}: {exc}") from None
    if body.shape[1] != len(header.split(",")):
        raise ConfigError(f"malformed CSV {path}: expected {header!r} columns")
    if not np.all(np.isfinite(body)):
        raise ConfigError(f"malformed CSV {path}: a value is nan or infinite")
    return header, tuple(body.T)


def _uniform_step(x: np.ndarray, what: str) -> float:
    if x.size < 2:
        raise ConfigError(f"{what} needs at least 2 samples")
    dt = float(x[-1] - x[0]) / (x.size - 1)
    if dt <= 0 or np.max(np.abs(np.diff(x) - dt)) > 1e-9 * abs(dt):
        raise ConfigError(f"{what} must be uniformly increasing")
    return dt
