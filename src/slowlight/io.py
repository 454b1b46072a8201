"""CSV and summary-file formats.

All CSVs are UTF-8 with LF line endings, and every cell is exactly the
text of C ``%.17g`` (``'%.17g' % x``), so each double reads back bit for
bit.  Headers are fixed per format:

    envelope        time_ps,re,im
    spectrum        detuning_invps,re,im
    susceptibility  detuning_invps,chi_re,chi_im
    absorption in   wavelength_nm,absorption | wavelength_nm,optical_depth
    correlation     delay_ps,intensity
    intensity scan  control_intensity,delay_ps,loss_db
    analytic sweep  d0,delay_ps,loss_db,dbp

Files are written atomically (temp file + rename).

Tables are encoded by numpy, a block of rows at a time.  For each cell it
estimates ``e10 = floor(log10|x|)`` and forms ``|x| 10**(16 - e10)`` as an
exact double-double (Dekker's split product with a double-double power
of ten), so the 17-digit integer and its fraction are known to within
2**-47.  It rounds to nearest, moves a carry to the next decade, and lays
out the digits, sign, ``0.000`` prefix, ``.`` and ``e+dd`` suffix as
``%.17g`` does.  Cells it cannot prove take their text from ``%``, once
per distinct value: zeros, nan, inf, ``|x|`` outside (1e-280, 1e280), and
fractions within 2**-30 of one half (possible ties).
"""

from __future__ import annotations

import functools
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
    pieces = [header + "\n"]
    # a few thousand rows at a time keep the encoder's work arrays small
    for block in np.split(rows, range(_BLOCK_ROWS, len(rows), _BLOCK_ROWS)):
        cells = _encode_cells(block.ravel())
        cells[:, -1] = ord(",")
        cells[block.shape[1] - 1 :: block.shape[1], -1] = ord("\n")
        pieces.append(cells.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(pieces)


# A cell is laid out in six 8-byte words, and the zero bytes are dropped:
#   0     sign, "0.000" prefix, first digit, "."
#   1-4   four groups of four digits, each digit followed by a "." slot
#   5     "e-ddd" suffix, then the separator in byte 47
# A mask word clears the digits past the last one shown and every "." but
# the one shown.  A "%.17g" cell is at most 24 characters.
_WIDTH = 48
_BLOCK_ROWS = 2048
_FAST = (1e-280, 1e280)
_E_MIN, _E_MAX = -282, 282  # the e10 the fast path meets, re-solve included
_TIE = 2.0**-30  # far above the 2**-47 error of the scaled product
_SPLIT = 134217729.0  # 2**27 + 1
_NO_DOT = 17  # past the last dot slot: no "." in the digits


def _words(rows) -> np.ndarray:
    """Byte strings, zero-padded to a common multiple of 8 bytes, as rows of
    uint64 words in native order."""
    width = -(-max(map(len, rows)) // 8) * 8
    packed = b"".join(row.ljust(width, b"\0") for row in rows)
    return np.frombuffer(packed, np.uint64).reshape(len(rows), width // 8)


@functools.cache
def _encoder_tables():
    """Read-only tables of the encoder, built once from Python ints (int / int
    and float(int) round correctly):

    hi, lo    double-double 10**(16 - e10) for _E_MIN <= e10 <= _E_MAX
    quads     the 10**4 four-digit groups, "d.d.d.d."
    zeros     trailing zeros of each group (4 for 0000)
    heads     sign, "0.000" prefix of length 0 or 2..5, first digit and "."
    masks     per (digits shown, dot slot), the words 0-4 mask
    suffixes  "e+dd" / "e-ddd" per e10, empty where %g prints fixed
    """
    hi, lo = [], []
    for e10 in range(_E_MIN, _E_MAX + 1):
        p = 16 - e10
        if p >= 0:
            exact = 10**p
            head = float(exact)
            lo.append(float(exact - int(head)))
        else:
            scale = 10**-p
            head = 1 / scale
            num, den = head.as_integer_ratio()
            lo.append((den - num * scale) / (den * scale))
        hi.append(head)
    # group abcd as axes (a, b, c, d) of a 10**4 grid
    quads = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    trailing = np.zeros((10, 10, 10, 10), np.int8)
    for axis in range(4):
        shape = [1, 1, 1, 1]
        shape[axis] = 10
        quads[..., 2 * axis] = np.arange(48, 58, dtype=np.uint8).reshape(shape)
        trailing = (np.arange(10) == 0).reshape(shape) * (1 + trailing)
    quads = quads.reshape(-1, 8).view(np.uint64)[:, 0]
    zeros = trailing.ravel().astype(np.int8)
    prefixes = [b"", b"0.", b"0.0", b"0.00", b"0.000"]
    heads = _words([
        sign + prefix.ljust(5, b"\0") + b"%d." % top
        for sign in (b"\0", b"-") for prefix in prefixes for top in range(10)
    ])[:, 0]
    slot = np.arange(34) // 2
    shown = np.arange(18)[:, None, None]
    dot = np.arange(_NO_DOT + 1)[None, :, None]
    keep = np.where(np.arange(34) % 2 == 0, slot < shown, slot == dot).reshape(-1, 34)
    masks = np.full((keep.shape[0], 40), 0xFF, np.uint8)
    masks[:, 6:] *= keep
    masks = masks.view(np.uint64)
    suffixes = _words([
        b"" if -4 <= e10 < 17 else b"e%+03d" % e10 for e10 in range(_E_MIN, _E_MAX + 1)
    ])[:, 0]
    tables = np.array(hi), np.array(lo), quads, zeros, heads, masks, suffixes
    for table in tables:
        table.setflags(write=False)
    return tables


def _split(v):
    """Dekker's split of v into two 26-bit halves, v == head + tail."""
    big = v * _SPLIT
    head = big - (big - v)
    return head, v - head


def _scaled(a, e10):
    """(D, frac) with D + frac = a 10**(16 - e10) to within 2**-47, where
    D is an int64 and 0 <= frac <= 1, for D in [1e16, 1e17)."""
    hi, lo = _encoder_tables()[:2]
    h = hi[e10 - _E_MIN]
    product = a * h
    a_head, a_tail = _split(a)
    h_head, h_tail = _split(h)
    error = ((a_head * h_head - product) + a_head * h_tail + a_tail * h_head) + a_tail * h_tail
    tail = error + a * lo[e10 - _E_MIN]
    whole = np.floor(tail)
    return product.astype(np.int64) + whole.astype(np.int64), tail - whole


def _encode_cells(x) -> np.ndarray:
    """(x.size, _WIDTH) uint8: each cell's ``'%.17g' % x`` in zero-padded
    slots, with the last (separator) byte left 0."""
    a = np.abs(x)
    fast = (a > _FAST[0]) & (a < _FAST[1])
    a = np.where(fast, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    digits, frac = _scaled(a, e10)
    # log10 can miss the decade by one next to a power of ten
    shift = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    again = np.flatnonzero(shift)
    if again.size:
        e10[again] += shift[again]
        digits[again], frac[again] = _scaled(a[again], e10[again])
        # past the far end of the new decade too: |x| is 10**k to within the
        # error, which both decades print as 1e16 in the upper one
        bounced = again[(digits[again] < 10**16) | (digits[again] >= 10**17)]
        e10[bounced] += shift[bounced] < 0
        digits[bounced], frac[bounced] = 10**16, 0.0
    fast &= np.abs(frac - 0.5) > _TIE
    digits += frac > 0.5
    carry = digits == 10**17
    digits[carry] = 10**16
    e10 += carry

    _, _, quads, zeros, heads, masks, suffixes = _encoder_tables()
    top, rest = np.divmod(digits, 10**16)
    groups = []
    for half in np.divmod(rest, 10**8):
        groups.extend(np.divmod(half.astype(np.int32), 10**4))
    # trailing zeros of the 16 digits after the first, which is never 0
    trailing = np.zeros(x.size, np.int8)
    for group in groups:
        trailing = np.where(group == 0, trailing + 4, zeros.take(group))
    kept = 17 - trailing
    fixed = (e10 >= -4) & (e10 < 17)
    whole_part = fixed & (e10 >= 0)
    shown = np.where(whole_part, np.maximum(kept, e10 + 1), kept)
    dot = np.where(whole_part, e10, np.where(fixed, _NO_DOT, 0))
    dot = np.where(shown > dot + 1, dot, _NO_DOT)
    prefix = np.where(fixed & (e10 < 0), -e10, 0)

    cells = np.empty((x.size, _WIDTH // 8), np.uint64)
    cells[:, 0] = heads.take(((x < 0) * 5 + prefix) * 10 + top)
    for i, group in enumerate(groups):
        cells[:, 1 + i] = quads.take(group)
    cells[:, :5] &= masks.take(shown * (_NO_DOT + 1) + dot, axis=0)
    cells[:, 5] = suffixes.take(e10 - _E_MIN)
    slow = np.flatnonzero(~fast)
    if slow.size:
        # % once per distinct bit pattern, so a column of zeros costs one call
        _, first, inverse = np.unique(x[slow].view(np.uint64), return_index=True, return_inverse=True)
        texts = _words([(_FMT % x[slow[i]]).encode("ascii") for i in first])
        cells[slow] = 0
        cells[slow, : texts.shape[1]] = texts[inverse]
    return cells.view(np.uint8)


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
