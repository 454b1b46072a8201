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

Each file is streamed as bytes into a temp file beside it, a block of
``_BLOCK_ROWS`` rows at a time, and then renamed over it, so writing needs
memory for one block and a failed write leaves neither file behind.

Tables under one block are formatted by ``%``; numpy encodes larger ones
a block at a time.  For each cell it takes the decade ``e10`` exactly:
``floor(log10|x|)`` corrected against the least doubles at or above
``10**e10`` and ``10**(e10 + 1)``.  It forms ``|x| 10**(16 - e10)`` as an
exact double-double (Dekker's split product with a double-double power of
ten, from the same table), so the 17-digit integer and its fraction are
known to within 2**-47.  It rounds to nearest, moves a carry
to the next decade, and lays out the digits, sign, ``0.000`` prefix, ``.``
and ``e+dd`` suffix as ``%.17g`` does.  Cells it cannot prove take their
text from ``%``, once per distinct value: zeros, nan, inf, ``|x|`` outside
(1e-280, 1e280), and fractions within 2**-30 of one half (possible ties).
"""

from __future__ import annotations

import functools
import os

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


def _atomic_write(path, chunks):
    """Write the byte strings ``chunks`` to ``path`` by a new temp file (mode
    0o666 less the umask) and a rename; an OSError that stops it names ``path``, not the temp file."""
    tmp = None
    try:
        name = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}.part")
        with open(name, "xb") as handle:
            tmp = name
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def atomic_write_text(path, text: str):
    _atomic_write(path, [text.encode("utf-8")])


def _table_chunks(header: str, columns):
    """The CSV of ``columns`` as bytes: the header line, then each block of rows."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows, width = len(columns[0]), len(columns)
    yield (header + "\n").encode("ascii")
    for start in range(0, rows, _BLOCK_ROWS):
        block = np.column_stack([c[start : start + _BLOCK_ROWS] for c in columns])
        if rows < _BLOCK_ROWS:  # below one block, building the encoder's tables costs more than %
            yield (((",".join([_FMT] * width) + "\n") * rows) % tuple(block.ravel().tolist())).encode("ascii")
        else:
            cells = _encode_cells(block.ravel())
            cells[:, -1] = ord(",")
            cells[width - 1 :: width, -1] = ord("\n")
            yield cells.tobytes().translate(None, b"\0")


# A cell is laid out in six 8-byte words, and the zero bytes are dropped:
#   0     sign, "0.000" prefix, first digit, "."
#   1-4   four groups of four digits, each digit followed by a "." slot
#   5     "e-ddd" suffix, then the separator in byte 47
# A mask word clears the digits past the last one shown and every "." but
# the one shown.  A "%.17g" cell is at most 24 characters.
_WIDTH = 48
_BLOCK_ROWS = 2048
_FAST = (1e-280, 1e280)
_E_MIN, _E_MAX = -282, 282  # the e10 the fast path meets, a carry included
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
    rounds correctly):

    hi, lo    double-double 10**p for _E_MIN <= p <= 16 - _E_MIN
    least     the least double at or above 10**p
    quads     the 10**4 four-digit groups, "d.d.d.d."
    zeros     trailing zeros of each group (4 for 0000)
    heads     sign, "0.000" prefix of length 0 or 2..5, first digit and "."
    masks     per (digits shown, dot slot), the words 0-4 mask
    suffixes  "e+dd" / "e-ddd" per e10, empty where %g prints fixed
    """
    hi, lo = [], []
    for p in range(_E_MIN, 17 - _E_MIN):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        head = num / den
        head_num, head_den = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * head_den - head_num * den) / (den * head_den))
    hi, lo = np.array(hi), np.array(lo)
    least = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
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
    tables = hi, lo, least, quads, zeros, heads, masks, suffixes
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
    D is an int64 and 0 <= frac <= 1, for a in [10**e10, 10**(e10 + 1))."""
    hi, lo = _encoder_tables()[:2]
    row = 16 - e10 - _E_MIN
    h = hi[row]
    product = a * h
    a_head, a_tail = _split(a)
    h_head, h_tail = _split(h)
    error = ((a_head * h_head - product) + a_head * h_tail + a_tail * h_head) + a_tail * h_tail
    tail = error + a * lo[row]
    whole = np.floor(tail)
    return product.astype(np.int64) + whole.astype(np.int64), tail - whole


def _encode_cells(x) -> np.ndarray:
    """(x.size, _WIDTH) uint8: each cell's ``'%.17g' % x`` in zero-padded
    slots, with the last (separator) byte left 0."""
    a = np.abs(x)
    fast = (a > _FAST[0]) & (a < _FAST[1])
    a = np.where(fast, a, 1.0)
    least, quads, zeros, heads, masks, suffixes = _encoder_tables()[2:]
    e10 = np.floor(np.log10(a)).astype(np.int64)
    # the decade exactly, 10**e10 <= a < 10**(e10 + 1): floor(log10) is one off next to a power of ten
    e10 += (a >= least[e10 + 1 - _E_MIN]).astype(np.int64) - (a < least[e10 - _E_MIN])
    digits, frac = _scaled(a, e10)
    fast &= np.abs(frac - 0.5) > _TIE
    digits += frac > 0.5
    carry = digits == 10**17
    digits[carry] = 10**16
    e10 += carry

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
    _atomic_write(path, _table_chunks(header, [axis, values.real, values.imag]))


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
    """Returns (detunings, chi) arrays; the caller resamples as needed.  A
    passive medium has Im chi >= 0, so a gain medium is refused."""
    _, (w, re, im) = _read_table(path, SUSCEPTIBILITY_HEADER)
    _uniform_step(w, f"detuning axis of {path}")
    if np.any(im < 0.0):
        worst = int(np.argmin(im))
        raise ConfigError(f"susceptibility CSV {path}: Im chi reads {float(im[worst])!r} at detuning "
                          f"{float(w[worst])!r} 1/ps; a passive medium has Im chi >= 0 (is it gain, or conj(chi) "
                          "under exp(-i w t)?)")
    return w, re + 1j * im


def write_correlation_csv(path, curve):
    _atomic_write(path, _table_chunks(CORRELATION_HEADER, [curve.delays, curve.intensity]))


def write_scan_csv(path, points):
    cols = [[p.intensity for p in points], [p.delay_ps for p in points], [p.loss_db for p in points]]
    _atomic_write(path, _table_chunks(SCAN_HEADER, cols))


def write_analytic_csv(path, d0, delay, loss, dbp):
    _atomic_write(path, _table_chunks(ANALYTIC_HEADER, [d0, delay, loss, dbp]))


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


def _read_text(path) -> str:
    """The text of the UTF-8 input file ``path``; ConfigError naming the
    file when it cannot be opened or decoded."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading byte-order mark is dropped
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _read_table(path, *headers: str):
    """(header, columns) of a CSV: a header line, one of ``headers``, then rows
    of comma-separated numbers.  Empty lines are skipped; ``#`` starts no comment."""
    header, _, body = _read_text(path).partition("\n")
    header = header.strip()
    if header not in headers:
        expected = " or ".join(map(repr, headers))
        raise ConfigError(f"unexpected CSV header {header!r} in {path}; expected {expected}")
    if not body or body.isspace():  # not strip(): that copies the body
        raise ConfigError(f"malformed CSV {path}: no data rows")
    lines, width = body.split("\n"), len(header.split(","))  # not splitlines(): a form feed ends no line
    try:
        body = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        body = None
    if body is None or body.shape[1] != width or not np.all(np.isfinite(body)):
        raise ConfigError(f"malformed CSV {path}: {_row_fault(lines, width)}")
    return header, tuple(body.T)


def _row_fault(lines, width: int) -> str:
    """The first of the body ``lines`` that is not ``width`` finite numbers, by its line in the
    file: the header is line 1, and the empty lines np.loadtxt skips are counted."""
    for number, line in enumerate(lines, start=2):
        cells = line.split(",") if line else []
        if cells and len(cells) != width:
            return f"line {number} has {len(cells)} cell{'s' * (len(cells) != 1)}, the header has {width} columns"
        for cell in cells:
            try:  # float() takes what np.loadtxt takes, and also underscores and non-ASCII digits
                value = float(cell if cell.isascii() and "_" not in cell else "?")
            except ValueError:
                return f"line {number}: {cell!r} is not a number"
            if not np.isfinite(value):
                return f"line {number}: {cell!r} is not a finite number"
    return f"a row is not {width} finite numbers"


def _uniform_step(x: np.ndarray, what: str) -> float:
    if x.size < 2:
        raise ConfigError(f"{what} needs at least 2 samples")
    dt = float(x[-1] - x[0]) / (x.size - 1)
    if dt <= 0 or np.max(np.abs(np.diff(x) - dt)) > 1e-9 * abs(dt):
        raise ConfigError(f"{what} must be uniformly increasing")
    return dt
