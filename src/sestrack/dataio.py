"""CSV and SVG input/output, and the figure reproduction that writes both.

CSV files are UTF-8 with a header row, comma-delimited fields, ``\\n`` newlines
and floats printed at 17 significant digits, which round-trips IEEE
doubles exactly; integer columns are printed as integers.  A CSV is
formatted in chunks of ``_CHUNK_ROWS`` rows and streamed to a path or to
an open text stream, so no whole table is held in memory.  Each column
chunk becomes a byte matrix by a vectorized kernel that prints exactly
what ``"%d"`` or ``"%.17g"`` would, handing the few cells it cannot prove
to ``"%.17g"`` itself.  The matrices are copied once into one row matrix,
whose bytes, less the NUL padding that one ``bytes.replace`` takes out,
are the chunk's rows.  A file is written those bytes in binary mode, a
text stream gets them decoded.  Every chunk is formatted in the calling
process: with this kernel, forking the chunks over CPUs cost more than it
saved.

SVG output is a self-contained 800x500 document, built whole; each of its
elements is one ``%`` on a repeated point template.  Each plotted line is
M4-reduced: per pixel column of the plot area it keeps the first, last,
lowest and highest vertex, and every vertex of a column of at most ``_M4``
(4).  A dense plot, with more than 4 steps in some column, draws its
observations as one vertical min-max band per column, so no element holds
more than 4 points per column, whatever the length of the series.

A column name holding a comma, quote, CR or LF, which the unquoted header
cannot carry, is rejected, naming it; a column that is not real-valued or
holds a float not finite as a double is rejected, naming the column and
row; and an empty plot or one whose value range overflows a double is
refused, before anything is written; a write that fails part-way deletes
the regular file it was writing.

The JSON config codec lives in ``config``, which loads none of this
module's dependencies.  This module sits above ``experiments``: it imports
the result types it writes, and nothing in the numerical modules imports
it, so only a command that writes or reads a CSV or SVG file loads it
(``cli`` calls its functions by their names in the package namespace,
which loads it on first use).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import warnings
from pathlib import Path

from ._numpy import np
from .config import DEFAULT_FIGURE_SEED
from .experiments import (
    FIGURE_ALPHA, FIGURE_CONFIGS, FIGURE_HORIZON, FIGURE_INIT, MseCurve, SmoothedPath,
    simulate_smoothed,
)

_CHUNK_ROWS = 8192  # CSV rows formatted per write
_K_MIN, _K_MAX = -291, 290  # decimal exponents of |x| in [1e-290, 1e290]
_TIE = 2.0**-44  # distance from a half-integer below which a cell falls back
_SCAN_BYTES = 1 << 16  # block size of the plain-file scan
# what csv and np.loadtxt read differently: a quote, CR, NUL and \x1c-\x1f
# (whitespace to numpy, not to float() of ASCII text); a blank line, which
# np.loadtxt skips, leaves it a value short of the newline count
_NOT_PLAIN = (b'"', b"\r", b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")

_SVG_WIDTH = 800
_SVG_HEIGHT = 500
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 62, 18, 18, 42
_PLOT_W = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT  # pixel columns of the plot area
_M4 = 4  # points per pixel column up to which a plot draws every point


def _write(target, parts) -> Path | None:
    """Write ``parts``, an iterable of UTF-8 bytes, to a new file at a path,
    in binary mode, which is returned, or decoded to an open text stream.  A
    write that fails after opening the path deletes it if it is a regular
    file."""
    if hasattr(target, "write"):
        target.writelines(part.decode("utf-8") for part in parts)
        return None
    path = Path(target)
    handle = open(path, "wb")
    try:
        with handle:
            handle.writelines(parts)
    except BaseException:
        with contextlib.suppress(OSError):  # a link, device or pipe is left alone
            if path.is_file() and not path.is_symlink():
                path.unlink()
        raise
    return path


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _pow10_table() -> np.ndarray:
    """Rows hi, hh, hl, lo over q = 16 - k, k from ``_K_MAX`` down to
    ``_K_MIN``: 10**q = hi + lo as a double-double, correctly rounded by int
    division, and hi = hh + hl split in halves of at most 26 bits (Dekker's
    split, in integers, so that nothing overflows near 10**308)."""
    rows = []
    for q in range(16 - _K_MAX, 17 - _K_MIN):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        hi = num / den
        a, b = hi.as_integer_ratio()
        mantissa, exp = math.frexp(hi)
        m = int(math.ldexp(mantissa, 53))
        h = (m + (1 << 26)) >> 27 << 27
        rows.append((hi, math.ldexp(h, exp - 53), math.ldexp(m - h, exp - 53),
                     (num * b - a * den) / (den * b)))
    return np.array(rows).T.copy()


_POW10 = _pow10_table()
_ROW = np.arange(24, dtype=np.uint8)[:, None]  # row numbers of a (bytes, cells) matrix
_TENS = (10 ** np.arange(20, dtype=np.uint64))[:, None]  # 10**i in row i


def _digits(v: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digits of ``v`` (integers below 10**width, width <= 20),
    one row per position, zero-padded.  Int division cuts each number into
    uint32 lanes of 8 digits, dividing in uint32 once the rest fits; then
    every lane halves at once, into uint16 lanes of 4 digits, uint8 lanes of
    2 and single digits."""
    lanes = np.empty(((width + 7) // 8, len(v)), np.uint32)
    rest = width  # digits left in v
    for i in range(len(lanes) - 1, 0, -1):  # the lowest 8 digits first
        if rest <= 9:
            v = v.astype(np.uint32)
        q = v // 10**8
        np.subtract(v, q * 10**8, out=lanes[i], casting="unsafe")
        v, rest = q, rest - 8
    lanes[0] = v
    for unit, dtype in ((10**4, np.uint16), (100, np.uint8), (10, np.uint8)):
        q = lanes // unit
        halves = np.empty((len(lanes), 2, len(v)), dtype)
        halves[:, 0] = q
        np.subtract(lanes, q * unit, out=halves[:, 1], casting="unsafe")
        lanes = halves.reshape(-1, len(v))
    digits = lanes[len(lanes) - width :]
    digits += 48
    return digits


def _int_cells(part: np.ndarray) -> np.ndarray:
    """``"%d"`` of an integer or bool column chunk as a (bytes, cells)
    matrix padded with NULs: a sign row if any cell is negative, then the
    digits of the uint64 magnitude (exact for int64's minimum and for all of
    uint64)."""
    negative = part < 0
    magnitude = part.astype(np.uint64)
    magnitude[negative] = np.uint64(0) - magnitude[negative]
    width = len(str(magnitude.max()))
    digits = _digits(magnitude, width)
    digits[:-1] *= magnitude >= _TENS[width - 1 : 0 : -1]  # digit i shows if magnitude >= 10**i
    return np.concatenate([np.uint8(45) * negative[None], digits]) if negative.any() else digits


def _float_cells(part: np.ndarray) -> np.ndarray:
    """``"%.17g"`` of a float column chunk, cast to float64, as a (bytes,
    cells) matrix padded with NULs.  For 1e-290 <= |x| <= 1e290, k =
    floor(log10 |x|) is estimated by ``np.log10`` and y = |x| * 10**(16 - k)
    formed as p + t: p + e = |x| * hi exactly (Dekker's two-product), t = e
    + |x| * lo.  As y < 2**57, p + t is within 2**-47 of y: |x| * |10**q -
    hi - lo| <= 2**-106 * y, rounding |x| * lo (at most 16) costs 2**-49 and
    rounding e + |x| * lo (below 32) 2**-48.  So y rounds to the right
    17-digit N unless its fraction is within ``_TIE`` (2**-44) of 1/2, as at
    exact ties such as 1049 * 2**-20, or floor(y) or N leaves [10**16,
    10**17), as when k is one off (a y within 2**-47 below 10**16 prints
    the same either way).  Those cells and any other nonzero |x|,
    subnormals too, go to ``_fallback``.  N is laid out by ``%g``'s rules:
    fixed notation for -4 <= k < 17, else an exponent of two digits at
    least; trailing zeros stripped; "-0" for -0.0.  The matrix holds only
    rows some cell uses: a sign row if a cell is negative, the "0.000" rows
    of the widest small cell, the body rows of the longest digits, and the
    exponent rows if a cell has one or falls back.  Nothing overflows, so
    numpy warns of nothing."""
    x = part.astype(np.float64, copy=False)
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-290) & (a <= 1e290)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int16)
    hi, hh, hl, lo = np.take(_POW10, _K_MAX - k, axis=1)
    p = a * hi
    c = a * 134217729.0  # Dekker's split of a into halves of at most 26 bits
    ah = c - (c - a)
    al = a - ah
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    t_floor = np.floor(t)
    below = p.astype(np.int64) + t_floor.astype(np.int64)  # floor(y), as p >= 2**53 is whole
    frac = t - t_floor
    n = below + (frac > 0.5)
    fast &= (below >= 10**16) & (n < 10**17) & (np.abs(frac - 0.5) > _TIE)
    n[zero] = k[zero] = 0
    fast |= zero
    digits = _digits(n, 17)
    expo = (k < -4) | (k > 16)
    small = (k < 0) & ~expo
    whole = np.where(expo | small, 0, k).astype(np.uint8)  # digits before the point, less one
    point = np.where(small, 17, whole + 1)  # the body row of the point
    # digits kept: to the last nonzero one, and every one before the point
    end = np.maximum((_ROW[1:18] * (digits != 48)).max(axis=0), whole + 1)
    sign = np.signbit(x)
    zeros = np.where(small, 1 - k, 0)  # the bytes of "0.000" before a small cell's digits
    # body rows in use, digits kept and the point; all 18 where a fallback text needs room
    size = int((end + (end > point)).max()) if fast.all() else 18
    signed, lead = int(sign.any()), int(zeros.max())
    top = signed + lead + size
    cells = np.empty((top + 5 * (expo.any() or not fast.all()), len(x)), np.uint8)
    if signed:
        np.multiply(np.uint8(45), sign, out=cells[0])
    np.multiply(np.frombuffer(b"0.000", np.uint8)[:lead, None], _ROW[:lead] < zeros,
                out=cells[signed : signed + lead])
    body = cells[signed + lead : top]  # digit i in row i before the point, in row i + 1 after it
    before = min(size, 17)
    np.multiply(digits[:before], _ROW[:before] < np.minimum(point, end), out=body[:before])
    body[before:] = 0
    after = _ROW[: size - 1]
    body[1:] += digits[: size - 1] * ((after >= point) & (after < end))
    body += np.uint8(46) * ((_ROW[:size] == point) & (end > point))
    if len(cells) > top:  # an exponent, or room for a fallback text (24 bytes if signed)
        e = np.abs(k)
        suffix = cells[top:]
        suffix[0] = 101
        suffix[1] = np.where(k < 0, 45, 43)
        suffix[2:] = _digits(e, 3)
        suffix[2] *= e >= 100
        suffix *= expo
    _fallback(cells, x, np.flatnonzero(~fast))
    return cells


def _fallback(cells: np.ndarray, x: np.ndarray, rows: np.ndarray) -> None:
    """Overwrite the cells of ``rows`` with ``"%.17g"`` of their values."""
    for i in rows.tolist():
        text = np.frombuffer(b"%.17g" % x[i], np.uint8)
        cells[:, i] = 0
        cells[: len(text), i] = text


def _format_chunk(formats: list, columns: list[np.ndarray], lo: int) -> bytes:
    """The ``_CHUNK_ROWS`` rows of ``columns`` from row ``lo`` as ASCII
    bytes.  Each column's cells, by its kernel in ``formats``, are copied
    once into their slot of one (rows, width) row matrix, each slot followed
    by its separator column; its bytes in row order, less the NULs that one
    ``bytes.replace`` takes out, are the rows."""
    parts = [cells(col[lo : lo + _CHUNK_ROWS]) for cells, col in zip(formats, columns)]
    ends = np.cumsum([len(part) + 1 for part in parts])
    table = np.empty((parts[0].shape[1], ends[-1]), np.uint8)
    for part, end in zip(parts, ends):
        table[:, end - 1 - len(part) : end - 1] = part.T
    table[:, ends - 1] = 44
    table[:, -1] = 10  # the last column ends its row
    return table.tobytes().replace(b"\0", b"")


def _csv_text(header: list[str], columns: list[np.ndarray]):
    """Yield the header line, UTF-8 encoded, then the rows chunk by chunk,
    each formatted by ``_format_chunk`` in this process."""
    yield (",".join(header) + "\n").encode("utf-8")
    formats = [_float_cells if col.dtype.kind == "f" else _int_cells for col in columns]
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        yield _format_chunk(formats, columns, lo)


def _checked(header: list[str], columns) -> list[np.ndarray]:
    """The columns as arrays, once they are known to be writable: named by a
    header field the unquoted CSV can carry (no comma, quote, CR or LF), at
    least one, as many as the header names, one-dimensional, of equal
    length, real-valued and finite.  Runs before any output is opened, so a
    rejected table writes nothing."""
    for name in header:
        if any(c in name for c in ',"\r\n'):
            raise ValueError(f"column name {name!r} holds a comma, quote or line break, "
                             "which an unquoted CSV header cannot carry")
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    if not columns:
        raise ValueError("a table needs at least one column")
    columns = [np.asarray(col) for col in columns]
    for name, col in zip(header, columns):
        if col.ndim != 1:
            raise ValueError(f"column {name!r} is not one-dimensional (shape {col.shape})")
    if len({len(col) for col in columns}) != 1:
        raise ValueError("columns must have equal lengths")
    for name, col in zip(header, columns):
        if col.dtype.kind not in "buif":
            raise ValueError(f"column {name!r} is not real-valued (dtype {col.dtype})")
        if col.dtype.kind == "f":
            with np.errstate(over="ignore"):  # a longdouble past the doubles casts to inf
                finite = np.isfinite(col.astype(np.float64, copy=False))
            if not finite.all():
                row = int(np.argmin(finite))
                raise ValueError(f"column {name!r} row {row + 1} is not finite ({col[row]!s})")
    return columns


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> Path | None:
    """Write equal-length columns as CSV to ``path``, a file path (returned
    as a Path) or an open text stream (None is returned)."""
    return _write(path, _csv_text(header, _checked(header, columns)))


def _row_name(row_number: int) -> str:
    return f"row {row_number}" if row_number else "header"


def _undecodable(data: bytes) -> str:
    """Where and why ``data`` is not UTF-8.  The text reader decodes in
    blocks, so the offending line is found again in the whole input."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start)
        return f"{_row_name(line)}: not UTF-8 text ({exc})"
    return "not UTF-8 text"


def read_csv_column(path, column: str) -> np.ndarray:
    """Read one numeric column; a header naming it more than once is an
    error, and any unparsable or non-finite entry, malformed CSV line or
    non-UTF-8 byte is an error citing its data row (row 1 is the first row
    after the header).  numpy's streaming C reader parses a plain file of
    finite values; any other file, exception or numpy warning goes to the
    ``csv`` reader, which gives the same array and every message."""
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _read_plain_column(path, column)
    except Exception:  # the csv reader decides, and words any error
        values = None
    return _read_column_by_rows(path, column) if values is None else values


def _read_plain_column(path: Path, column: str) -> np.ndarray | None:
    """The column by ``np.loadtxt``, or None unless the file is a regular one
    (a pipe could not be read again), a streamed scan finds data rows, none
    of ``_NOT_PLAIN`` and no block without a newline (so no line reaches the
    csv field limit), the first line's comma-split fields (csv's row for a
    line free of quotes) name the column once, and ``np.loadtxt`` returns
    one finite value per line.  A blank line, which ``np.loadtxt`` skips,
    leaves the values one short of the lines counted; csv words the error."""
    if not path.is_file() or csv.field_size_limit() < 2 * _SCAN_BYTES:
        return None
    rows, end = -1, b"\n"  # the header line is no data row
    with open(path, "rb") as handle:
        while block := handle.read(_SCAN_BYTES):
            if b"\n" not in block or any(mark in block for mark in _NOT_PLAIN):
                return None
            if rows < 0:
                line = block[: block.index(b"\n")].decode("utf-8")
                header = line.split(",") if line else []  # csv reads a blank line as []
            rows, end = rows + block.count(b"\n"), block[-1:]
    rows += end != b"\n"  # a last line without its newline
    if rows < 1 or header.count(column) != 1:
        return None
    values = np.loadtxt(path, delimiter=",", comments=None, skiprows=1,
                        usecols=header.index(column), encoding="utf-8", ndmin=1)
    return values if len(values) == rows and np.isfinite(values).all() else None


def _read_column_by_rows(path: Path, column: str) -> np.ndarray:
    """``read_csv_column`` by the ``csv`` reader, over the input read once."""
    data = path.read_bytes()
    header, row_number = None, 0
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: file is empty")
            if column not in header:
                raise ValueError(
                    f"{path}: no column {column!r}; available columns: {', '.join(header)}"
                )
            if header.count(column) > 1:
                raise ValueError(
                    f"{path}: column {column!r} is named {header.count(column)} times in the header"
                )
            index = header.index(column)
            values = []
            for row_number, row in enumerate(reader, start=1):
                if index >= len(row):
                    raise ValueError(f"{path}: row {row_number}: missing field {column!r}")
                text = row[index]
                try:
                    value = float(text)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {row_number}: cannot parse {text!r} in column {column!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {row_number}: non-finite value {text!r} in column {column!r}"
                    )
                values.append(value)
    except csv.Error as exc:  # raised while reading the row after the last one parsed
        failed = row_number + 1 if header is not None else 0
        raise ValueError(f"{path}: {_row_name(failed)}: {exc}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: {_undecodable(data)}") from None
    return np.array(values)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def _scales(xs: np.ndarray, ys: np.ndarray):
    x0, x1 = float(xs.min()), float(xs.max())
    lo, hi = float(ys.min()), float(ys.max())
    pad = 0.05 * ((hi - lo) or 1.0)
    y0, y1 = lo - pad, hi + pad
    if y0 == y1:  # a constant too large for the unit pad to move
        y0, y1 = lo - 0.05 * abs(lo), hi + 0.05 * abs(hi)
    if not math.isfinite(y1 - y0):
        raise ValueError(f"cannot plot values from {lo!r} to {hi!r}: their range overflows a double")
    xspan = (x1 - x0) or 1.0
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # applied to a float or elementwise to an array: the same IEEE operations
    def px(x):
        return _MARGIN_LEFT + (x - x0) / xspan * _PLOT_W

    def py(y):
        return _SVG_HEIGHT - _MARGIN_BOTTOM - (y - y0) / (y1 - y0) * plot_h

    return px, py, (x0, x1, y0, y1)


def _axes(px, py, limits) -> list[str]:
    x0, x1, y0, y1 = limits
    parts = [
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" '
        f'width="{_PLOT_W}" '
        f'height="{_SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM}" '
        'fill="none" stroke="#555555" stroke-width="1"/>'
    ]
    for tick in np.linspace(x0, x1, 5):
        x = px(float(tick))
        parts.append(
            f'<line x1="{x:.2f}" y1="{_SVG_HEIGHT - _MARGIN_BOTTOM}" '
            f'x2="{x:.2f}" y2="{_SVG_HEIGHT - _MARGIN_BOTTOM + 5}" stroke="#555555"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_SVG_HEIGHT - _MARGIN_BOTTOM + 18}" '
            f'text-anchor="middle">{tick:.6g}</text>'
        )
    for tick in np.linspace(y0, y1, 5):
        y = py(float(tick))
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.2f}" '
            f'x2="{_MARGIN_LEFT}" y2="{y:.2f}" stroke="#555555"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" '
            f'text-anchor="end">{tick:.6g}</text>'
        )
    return parts


def _legend(entries: list[tuple[str, str]]) -> list[str]:
    parts = []
    x = _MARGIN_LEFT + 12
    y = _MARGIN_TOP + 16
    for label, color in entries:
        parts.append(
            f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(f'<text x="{x + 28}" y="{y}">{label}</text>')
        y += 17
    return parts


def _points(opening: str, template: str, columns: list[np.ndarray], closing: str) -> str:
    """One element whose body is ``template`` formatted at each row of
    ``columns``, space-separated, by one ``%``."""
    cells = np.column_stack(columns).ravel().tolist()  # row by row
    return opening + " ".join([template] * len(columns[0])) % tuple(cells) + closing


def _m4(starts: np.ndarray, counts: np.ndarray, y_px: np.ndarray) -> np.ndarray:
    """The indices, in order, of the vertices M4 keeps of a line whose pixel
    columns begin at ``starts`` and hold ``counts`` points: each column's
    first, last, lowest and highest vertex (the first of equal ones), and
    every vertex of a column of at most ``_M4``."""
    keep = np.repeat(counts <= _M4, counts)
    column = np.repeat(np.arange(len(starts)), counts)
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(y_px == extreme.reduceat(y_px, starts)[column])
        keep[hits[np.diff(column[hits], prepend=-1) != 0]] = True
    keep[starts] = keep[starts + counts - 1] = True
    return np.flatnonzero(keep)


def _svg_text(steps, lines: list[tuple[str, np.ndarray, str]], dots=None):
    """The plot document, as one string: ``dots`` (if given) as light
    points, then one polyline per (label, values, color) entry, M4-reduced,
    and a legend.  An empty series or a range that cannot be scaled is
    refused here, so before a target is opened.  A dense plot, with more
    than ``_M4`` steps in some pixel column, draws the dots as one vertical
    min-max band per column."""
    xs = np.asarray(steps, dtype=float)
    if not len(xs):
        raise ValueError("cannot plot an empty series: it has no steps")
    series = [np.asarray(ys, dtype=float) for _, ys, _ in lines]
    legend = [(label, color) for label, _, color in lines]
    if dots is not None:
        dots = np.asarray(dots, dtype=float)
        legend.insert(0, ("observations", "#9db8d9"))
    px, py, limits = _scales(xs, np.concatenate(([] if dots is None else [dots]) + series))
    x_px = px(xs)
    # steps increase, so each pixel column's points are one run
    column = np.minimum(np.floor(x_px - _MARGIN_LEFT), _PLOT_W - 1)
    starts = np.flatnonzero(np.diff(column, prepend=-1.0))
    counts = np.diff(starts, append=len(xs))
    head = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" '
        'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="#ffffff"/>',
        *_axes(px, py, limits),
    ]
    elements = []
    if dots is not None and counts.max() > _M4:  # a column of equal values shows as a dot of radius 1.4
        dots_px = py(dots)
        band = [column[starts] + (_MARGIN_LEFT + 0.5),
                np.minimum.reduceat(dots_px, starts), np.maximum.reduceat(dots_px, starts)]
        elements.append(_points(
            '<path d="', "M%.2f,%.2fV%.2f", band, '" fill="none" stroke="#9db8d9" '
            'stroke-opacity="0.55" stroke-width="2.8" stroke-linecap="round"/>\n',
        ))
    elif dots is not None:
        elements.append(_points(
            '<g fill="#9db8d9" fill-opacity="0.55" stroke="none">',
            '<circle cx="%.2f" cy="%.2f" r="1.4"/>', [x_px, py(dots)], "</g>\n",
        ))
    for ys, (_, _, color) in zip(series, lines):
        y_px = py(ys)
        kept = _m4(starts, counts, y_px)
        elements.append(_points('<polyline points="', "%.2f,%.2f", [x_px[kept], y_px[kept]],
                                f'" fill="none" stroke="{color}" stroke-width="1.6"/>\n'))
    tail = "\n".join([*_legend(legend), "</svg>"]) + "\n"
    return "\n".join(head) + "\n" + "".join(elements) + tail


def write_results(result, path, fmt: str = "csv") -> Path | None:
    """Persist a smoothed path, an MSE curve, or a bare trajectory array.

    ``path`` is a file path (returned as a Path) or an open text stream
    (None is returned); ``fmt`` is "csv" or "svg".
    """
    if fmt not in ("csv", "svg"):
        raise ValueError(f'format must be "csv" or "svg", got {fmt!r}')
    dots = None
    if isinstance(result, SmoothedPath):
        header = ["t", "x", "m_star", "m_hat"]
        columns = [result.steps, result.observations, result.trend, result.estimates]
        lines = [("trend", result.trend, "#222222"), ("estimate", result.estimates, "#d0442c")]
        dots = result.observations
    elif isinstance(result, MseCurve):
        header = ["t", "mse", "stderr"]
        columns = [np.arange(1, len(result.mean) + 1), result.mean, result.stderr]
        lines = [("mean squared tracking error", result.mean, "#d0442c")]
    elif isinstance(result, np.ndarray) and result.ndim == 1:
        header, columns = ["t", "value"], [np.arange(1, len(result) + 1), result]
        lines = [("value", result, "#d0442c")]
    else:
        raise TypeError(f"cannot write results of type {type(result).__name__}")
    if fmt == "csv":
        return write_csv(path, header, columns)
    return _write(path, [_svg_text(_checked(header, columns)[0], lines, dots).encode("utf-8")])


def reproduce_figure(
    figure: str, outdir, seed: int = DEFAULT_FIGURE_SEED
) -> list[Path]:
    """Re-run one of the published single-trajectory configurations.

    Writes ``fig<id>.csv`` (columns t, x, m_star, m_hat) and a matching
    overlay plot ``fig<id>.svg`` into ``outdir``; returns both paths.  The
    published plots carry no seed, so reproduction is qualitative: any seed
    lands in the same tracking neighbourhood.
    """
    if figure not in FIGURE_CONFIGS:
        valid = ", ".join(sorted(FIGURE_CONFIGS))
        raise ValueError(f"unknown figure id {figure!r}; valid ids: {valid}")
    noise, trend = FIGURE_CONFIGS[figure]
    smoothed = simulate_smoothed(
        noise, trend, FIGURE_ALPHA, FIGURE_HORIZON, seed, FIGURE_INIT
    )
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = write_results(smoothed, outdir / f"fig{figure}.csv", "csv")
    svg_path = write_results(smoothed, outdir / f"fig{figure}.svg", "svg")
    return [csv_path, svg_path]
