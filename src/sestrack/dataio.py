"""CSV, SVG and JSON-config input/output, and the figure reproduction
that writes both.

CSV files are UTF-8 with a header row, comma-delimited fields, ``\\n`` newlines
and floats printed at 17 significant digits, which round-trips IEEE
doubles exactly; integer columns are printed as integers.  A CSV is
formatted in chunks of ``_CHUNK_ROWS`` rows, each by one ``%`` operation
on a repeated row template over the chunk's interleaved cells, and
streamed to a path or to an open text stream, so no whole table is held
in memory.  In a chunk, the repeated values of a float column are
formatted once each, with the same bytes: each distinct value (keyed by
the bits of the double it prints as) is printed by ``"%.17g"`` once, and
the chunk's ``%`` takes those texts through ``"%s"``; a chunk whose
strided sample shows few repeats is formatted per cell.  A table of more
than one chunk is formatted on every usable CPU by
``experiments._fork_map``, which hands the chunks back in order, so the
bytes do not depend on the CPU count.

SVG output is a self-contained 800x500 document, built whole; each of its
elements is one ``%`` on a repeated point template.  Each plotted line is
M4-reduced: per pixel column of the plot area it keeps the first, last,
lowest and highest vertex, and every vertex of a column of at most ``_M4``
(4).  A dense plot, with more than 4 steps in some column, draws its
observations as one vertical min-max band per column, so no element holds
more than 4 points per column, whatever the length of the series.

A column that is not real-valued or holds a non-finite float is rejected,
naming the column and row, and an empty plot or one whose value range
overflows a double is refused, before anything is written; a write that
fails part-way deletes the regular file it was writing.  Config documents
are strict JSON (schema_version 1, unknown keys and wrong JSON types
rejected with the failing key path, such as ``config.noise.a``).  Their
codec is one loop over the declared fields (``processes.model_fields``) of
a model or of ``ExperimentConfig``, keys in field order; the constructors
check the types, and the codec prefixes the key path to their SchemaError.

This module sits above ``experiments``: it imports the result types it
writes, and nothing in the numerical modules imports it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import warnings
from dataclasses import MISSING
from pathlib import Path

from ._numpy import np
from .experiments import (
    DEFAULT_FIGURE_SEED,
    FIGURE_ALPHA,
    FIGURE_CONFIGS,
    FIGURE_HORIZON,
    FIGURE_INIT,
    ExperimentConfig,
    MseCurve,
    SmoothedPath,
    _fork_map,
    simulate_smoothed,
)
from .processes import KINDS_OF, SchemaError, _number, model_fields

CONFIG_SCHEMA_VERSION = 1

_CHUNK_ROWS = 4096  # rows (or plotted points) formatted per write
_SAMPLE_STRIDE = 16  # every 16th value of a CSV float chunk samples its repeats
_SCAN_BYTES = 1 << 16  # block size of the plain-file scan
# what csv and np.loadtxt read differently: a quote, CR, NUL, \x1c-\x1f
# (whitespace to numpy, not to float() of ASCII text) and a blank line
_NOT_PLAIN = (b'"', b"\r", b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\n\n")

_SVG_WIDTH = 800
_SVG_HEIGHT = 500
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 62, 18, 18, 42
_PLOT_W = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT  # pixel columns of the plot area
_M4 = 4  # points per pixel column up to which a plot draws every point


def _write(target, parts) -> Path | None:
    """Write the text ``parts``, an iterable of strings, to an open text
    stream, or to a new UTF-8 file at a path, which is returned.  A write
    that fails after opening the path deletes it if it is a regular file."""
    if hasattr(target, "write"):
        target.writelines(parts)
        return None
    path = Path(target)
    handle = open(path, "w", encoding="utf-8", newline="")
    try:
        with handle:
            handle.writelines(parts)
    except BaseException:
        with contextlib.suppress(OSError):  # a link, device or pipe is left alone
            if path.is_file() and not path.is_symlink():
                path.unlink()
        raise
    return path


def _interleave(columns: list[list]) -> list:
    """The cells of the rows whose columns are ``columns``, row by row."""
    width = len(columns)
    cells = [None] * (width * len(columns[0]))
    for j, values in enumerate(columns):
        cells[j::width] = values
    return cells


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _format_chunk(formats: list[str], columns: list[np.ndarray], lo: int) -> str:
    """The ``_CHUNK_ROWS`` rows of ``columns`` from row ``lo``, by one ``%``
    on a repeated row template, once ``_column_cells`` has chosen each
    column's format (from ``formats``) and cells."""
    chunk = [col[lo : lo + _CHUNK_ROWS] for col in columns]
    row, cells = zip(*map(_column_cells, formats, chunk))
    return (",".join(row) + "\n") * len(chunk[0]) % tuple(_interleave(cells))


def _column_cells(fmt: str, part: np.ndarray) -> tuple[str, list]:
    """The format and cells of one CSV column's chunk: ``fmt`` and its
    values, or for a float chunk whose values repeat, ``"%s"`` and their
    texts, each distinct value formatted by ``fmt`` once.  A value is keyed
    by the bits of the double it prints as, so 0.0 and -0.0 stay apart; a
    strided sample of the keys with more than half distinct ones keeps the
    per-cell ``fmt``, which is then the cheaper."""
    if part.dtype.kind != "f":
        return fmt, part.tolist()
    if part.itemsize > 8:  # a longdouble prints as the double it rounds to
        part = part.astype(np.float64)
    bits = f"u{part.itemsize}"
    sample = part[::_SAMPLE_STRIDE].view(bits).tolist()
    if 2 * len(set(sample)) > len(sample):
        return fmt, part.tolist()
    keys = part.view(bits).tolist()
    texts = {key: fmt % value for key, value in dict(zip(keys, part.tolist())).items()}
    return "%s", list(map(texts.__getitem__, keys))


def _csv_text(header: list[str], columns: list[np.ndarray]):
    """Yield the header line, then the rows chunk by chunk, formatted by
    ``_format_chunk``; a table of two or more chunks is formatted on up to
    one process per chunk, capped at the usable CPUs."""
    yield ",".join(header) + "\n"
    formats = ["%d" if col.dtype.kind in "iu" else "%.17g" for col in columns]
    starts = range(0, len(columns[0]), _CHUNK_ROWS)
    format_chunk = functools.partial(_format_chunk, formats, columns)
    yield from _fork_map(format_chunk, starts, len(starts), "CSV formatting")


def _checked(header: list[str], columns) -> list[np.ndarray]:
    """The columns as arrays, once they are known to be writable: as many
    as the header names, of equal length, real-valued and finite.  Runs
    before any output is opened, so a rejected table writes nothing."""
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    columns = [np.asarray(col) for col in columns]
    if len({len(col) for col in columns}) != 1:
        raise ValueError("columns must have equal lengths")
    for name, col in zip(header, columns):
        if col.dtype.kind not in "buif":
            raise ValueError(f"column {name!r} is not real-valued (dtype {col.dtype})")
        if col.dtype.kind == "f" and not np.isfinite(col).all():
            row = int(np.argmin(np.isfinite(col)))
            raise ValueError(f"column {name!r} row {row + 1} is not finite ({col[row]})")
    return columns


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> Path | None:
    """Write equal-length columns as CSV to ``path``, a file path (returned
    as a Path) or an open text stream (None is returned).  The rows are
    closed on the way out, which ends the formatting workers of a failed
    write."""
    with contextlib.closing(_csv_text(header, _checked(header, columns))) as rows:
        return _write(path, rows)


def _row_name(row_number: int) -> str:
    return f"row {row_number}" if row_number else "header"


def _undecodable(path: Path) -> str:
    """Where and why ``path`` is not UTF-8.  The text reader decodes in
    blocks, so the offending line is found again from the raw bytes."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start)
        return f"{_row_name(line)}: not UTF-8 text ({exc})"
    return "not UTF-8 text"


def read_csv_column(path, column: str) -> np.ndarray:
    """Read one numeric column; any unparsable or non-finite entry, malformed
    CSV line or non-UTF-8 byte is an error citing its data row (row 1 is the
    first row after the header).  numpy's streaming C reader parses a plain
    file of finite values; any other file, exception or numpy warning goes
    to the ``csv`` reader, which gives the same array and every message."""
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
    (a pipe could not be read again), its header names the column and a
    streamed scan finds data rows, none of ``_NOT_PLAIN`` and no block
    without a newline (so no line reaches the csv field limit)."""
    if not path.is_file() or csv.field_size_limit() < 2 * _SCAN_BYTES:
        return None
    with open(path, newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle), [])
    if column not in header:
        return None
    rows, block = -1, b"\n"  # the header line is no data row
    with open(path, "rb") as handle:
        while more := handle.read(_SCAN_BYTES):
            block = block[-1:] + more  # so a blank line across two blocks shows
            if b"\n" not in more or any(mark in block for mark in _NOT_PLAIN):
                return None
            rows += more.count(b"\n")
    rows += not block.endswith(b"\n")  # a last line without its newline
    if rows < 1:
        return None
    values = np.loadtxt(path, delimiter=",", comments=None, skiprows=1,
                        usecols=header.index(column), encoding="utf-8", ndmin=1)
    return values if len(values) == rows and np.isfinite(values).all() else None


def _read_column_by_rows(path: Path, column: str) -> np.ndarray:
    """``read_csv_column`` by the ``csv`` reader, one row at a time."""
    header, row_number = None, 0
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: file is empty")
            if column not in header:
                raise ValueError(
                    f"{path}: no column {column!r}; available columns: {', '.join(header)}"
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
        raise ValueError(f"{path}: {_undecodable(path)}") from None
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
    cells = _interleave([col.tolist() for col in columns])
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
    return _write(path, [_svg_text(_checked(header, columns)[0], lines, dots)])


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


# ---------------------------------------------------------------------------
# JSON experiment configs
# ---------------------------------------------------------------------------

def _check_keys(mapping, required: set[str], optional: set[str], where: str, cls=None) -> None:
    """Check the keys of the object ``mapping``, adding those ``cls`` declares."""
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where}: expected an object, got {mapping!r}")
    declared = model_fields(cls) if cls else []
    required = required | {key for _, key, default, _ in declared if default is MISSING}
    optional = optional | {key for _, key, _, _ in declared}
    keys = set(mapping)
    unknown = keys - required - optional
    if unknown:
        allowed = ", ".join(sorted(required | optional))
        raise SchemaError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed keys: {allowed}"
        )
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing required key(s) {sorted(missing)}")


def _encode(obj, document: dict) -> dict:
    """``document`` with each declared field of ``obj`` added, in field order."""
    for attr, key, _, _ in model_fields(type(obj)):
        value = getattr(obj, attr)
        document[key] = (
            list(value) if isinstance(value, tuple)
            else model_to_dict(value) if hasattr(value, "kind") else value
        )
    return document


def _build(cls, data: dict, where: str):
    """``cls`` from the keys of ``data`` it declares, each model object decoded
    first; the constructor's SchemaError is prefixed with the path ``where``."""
    args = {
        attr: model_from_dict(data[key], KINDS_OF[hint], f"{where}.{key}")
        if hint in KINDS_OF else data[key]
        for attr, key, _, hint in model_fields(cls) if key in data
    }
    try:
        return cls(**args)
    except SchemaError as exc:
        raise SchemaError(f"{where}.{exc}") from None


def model_to_dict(model) -> dict:
    """The JSON object of a registered noise or trend model."""
    return _encode(model, {"kind": model.kind})


def model_from_dict(data, kinds: dict[str, type], where: str):
    """Build the model a ``{"kind": ..., key: value, ...}`` object describes.

    ``kinds`` is NOISE_KINDS or TREND_KINDS.  Wrong keys and JSON types raise
    SchemaError naming the failing path below ``where``.
    """
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object, got {data!r}")
    kind = data.get("kind")
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        *head, last = kinds
        raise SchemaError(f"{where}: unknown kind {kind!r}; expected {', '.join(head)} or {last}")
    _check_keys(data, {"kind"}, set(), where, cls)
    return _build(cls, data, where)


def experiment_config_to_dict(config, output: dict | None = None) -> dict:
    document = _encode(config, {"schema_version": CONFIG_SCHEMA_VERSION})
    if output:
        document["output"] = dict(output)
    return document


def experiment_config_from_dict(document):
    """Decode a schema-1 config document; returns (ExperimentConfig, output
    options).  Every key and JSON type is checked: numbers must be JSON
    numbers, counts and the seed JSON integers, never bools or strings."""
    _check_keys(document, {"schema_version"}, {"output"}, "config", ExperimentConfig)
    version = _number(document["schema_version"], int, "config.schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise SchemaError(
            f"config: schema_version {version!r} not supported; expected {CONFIG_SCHEMA_VERSION}"
        )
    output = document.get("output", {})
    _check_keys(output, set(), {"csv", "svg"}, "config.output")
    for key, value in output.items():
        if not isinstance(value, str):
            raise SchemaError(f"config.output.{key}: expected a path string, got {value!r}")
    return _build(ExperimentConfig, document, "config"), dict(output)


def load_experiment_config(path):
    """Read a strict JSON config; returns (ExperimentConfig, output options)."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    return experiment_config_from_dict(document)


def save_experiment_config(config, path, output: dict | None = None) -> Path:
    path = Path(path)
    document = experiment_config_to_dict(config, output)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path
