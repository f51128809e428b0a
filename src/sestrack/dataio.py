"""CSV, SVG and JSON-config input/output, and the figure reproduction
that writes both.

CSV files are UTF-8 with a header row, comma separators, ``\\n`` newlines
and floats printed at 17 significant digits, which round-trips IEEE
doubles exactly; integer columns are printed as integers.  SVG output is a
self-contained 800x500 document.  Both are formatted in chunks of
``_CHUNK_ROWS`` rows (or points), each by one ``%`` operation on a repeated
row template over the chunk's interleaved cells, and streamed to a path or
to an open text stream, so no whole document is held in memory.  A column
that is not real-valued or holds a non-finite float is rejected, naming
the column and row, before anything is written.  Config documents are
strict JSON (schema_version 1, unknown keys and wrong JSON types rejected
with the failing key path, such as ``config.noise.a``).  Their codec is one
loop over the declared fields (``processes.model_fields``) of a model or of
``ExperimentConfig``: keys in field order, each value decoded by its type.

This module sits above ``experiments``: it imports the result types it
writes, and nothing in the numerical modules imports it.
"""

from __future__ import annotations

import csv
import itertools
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
    simulate_smoothed,
)
from .processes import NOISE_KINDS, TREND_KINDS, NoiseModel, Numbers, TrendSpec, model_fields
from .smoothing import INIT_WORDING, InitPolicy

CONFIG_SCHEMA_VERSION = 1

_CHUNK_ROWS = 4096  # rows (or plotted points) formatted per write
_SCAN_BYTES = 1 << 16  # block size of the plain-file scan
# what csv and np.loadtxt read differently: a quote, CR, NUL, \x1c-\x1f
# (whitespace to numpy, not to float() of ASCII text) and a blank line
_NOT_PLAIN = (b'"', b"\r", b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\n\n")

_SVG_WIDTH = 800
_SVG_HEIGHT = 500
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 62, 18, 18, 42


def _write(target, parts) -> Path | None:
    """Write text parts to an open text stream, or to a new UTF-8 file at a
    path, which is returned."""
    if hasattr(target, "write"):
        target.writelines(parts)
        return None
    path = Path(target)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(parts)
    return path


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _chunks(template: str, separator: str, columns: list[np.ndarray]):
    """Yield the rows of ``columns`` formatted by ``template`` and joined by
    ``separator``, each chunk of ``_CHUNK_ROWS`` rows by one ``%``."""
    width = len(columns)
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [col[lo : lo + _CHUNK_ROWS].tolist() for col in columns]
        rows = len(chunk[0])
        cells = [None] * (width * rows)
        for j, values in enumerate(chunk):
            cells[j::width] = values
        yield (separator if lo else "") + separator.join([template] * rows) % tuple(cells)


def _csv_text(header: list[str], columns: list[np.ndarray]):
    yield ",".join(header) + "\n"
    template = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns) + "\n"
    yield from _chunks(template, "", columns)


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
    as a Path) or an open text stream (None is returned)."""
    return _write(path, _csv_text(header, _checked(header, columns)))


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
    y0, y1 = float(ys.min()), float(ys.max())
    pad = 0.05 * ((y1 - y0) or 1.0)
    y0, y1 = y0 - pad, y1 + pad
    xspan = (x1 - x0) or 1.0
    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # applied to a float or elementwise to an array: the same IEEE operations
    def px(x):
        return _MARGIN_LEFT + (x - x0) / xspan * plot_w

    def py(y):
        return _SVG_HEIGHT - _MARGIN_BOTTOM - (y - y0) / (y1 - y0) * plot_h

    return px, py, (x0, x1, y0, y1)


def _axes(px, py, limits) -> list[str]:
    x0, x1, y0, y1 = limits
    parts = [
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" '
        f'width="{_SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT}" '
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


def _points(opening: str, template: str, xs: np.ndarray, ys: np.ndarray, closing: str):
    """Yield one element whose body is ``template`` formatted at each
    (x, y), space-separated."""
    return itertools.chain([opening], _chunks(template, " ", [xs, ys]), [closing])


def _svg_text(steps, lines: list[tuple[str, np.ndarray, str]], dots=None):
    """The plot document as an iterator of text parts: ``dots`` (if given)
    as light points, then one polyline per (label, values, color) entry,
    and a legend.  Scales and pixel coordinates are computed here, before
    anything is written."""
    xs = np.asarray(steps, dtype=float)
    series = [np.asarray(ys, dtype=float) for _, ys, _ in lines]
    legend = [(label, color) for label, _, color in lines]
    if dots is not None:
        dots = np.asarray(dots, dtype=float)
        legend.insert(0, ("observations", "#9db8d9"))
    px, py, limits = _scales(xs, np.concatenate(([] if dots is None else [dots]) + series))
    x_px = px(xs)
    head = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" '
        'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="#ffffff"/>',
        *_axes(px, py, limits),
    ]
    elements = [] if dots is None else [_points(
        '<g fill="#9db8d9" fill-opacity="0.55" stroke="none">',
        '<circle cx="%.2f" cy="%.2f" r="1.4"/>', x_px, py(dots), "</g>\n",
    )]
    elements += [
        _points('<polyline points="', "%.2f,%.2f", x_px, py(ys),
                f'" fill="none" stroke="{color}" stroke-width="1.6"/>\n')
        for ys, (_, _, color) in zip(series, lines)
    ]
    tail = "\n".join([*_legend(legend), "</svg>"]) + "\n"
    return itertools.chain(["\n".join(head) + "\n"], *elements, [tail])


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
    return _write(path, _svg_text(_checked(header, columns)[0], lines, dots))


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

class SchemaError(ValueError):
    """A document whose keys or JSON types do not match the declared
    fields; value ranges are checked by the constructors instead."""


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


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: {value} is out of range") from None


def _numbers(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list of numbers, got {value!r}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return value


def _init(value, where: str):
    if value == "first":
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected {INIT_WORDING}, got {value!r}")
    return _number(value, where)


def _encode(obj, document: dict) -> dict:
    """``document`` with each declared field of ``obj`` added, in field order."""
    for attr, key, _, _ in model_fields(type(obj)):
        value = getattr(obj, attr)
        document[key] = (
            list(value) if isinstance(value, tuple)
            else model_to_dict(value) if hasattr(value, "kind") else value
        )
    return document


def _decode(cls, data: dict, where: str) -> dict:
    """The arguments of ``cls`` that ``data`` gives, decoded by declared type."""
    return {
        attr: _DECODERS[hint](data[key], f"{where}.{key}")
        for attr, key, _, hint in model_fields(cls)
        if key in data
    }


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
    return cls(**_decode(cls, data, where))


_DECODERS = {  # by declared type; a JSON number is never a string or a bool
    float: _number,
    int: _integer,
    Numbers: _numbers,
    InitPolicy: _init,
    NoiseModel: lambda value, where: model_from_dict(value, NOISE_KINDS, where),
    TrendSpec: lambda value, where: model_from_dict(value, TREND_KINDS, where),
}


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
    version = _integer(document["schema_version"], "config.schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise SchemaError(
            f"config: schema_version {version!r} not supported; expected {CONFIG_SCHEMA_VERSION}"
        )
    output = document.get("output", {})
    _check_keys(output, set(), {"csv", "svg"}, "config.output")
    for key, value in output.items():
        if not isinstance(value, str):
            raise SchemaError(f"config.output.{key}: expected a path string, got {value!r}")
    return ExperimentConfig(**_decode(ExperimentConfig, document, "config")), dict(output)


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
