import dataclasses
import io
import json
import os
import re
import stat
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sestrack import (
    AR1,
    experiments,
    ExperimentConfig,
    Linear,
    MAq,
    Sinusoid,
    load_experiment_config,
    monte_carlo_mse,
    read_csv_column,
    save_experiment_config,
    simulate_smoothed,
    write_csv,
    write_results,
)
from sestrack import dataio
from sestrack.cli import main
from sestrack.dataio import (
    _CHUNK_ROWS,
    _PLOT_W,
    _SCAN_BYTES,
    _read_column_by_rows,
    experiment_config_from_dict,
    experiment_config_to_dict,
)
from sestrack.experiments import SmoothedPath
from sestrack.processes import WhiteGaussian, Constant
from sestrack.smoothing import INIT_WORDING


# ---------------------------------------------------------------------------
# CSV reading
# ---------------------------------------------------------------------------

def test_read_column(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("t,x\n1,2.5\n2,3.5\n")
    assert np.array_equal(read_csv_column(p, "x"), [2.5, 3.5])


def test_missing_column_names_available(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("t,x\n1,2.5\n")
    with pytest.raises(ValueError, match="available columns: t, x"):
        read_csv_column(p, "y")


@pytest.mark.parametrize("text", ["t,x,x\n1,2,3\n", '"t","x","x"\n"1","2","3"\n'],
                         ids=["plain", "quoted"])
def test_a_column_named_twice_is_refused_by_both_readers(tmp_path, capsys, text):
    # the plain file reaches numpy's reader, the quoted one only the csv reader
    p = tmp_path / "data.csv"
    p.write_text(text)
    message = "column 'x' is named 2 times in the header"
    with pytest.raises(ValueError, match=message):
        read_csv_column(p, "x")
    assert np.array_equal(read_csv_column(p, "t"), [1.0])
    code = main(["smooth", "--input", str(p), "--column", "x", "--alpha", "0.5"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {p}: {message}\n")


def test_bad_cell_cites_row(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("t,x\n1,2.5\n2,abc\n")
    with pytest.raises(ValueError, match="row 2"):
        read_csv_column(p, "x")


def test_nonfinite_cell_rejected(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("t,x\n1,nan\n")
    with pytest.raises(ValueError, match="row 1"):
        read_csv_column(p, "x")


def test_missing_file():
    with pytest.raises(OSError):
        read_csv_column("/nonexistent/nope.csv", "x")


def test_oversized_field_cites_row(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("t,x\n1,2\n2," + "1" * 200_000 + "\n")
    with pytest.raises(ValueError, match=r"data.csv: row 2: field larger than field limit"):
        read_csv_column(p, "x")
    p.write_text("t," + "x" * 200_000 + "\n1,2\n")
    with pytest.raises(ValueError, match=r"data.csv: header: field larger"):
        read_csv_column(p, "x")


def test_non_utf8_byte_cites_row(tmp_path):
    p = tmp_path / "data.csv"
    # past the text reader's first decoded block, so the row is found from the bytes
    p.write_bytes(b"t,x\n" + b"1,2\n" * 5000 + b"5001,3\xff\n5002,4\n")
    with pytest.raises(ValueError, match=r"data.csv: row 5001: not UTF-8 text .*0xff"):
        read_csv_column(p, "x")
    p.write_bytes(b"t,\xffx\n1,2\n")
    with pytest.raises(ValueError, match=r"data.csv: header: not UTF-8 text"):
        read_csv_column(p, "x")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PLAIN_CELLS = st.one_of(
    _FINITE.map(repr),
    _FINITE.map("%.17g".__mod__),
    st.tuples(st.sampled_from(["", " ", "\t"]), _FINITE.map(repr), st.sampled_from(["", " "]))
    .map("".join),
    st.integers(-10**6, 10**6).map(str),
)
_ODD_TEXTS = [
    "", " ", "nan", "inf", "-inf", "1e400", "1e-400", "1_0", "0x1p3", "\u0661\u0662",
    "\u00a02.5\u2003", "\x1c1", "\x1d1", "1\x1e", "2\x1f", "1\x00", "\"1.5\"", "\"1,5\"",
    "#1", "abc", "+.5", "1.", "\xe9", "1 2", "\x0b3\x0c",
]
_ODD_CELLS = st.sampled_from(_ODD_TEXTS)


@st.composite
def _csv_files(draw):
    """A header naming t, x, y, z (as many as the width) and data rows.  In
    a plain file every row is full and every cell a finite number; each
    other file has some of: odd cells, ragged rows, blank lines, CR line
    ends, a BOM, non-UTF-8 bytes."""
    plain = draw(st.booleans())

    def odd():
        return not plain and draw(st.booleans())

    width = draw(st.integers(1, 4))
    cells = st.one_of(_PLAIN_CELLS, _ODD_CELLS) if odd() else _PLAIN_CELLS
    sizes = st.integers(0, width + 1) if odd() else st.just(width)
    rows = draw(st.lists(sizes.flatmap(lambda n: st.lists(cells, min_size=n, max_size=n)),
                         max_size=6))
    newline = draw(st.sampled_from(["\r\n", "\r"])) if odd() else "\n"
    lines = ["t,x,y,z"[: 2 * width - 1]] + [",".join(row) for row in rows]
    ends = ["", newline] + ([newline * 2] if odd() else [])
    data = (newline.join(lines) + draw(st.sampled_from(ends))).encode("utf-8")
    if odd():
        data = draw(st.sampled_from([b"\xef\xbb\xbf", b""])) + data + draw(
            st.sampled_from([b"", b"\xff", b"\n1,2"])
        )
    return data, draw(st.sampled_from(["t", "x", "z", "w"]))


def _outcome(path, column, read):
    try:
        values = read(path, column)
    except ValueError as exc:
        return "error", str(exc)
    return values.dtype, values.shape, values.tobytes()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@settings(max_examples=100, deadline=None)
@given(case=_csv_files())
@example(case=(b"t,x\n1,2.5\n", "x"))  # a single row
@example(case=(b"t,x\n", "x"))  # header only
@example(case=(b"t,x\n1,2\n2,3", "x"))  # no final newline
@example(case=(b"t,x\n1,2\n\n2,3\n", "x"))  # a blank line inside
# a blank line across a scan block boundary: one block ends with "\n", the next starts with it
@example(case=(b"t,x\n" + b"1,2\n" * (_SCAN_BYTES // 4 - 1) + b"\n3,4\n", "x"))
@example(case=(b"t,x\n1,2\n\n", "x"))  # a trailing blank line
@example(case=(b"t,x\n1,2\n \n3,4\n", "x"))  # a whitespace-only line
@example(case=(b"t,x\r\n1,2\r\n3,4\r\n", "x"))  # \r\n line ends
@example(case=(b"t,x\n1,\x1c2\n", "x"))  # whitespace to numpy, not to float()
@example(case=(b't,x,y\n"1,5",2,3\n', "y"))  # a comma inside quotes
@example(case=(b"t,x\n" + b"1" * 200_000 + b",2\n", "x"))  # over the csv field limit
def test_reader_fast_path_agrees_with_the_csv_reader(csv_path, case):
    data, column = case
    csv_path.write_bytes(data)
    assert _outcome(csv_path, column, read_csv_column) == _outcome(
        csv_path, column, _read_column_by_rows
    )


@pytest.mark.parametrize("cell", _ODD_TEXTS)
def test_reader_agrees_on_an_odd_cell_in_a_plain_file(csv_path, cell):
    csv_path.write_text(f"t,x,y\n1,{cell},2\n3,4,5\n", encoding="utf-8")
    for column in ("x", "y"):
        assert _outcome(csv_path, column, read_csv_column) == _outcome(
            csv_path, column, _read_column_by_rows
        )


def test_reader_memory_stays_flat(tmp_path):
    # 10^5 rows of a simulate CSV: the C reader streams the file into the
    # one output column, the csv reader would hold a list of 10^5 floats
    path = tmp_path / "sim.csv"
    write_results(simulate_smoothed(AR1(0.2), Linear(1.0, 0.05), 0.1, 10**5, 3), path)
    tracemalloc.start()
    try:
        values = read_csv_column(path, "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == 10**5
    assert peak < 2 * 10**6


# ---------------------------------------------------------------------------
# CSV writing
# ---------------------------------------------------------------------------

def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    values = np.concatenate(
        [rng.normal(scale=1e-8, size=20), rng.normal(scale=1e12, size=20), [0.0, -0.0]]
    )
    p = write_csv(tmp_path / "v.csv", ["t", "v"], [np.arange(1, 43), values])
    back = read_csv_column(p, "v")
    assert np.array_equal(back, values)


def test_write_csv_shape_checks(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["a", "b"], [np.arange(3)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "b.csv", ["a", "b"], [np.arange(3), np.arange(4)])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("header,columns,message", [
    (["t", "v"], [np.arange(3), np.ones((3, 2))], "column 'v' is not one-dimensional (shape (3, 2))"),
    (["t", "v"], [np.arange(3), [[1.0]] * 3], "column 'v' is not one-dimensional (shape (3, 1))"),
    (["t", "v"], [np.arange(3), np.float64(1.0)], "column 'v' is not one-dimensional (shape ())"),
    ([], [], "a table needs at least one column"),
], ids=["2-d", "nested-list", "0-d", "no-columns"])
def test_write_csv_refuses_a_table_it_cannot_lay_out(tmp_path, header, columns, message):
    stream = io.StringIO()
    for target in (tmp_path / "a.csv", stream):
        with pytest.raises(ValueError, match=re.escape(message)):
            write_csv(target, header, columns)
    assert stream.getvalue() == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad,shown", [(np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")])
def test_writers_reject_non_finite_cells(tmp_path, bad, shown):
    values = np.array([1.0, 2.0, bad, 4.0])
    message = rf"column 'v' row 3 is not finite \({shown}\)"
    with pytest.raises(ValueError, match=message):
        write_csv(tmp_path / "a.csv", ["t", "v"], [np.arange(1, 5), values])
    stream = io.StringIO()
    with pytest.raises(ValueError, match=message):
        write_csv(stream, ["t", "v"], [np.arange(1, 5), values.astype(np.float32)])
    for fmt in ("csv", "svg"):
        with pytest.raises(ValueError, match="column 'value' row 3 is not finite"):
            write_results(values, tmp_path / f"b.{fmt}", fmt)
    assert stream.getvalue() == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                    reason="longdouble is a double on this platform")
def test_writers_reject_a_longdouble_past_the_doubles(tmp_path):
    # it would print as "inf", which the reader refuses
    values = np.array([1.0, 2.0, 1e300, 4.0], dtype=np.longdouble)
    values[2] *= 1e100
    with pytest.raises(ValueError, match=r"column 'v' row 3 is not finite \(1\.0\d*e\+400\)"):
        write_csv(tmp_path / "a.csv", ["t", "v"], [np.arange(1, 5), values])
    assert list(tmp_path.iterdir()) == []


def test_writers_reject_non_real_columns(tmp_path):
    for column in (np.array([1 + 2j]), np.array([1.0], dtype=object), np.array(["1"])):
        with pytest.raises(ValueError, match=rf"column 'c' is not real-valued \(dtype {column.dtype}\)"):
            write_csv(tmp_path / "a.csv", ["t", "c"], [np.arange(1, 2), column])
    with pytest.raises(ValueError, match="column 'value' is not real-valued"):
        write_results(np.array([1j, 2j]), tmp_path / "b.svg", "svg")
    assert list(tmp_path.iterdir()) == []


def test_write_trajectory(tmp_path):
    p = write_results(np.array([1.0, 2.0, 3.0]), tmp_path / "traj.csv")
    text = p.read_text().splitlines()
    assert text[0] == "t,value"
    assert len(text) == 4


def test_write_curve_csv(tmp_path):
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.3, 20, 50, seed=4)
    curve = monte_carlo_mse(config)
    p = write_results(curve, tmp_path / "curve.csv")
    assert np.array_equal(read_csv_column(p, "mse"), curve.mean)
    assert np.array_equal(read_csv_column(p, "stderr"), curve.stderr)


def test_write_rejects_unknown(tmp_path):
    with pytest.raises(TypeError):
        write_results({"not": "supported"}, tmp_path / "x.csv")
    with pytest.raises(ValueError):
        write_results(np.arange(3.0), tmp_path / "x.txt", fmt="txt")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def test_svg_well_formed(tmp_path):
    smoothed = simulate_smoothed(WhiteGaussian(1.0), Linear(0.0, 0.1), 0.1, 50, seed=9)
    p = write_results(smoothed, tmp_path / "plot.svg", "svg")
    text = p.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert root.attrib["viewBox"] == "0 0 800 500"
    body = ET.tostring(root, encoding="unicode")
    for label in ("observations", "trend", "estimate"):
        assert label in body
    assert body.count("polyline") >= 2
    assert "circle" in body


def test_curve_svg_well_formed(tmp_path):
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.3, 20, 50, seed=4)
    curve = monte_carlo_mse(config)
    p = write_results(curve, tmp_path / "curve.svg", "svg")
    ET.fromstring(p.read_text())


def test_svg_refuses_a_value_range_it_cannot_scale(tmp_path):
    # a span past the largest double would put nan in every y coordinate
    with pytest.raises(ValueError, match="from -1e[+]308 to 1e[+]308: their range overflows"):
        write_results(np.array([-1e308, 1e308, 0.0]), tmp_path / "big.svg", "svg")
    assert list(tmp_path.iterdir()) == []
    # refused before the target is opened, so an earlier plot there is kept
    earlier = write_results(np.array([0.0, 1.0]), tmp_path / "big.svg", "svg").read_bytes()
    with pytest.raises(ValueError, match="their range overflows"):
        write_results(np.array([-1e308, 1e308, 0.0]), tmp_path / "big.svg", "svg")
    assert (tmp_path / "big.svg").read_bytes() == earlier
    (tmp_path / "big.svg").unlink()
    for name, values in (("wide", [-1e300, 1e300, 0.0]), ("constant", [1e300] * 3)):
        text = write_results(np.array(values), tmp_path / f"{name}.svg", "svg").read_text()
        assert "nan" not in text and "inf" not in text


def test_svg_refuses_an_empty_series_before_opening_the_target(tmp_path):
    target = tmp_path / "empty.svg"
    target.write_text("an earlier plot\n")
    with pytest.raises(ValueError, match="cannot plot an empty series"):
        write_results(np.array([]), target, "svg")
    with pytest.raises(ValueError, match="cannot plot an empty series"):
        write_results(SmoothedPath(np.array([]), np.array([]), np.array([])), target, "svg")
    assert target.read_text() == "an earlier plot\n"
    assert list(tmp_path.iterdir()) == [target]


def test_m4_keeps_the_first_of_equal_extremes():
    # a column of 6 points: first, last, the first 0 and the first 2; then
    # a column of 3, kept whole
    y_px = np.array([1.0, 0.0, 2.0, 0.0, 2.0, 1.0, 7.0, 7.0, 7.0])
    kept = dataio._m4(np.array([0, 6]), np.array([6, 3]), y_px)
    assert kept.tolist() == [0, 1, 2, 5, 6, 7, 8]


def _svg_elements(path: SmoothedPath):
    """The plot of ``path``: its text, its observations element and each
    polyline's vertex strings."""
    stream = io.StringIO()
    write_results(path, stream, "svg")
    root = ET.fromstring(stream.getvalue())
    observations = [e for e in root if e.tag.split("}")[1] in ("g", "path")]
    lines = [e.attrib["points"].split(" ") for e in root if e.tag.endswith("polyline")]
    return stream.getvalue(), observations[0], lines


def _series(rng, n: int, pool: list[float], run: int) -> np.ndarray:
    """``n`` values drawn from ``pool`` in constant runs of ``run``."""
    return rng.choice(np.array(pool), size=-(-n // run)).repeat(run)[:n]


@settings(max_examples=15, deadline=None)
@given(n=st.one_of(st.integers(4 * _PLOT_W - 10, 4 * _PLOT_W + 10), st.integers(9990, 10010)),
       pool=st.lists(st.sampled_from([0.0, 1.0, -2.5, 1e300, -1e300])
                     | st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=6),
       run=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(n=4 * _PLOT_W, pool=[0.0, 1.0], run=1, seed=0)  # the longest plot drawn point by point
@example(n=4 * _PLOT_W + 1, pool=[0.0, 1.0], run=1, seed=0)
@example(n=10**4, pool=[3.0], run=1, seed=0)
def test_dense_plot_keeps_each_pixel_columns_extremes(n, pool, run, seed):
    rng = np.random.default_rng(seed)
    path = SmoothedPath(*(_series(rng, n, pool, run) for _ in range(3)))
    text, observations, lines = _svg_elements(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_M4", n)  # no column holds more: drawn point by point
        full_text, circles, full_lines = _svg_elements(path)
    x_px = 62 + (path.steps - 1.0) / (n - 1) * _PLOT_W
    column = np.minimum(np.floor(x_px - 62), _PLOT_W - 1)
    members = np.split(np.arange(n), np.flatnonzero(np.diff(column)) + 1)
    assert len(members) == _PLOT_W
    if max(map(len, members)) <= 4:
        assert text == full_text
        return
    cys = np.array([float(c.attrib["cy"]) for c in circles])
    assert observations.attrib["d"].split(" ") == [
        "M%.2f,%.2fV%.2f" % (62.5 + c, cys[rows].min(), cys[rows].max())
        for c, rows in enumerate(members)
    ]
    for kept, full in zip(lines, full_lines):
        at = iter(full)
        assert all(vertex in at for vertex in kept)  # an in-order subsequence
        index = {vertex: i for i, vertex in enumerate(full)}
        rows_kept = np.array([index[vertex] for vertex in kept])
        kept_rows = np.split(rows_kept, np.flatnonzero(np.diff(column[rows_kept])) + 1)
        ys = np.array([float(vertex.split(",")[1]) for vertex in full])
        for rows, mine in zip(members, kept_rows, strict=True):
            assert {rows[0], rows[-1]} <= set(mine)
            assert (ys[mine].min(), ys[mine].max()) == (ys[rows].min(), ys[rows].max())
            if len(rows) <= 4:
                assert list(mine) == list(rows)


# ---------------------------------------------------------------------------
# CSV and SVG formatting in the calling process
# ---------------------------------------------------------------------------

def _table(rows: int) -> SmoothedPath:
    """A path of ``rows`` steps: four CSV columns, or an SVG of dots (a
    band once dense) and two polylines."""
    rng = np.random.default_rng(rows)
    trend = np.linspace(0.0, 5.0, rows)
    return SmoothedPath(trend + rng.standard_normal(rows), trend, trend + rng.normal(0, 0.1, rows))


def _written(result, target, fmt: str) -> bytes:
    if isinstance(target, Path):
        return write_results(result, target, fmt).read_bytes()
    write_results(result, target, fmt)
    return target.getvalue().encode()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.sampled_from([1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                             2 * _CHUNK_ROWS + 1, 5 * _CHUNK_ROWS + 3]))
def test_written_bytes_do_not_depend_on_the_worker_count(forks, tmp_path, rows):
    table, written = _table(rows), {}
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_usable_cpus", lambda: workers)
            for fmt in ("csv", "svg"):
                for target in (tmp_path / f"out.{fmt}", io.StringIO()):
                    before = len(forks)
                    written.setdefault(fmt, set()).add(_written(table, target, fmt))
                    # a CSV's chunks and a plot are formatted in this process
                    assert len(forks) == before
    assert {fmt: len(texts) for fmt, texts in written.items()} == {"csv": 1, "svg": 1}
    _assert_no_child_left()


def test_writers_stay_serial_beside_another_thread(forks, monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    table = _table(3 * _CHUNK_ROWS)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        threaded = [_written(table, tmp_path / f"t.{fmt}", fmt) for fmt in ("csv", "svg")]
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert forks == []
    assert threaded == [_written(table, tmp_path / f"f.{fmt}", fmt) for fmt in ("csv", "svg")]
    _written(_table(10**5), tmp_path / "long.svg", "svg")
    assert forks == []  # with the thread gone too, and for a 10^5-step plot


class _StreamFailingPartway(io.StringIO):
    """A stream that takes the first 1000 characters written to it, then fails."""

    def write(self, text):
        room = max(1000 - self.tell(), 0)
        super().write(text[:room])
        if len(text) > room:
            raise OSError("stream closed")
        return len(text)


def _open_on_a_full_disk(*args, **kwargs):
    """``open``, for a handle whose ``writelines`` writes half of the first
    text, then fails as a full disk does."""
    handle = open(*args, **kwargs)

    def writelines(parts):
        text = next(iter(parts))
        handle.write(text[: len(text) // 2])
        handle.flush()
        raise OSError(28, "No space left on device")

    handle.writelines = writelines
    return handle


@pytest.mark.parametrize(
    "how, error, fmt",
    [
        ("stream", "stream closed", "csv"),
        ("stream", "stream closed", "svg"),
        ("exception", "chunk failed", "csv"),
        ("disk", "No space left on device", "csv"),
        ("disk", "No space left on device", "svg"),
    ],
)
def test_failed_write_leaves_no_child_and_no_file(forks, monkeypatch, tmp_path, fmt, how, error):
    format_chunk = dataio._format_chunk

    def format_chunk_failing_on_the_second(formats, columns, lo):
        if lo:
            raise RuntimeError("chunk failed")
        return format_chunk(formats, columns, lo)

    target = _StreamFailingPartway() if how == "stream" else tmp_path / f"out.{fmt}"
    if how == "exception":
        monkeypatch.setattr(dataio, "_format_chunk", format_chunk_failing_on_the_second)
    elif how == "disk":  # an earlier file at the path keeps no partial bytes either
        target.write_text("an earlier file\n")
        monkeypatch.setattr(dataio, "open", _open_on_a_full_disk, raising=False)
    with pytest.raises((OSError, RuntimeError), match=error) as caught:
        write_results(_table(3 * _CHUNK_ROWS), target, fmt)
    assert forks == []
    _assert_no_child_left()
    assert caught.tb is not None
    assert list(tmp_path.iterdir()) == []


def test_failed_cli_write_exits_1_and_leaves_no_file(forks, monkeypatch, tmp_path, capfd):
    format_chunk = dataio._format_chunk

    def format_chunk_failing_on_the_second(formats, columns, lo):
        if lo:
            raise OSError(28, "No space left on device")
        return format_chunk(formats, columns, lo)

    monkeypatch.setattr(dataio, "_format_chunk", format_chunk_failing_on_the_second)
    out = tmp_path / "sim.csv"
    out.write_text("an earlier run\n")
    code = main(["simulate", "--alpha", "0.1", "--trend", "const:level=0", "--noise", "white:var=1",
                 "--steps", str(2 * _CHUNK_ROWS), "--seed", "1", "--out", str(out)])
    assert code == 1
    assert "error: [Errno 28] No space left on device" in capfd.readouterr().err
    assert not out.exists()
    assert forks == []


def test_failed_serial_write_deletes_the_truncated_file(monkeypatch, tmp_path):
    # a write cut after the first chunk left rows that read back as valid data
    format_chunk, calls = dataio._format_chunk, []

    def format_chunk_failing_on_the_second(*args):
        calls.append(args[-1])
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return format_chunk(*args)

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(dataio, "_format_chunk", format_chunk_failing_on_the_second)
    path = tmp_path / "v.csv"
    with pytest.raises(OSError, match="No space left on device"):
        write_csv(path, ["t", "v"], [np.arange(2 * _CHUNK_ROWS), np.linspace(0, 1, 2 * _CHUNK_ROWS)])
    assert calls == [0, _CHUNK_ROWS]
    assert not path.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_failed_write_leaves_a_device_alone():
    with pytest.raises(OSError):
        write_csv("/dev/full", ["t"], [np.arange(3 * _CHUNK_ROWS)])
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# JSON configs
# ---------------------------------------------------------------------------

def _config() -> ExperimentConfig:
    return ExperimentConfig(
        noise=AR1(0.2, 1.0),
        trend=Sinusoid(1.0, 0.0031415926, 0.0),
        alpha=0.1,
        horizon=1000,
        replications=64,
        seed=77,
        init=8.0,
        tail_fraction=0.2,
    )


def test_config_round_trip(tmp_path):
    p = tmp_path / "config.json"
    save_experiment_config(_config(), p, output={"csv": "out.csv"})
    loaded, output = load_experiment_config(p)
    assert loaded == _config()
    assert output == {"csv": "out.csv"}
    # parse -> serialize -> parse is a fixed point
    document = experiment_config_to_dict(loaded, output)
    again, output2 = experiment_config_from_dict(json.loads(json.dumps(document)))
    assert again == loaded and output2 == output


def _scalar(types: list, values):
    return st.builds(lambda cast, value: cast(value), st.sampled_from(types), values)


_FLOATS, _INTS = [float, np.float64, np.float32, np.float16], [int, np.int64, np.int32, np.uint16]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alpha=_scalar(_FLOATS, st.floats(0.001, 0.99)),
       init=st.one_of(st.just("first"), _scalar(_FLOATS, st.floats(-1e4, 1e4)),
                      _scalar(_INTS, st.integers(0, 1000))),
       tail_fraction=st.one_of(_scalar(_FLOATS, st.floats(0.01, 1.0)), _scalar(_INTS, st.just(1))),
       counts=st.tuples(*[_scalar(_INTS, st.integers(2, 60_000))] * 3))
def test_config_of_numpy_scalars_saves_and_loads_back_equal(tmp_path, alpha, init, tail_fraction,
                                                            counts):
    # a numpy scalar once reached json.dumps, which cannot write a float32
    config = ExperimentConfig(AR1(0.2, 1.0), Sinusoid(1.0, 0.01, 0.0), alpha, *counts,
                              init=init, tail_fraction=tail_fraction)
    loaded, _ = load_experiment_config(save_experiment_config(config, tmp_path / "c.json"))
    assert loaded == config
    assert type(config.alpha) is type(config.tail_fraction) is float
    assert config.init == "first" or type(config.init) is float


def test_config_alpha_is_never_a_string():
    # "0.1" was stored, and saved to a file that the loader refused
    with pytest.raises(ValueError, match="^alpha: expected a number, got '0.1'$"):
        ExperimentConfig(AR1(0.2, 1.0), Sinusoid(1.0, 0.01, 0.0), "0.1", 10, 10, seed=1)


def test_shipped_config_saves_to_its_own_bytes(tmp_path):
    shipped = Path(__file__).resolve().parents[1] / "configs" / "verify_fig1a.json"
    config, output = load_experiment_config(shipped)
    saved = save_experiment_config(config, tmp_path / "again.json", output)
    assert saved.read_bytes() == shipped.read_bytes()


def test_config_keys_follow_the_field_order():
    document = experiment_config_to_dict(_config(), {"csv": "out.csv"})
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert list(document) == ["schema_version", *names, "output"]


def test_config_round_trip_maq_and_first_init(tmp_path):
    config = ExperimentConfig(
        MAq((0.5, -0.3), 2.0), Linear(2.0, 0.1), 0.3, 100, 10, seed=1
    )
    p = save_experiment_config(config, tmp_path / "c.json")
    loaded, _ = load_experiment_config(p)
    assert loaded == config
    assert loaded.init == "first"


def test_config_without_optional_keys_takes_the_dataclass_defaults():
    document = experiment_config_to_dict(_config())
    del document["init"], document["tail_fraction"]
    config, _ = experiment_config_from_dict(document)
    assert config == ExperimentConfig(_config().noise, _config().trend, 0.1, 1000, 64, seed=77)


def test_config_rejects_unknown_keys(tmp_path):
    document = experiment_config_to_dict(_config())
    document["extra"] = 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="unknown key"):
        load_experiment_config(p)


def test_config_rejects_unknown_noise_key(tmp_path):
    document = experiment_config_to_dict(_config())
    document["noise"]["rho"] = 0.5
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="noise"):
        load_experiment_config(p)


def test_config_init_error_states_the_init_grammar():
    document = experiment_config_to_dict(_config())
    document["init"] = True
    with pytest.raises(ValueError, match=f"config.init: expected {INIT_WORDING}, got True"):
        experiment_config_from_dict(document)


def test_config_rejects_wrong_schema_version(tmp_path):
    document = experiment_config_to_dict(_config())
    document["schema_version"] = 99
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="schema_version"):
        load_experiment_config(p)


def test_config_rejects_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_experiment_config(p)
