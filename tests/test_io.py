import dataclasses
import io
import json
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sestrack import (
    AR1,
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
from sestrack.dataio import (
    _read_column_by_rows,
    experiment_config_from_dict,
    experiment_config_to_dict,
)
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
