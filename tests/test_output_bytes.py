"""Byte-for-byte pins of the CSV, SVG and stdout outputs.

Every digest below was recorded before the writers became one columnar,
chunked path, so these tests hold the files to the bytes the per-cell
writers produced.  The lengths cover one row, fewer rows than one chunk,
and more than two chunks with a partial last chunk; the bare-array values
include -0.0, subnormals and magnitudes near 1e-300 and 1e300.
"""

import contextlib
import hashlib
import io
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sestrack import (
    AR1, Linear, dataio, read_csv_column, simulate_smoothed, write_csv, write_results,
)
from sestrack.cli import main
from sestrack.dataio import _CHUNK_ROWS, _points

LENGTHS = (1, 100, 10_000)
CHUNK_LENGTHS = LENGTHS + (_CHUNK_ROWS, _CHUNK_ROWS + 1)  # one full chunk, one row past it
TREND = "linear:start=1,slope=0.05"

DIGESTS = {
    "array.csv[10000]": "c16cc3f6ab2c002f0f00a42940542c034f02762c4331df94eaf72bb12977bdda",
    "array.csv[100]": "1c38934ddcb5f948d5bd7dff1f8384d78238d1d347eec2b0feceb5e4f41f6661",
    "array.csv[1]": "ef905e49f58cfa0b43f6a1328f2a93000c72da435d71c564f8b728279ccc635b",
    "array.svg[10000]": "42d6829839712fe508f9bf0503e5c4ab53fb12acffe8c2eb568a965582ec145f",
    "array.svg[100]": "6ad9e16568a7b92f7a892b63589b33ede59d32dc8cf9daf5525e2ddb5ae19997",
    "array.svg[1]": "11b3d9637666b4d202bfd3f8313da07d3a55f79315d1b43c7c5497e56bdc2d1c",
    "exact.csv[10000]": "48c2da93bc43350cf965a93e54eef457a871220b921927f4375206990532a841",
    "exact.csv[100]": "7f6aeeaa0dcc74866769d78897815450bfc976cc20211a403403ee7a8d132fd9",
    "exact.csv[1]": "421add8273de4200234ee5d0ea54437b80d3f04ddb6cd50957d75ed63887a62c",
    "reproduce.csv": "b057657989d61ffb7d3e03e9581dabb5b351ebc21b64eed673defe1308a0738f",
    "reproduce.svg": "359a3fa06d9058738117d47ae635705d0a7ab66703762d46ce4bbd93eacbeea3",
    "simulate.csv[10000]": "add9dadd866dcbd0e23e79814307055c0e22f51732b36abcd797c47296d525c3",
    "simulate.csv[100]": "5d7ccdccf13692826eb351fd76839a0a27aa98ad1851a999fe0292169ff59964",
    "simulate.csv[1]": "71cae3f6b6fbd15ed4e8e2d6a63f0c7a55ca3f2f3619f55ee940f9adbeaaaec4",
    "simulate.stdout[10000]": "add9dadd866dcbd0e23e79814307055c0e22f51732b36abcd797c47296d525c3",
    "simulate.stdout[100]": "5d7ccdccf13692826eb351fd76839a0a27aa98ad1851a999fe0292169ff59964",
    "simulate.stdout[1]": "71cae3f6b6fbd15ed4e8e2d6a63f0c7a55ca3f2f3619f55ee940f9adbeaaaec4",
    "simulate.svg[10000]": "f271382c49a27fb45f4c2efad85ab5610f77c96003c5ef6fd22822f017e0ca57",
    "simulate.svg[100]": "78f56f6b237b092051318532ac5ec01f9b62c4d65de6150732cbc954d0a2922f",
    "simulate.svg[1]": "174723bb77e1de85da4c7e8e8569f8fde336a44c443b6231a61d731a9625702f",
    "smooth.csv[10000]": "3ee60fcd222d7438ee1182148cec9035e0fec9d6b4e354ba226fda76aa83e804",
    "smooth.csv[100]": "fdc1880ae2f3b5a92035a3b718a93f470c0ca88b2a023e12e17699d1be9f783f",
    "smooth.csv[1]": "7b1d70a5f192a5c5e3b778853cfcddda115730be4e71c6490fd353bb4016d07b",
    "smooth.stdout[10000]": "3ee60fcd222d7438ee1182148cec9035e0fec9d6b4e354ba226fda76aa83e804",
    "smooth.stdout[100]": "fdc1880ae2f3b5a92035a3b718a93f470c0ca88b2a023e12e17699d1be9f783f",
    "smooth.stdout[1]": "7b1d70a5f192a5c5e3b778853cfcddda115730be4e71c6490fd353bb4016d07b",
    "verify.csv": "847d305a4baa0cb2107c8f66ae3c7250aacb0e15679e7a7844e342718fa74b16",
    "verify.svg": "c70a3bcc243c03159a1fce6a1a1f183e1872ece302fe2f06d01418851b681b4e",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue().encode("utf-8")


def _edge_values(n: int) -> np.ndarray:
    rng = np.random.default_rng(11)
    # ldexp scales exactly, so the values do not depend on a libm
    values = np.ldexp(rng.standard_normal(n), rng.integers(-990, 990, n))
    values[:6] = [-0.0, 1e-300, -1e300, 5e-324, 0.0, 1e300][:n]
    return values


def _command_outputs(n: int, tmp_path) -> dict[str, bytes]:
    sim_csv, sim_svg = tmp_path / "sim.csv", tmp_path / "sim.svg"
    simulate = ["simulate", "--trend", TREND, "--noise", "ar1:theta=0.3",
                "--alpha", "0.1", "--steps", str(n), "--seed", "7"]
    _stdout(simulate + ["--out", str(sim_csv), "--svg", str(sim_svg)])
    smooth = ["smooth", "--input", str(sim_csv), "--column", "x", "--alpha", "0.2"]
    _stdout(smooth + ["--out", str(tmp_path / "smooth.csv")])
    _stdout(["mse", "--mode", "exact", "--alpha", "0.1", "--noise", "ma1:a=2",
             "--trend", TREND, "--steps", str(n), "--out", str(tmp_path / "exact.csv")])
    return {
        "simulate.csv": sim_csv.read_bytes(),
        "simulate.svg": sim_svg.read_bytes(),
        "simulate.stdout": _stdout(simulate),
        "smooth.csv": (tmp_path / "smooth.csv").read_bytes(),
        "smooth.stdout": _stdout(smooth),
        "exact.csv": (tmp_path / "exact.csv").read_bytes(),
    }


def _array_outputs(n: int, tmp_path) -> dict[str, bytes]:
    values = _edge_values(n)
    return {
        f"array.{fmt}": write_results(values, tmp_path / f"a.{fmt}", fmt).read_bytes()
        for fmt in ("csv", "svg")
    }


def _verify_outputs(tmp_path) -> dict[str, bytes]:
    config = json.loads(
        '{"schema_version": 1, "noise": {"kind": "ma1", "a": 2.0, "var": 1.0},'
        ' "trend": {"kind": "linear", "start": 2.0, "slope": 0.1}, "alpha": 0.1,'
        ' "horizon": 300, "replications": 64, "seed": 2024, "init": 8.0}'
    )
    config["output"] = {"csv": str(tmp_path / "v.csv"), "svg": str(tmp_path / "v.svg")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        main(["verify", "--config", str(path)])
    return {"verify.csv": (tmp_path / "v.csv").read_bytes(),
            "verify.svg": (tmp_path / "v.svg").read_bytes()}


def _reproduce_outputs(tmp_path) -> dict[str, bytes]:
    _stdout(["reproduce", "--figure", "1a", "--outdir", str(tmp_path)])
    return {"reproduce.csv": (tmp_path / "fig1a.csv").read_bytes(),
            "reproduce.svg": (tmp_path / "fig1a.svg").read_bytes()}


def all_outputs(tmp_path) -> dict[str, bytes]:
    """Every pinned output, keyed as in DIGESTS."""
    outputs = {}
    for n in LENGTHS:
        for producer in (_command_outputs, _array_outputs):
            work = tmp_path / f"{producer.__name__}{n}"
            work.mkdir()
            outputs.update({f"{k}[{n}]": v for k, v in producer(n, work).items()})
    outputs.update(_verify_outputs(tmp_path))
    outputs.update(_reproduce_outputs(tmp_path))
    return outputs


# ``--json`` stdout of bound over K x alpha and of optimize-alpha over K, per
# noise kind, concatenated; recorded while the alpha search ran on numpy
BOUND_NOISES = {"white": "white:var=1.5", "ma1": "ma1:a=-0.4,var=1.7",
                "ar1": "ar1:theta=0.9,var=0.3", "maq": "maq:b1=0.5,b2=-0.3,b3=0.2,var=1.3"}
BOUND_KS = ("0", "0.05", "0.2")
BOUND_ALPHAS = ("0.05", "0.3", "0.9")
BOUND_DIGESTS = {
    "bound[white]": "b87a0d920403cba882c02924a35cc839f8976824ef5d8a7adc0e9864938d6f43",
    "optimize-alpha[white]": "4c031fde5580d8487e7405723712d662f4bac37e841ee52cbc4febd93b549972",
    "bound[ma1]": "4abd45050e4f48bc61dbeaf786380be61f386a27da4ce307384cb8823489183b",
    "optimize-alpha[ma1]": "de5ced346f721057a8dc7c2a778b49d120084c2fe5e0ec452676d777521051ca",
    "bound[ar1]": "24235633a3ea0e84829922cd6b81b0457c0fa4c1422cba7cd693cdc8f74d5490",
    "optimize-alpha[ar1]": "25dd1c841789c8c3019f368214fa02a04f2c50cc76f3363ff0e5e60980e23c6a",
    "bound[maq]": "8fc3b5cfea9af46c7490c0fa62c9ecc25977da3a1a10c4865160407f309a67c0",
    "optimize-alpha[maq]": "28b21cb849275d884eef5ecdcc8b9e7518c28a6b113f306d1707fd3b41873ab3",
}


@pytest.mark.parametrize("kind", BOUND_NOISES)
def test_bound_and_optimize_alpha_json_match_pinned_digests(kind):
    noise = ["--noise", BOUND_NOISES[kind], "--json"]
    bound = b"".join(_stdout(["bound", "--alpha", a, "--k", k, *noise])
                     for k in BOUND_KS for a in BOUND_ALPHAS)
    search = b"".join(_stdout(["optimize-alpha", "--k", k, *noise]) for k in BOUND_KS)
    assert _sha(bound) == BOUND_DIGESTS[f"bound[{kind}]"]
    assert _sha(search) == BOUND_DIGESTS[f"optimize-alpha[{kind}]"]


def test_degenerate_search_json_is_pinned():
    # no noise and K = 0: the objective is identically zero, and the search's
    # ties to smaller alpha return the first grid point, 1 / (GRID_POINTS + 1)
    out = _stdout(["optimize-alpha", "--k", "0", "--noise", "white:var=0", "--json"])
    assert out == (
        b'{"alpha": 0.000975609756097561, "degenerate": true, "report": '
        b'{"alpha": 0.000975609756097561, "variance_term": 0.0, "correlation_term": 0.0, '
        b'"trend_term": 0.0, "total": 0.0, "truncation_lag": 0, '
        b'"truncation_residual_bound": 0.0}}\n'
    )


def test_outputs_match_pinned_digests(tmp_path):
    outputs = all_outputs(tmp_path)
    assert sorted(outputs) == sorted(DIGESTS)
    assert {k: _sha(v) for k, v in outputs.items()} == DIGESTS


def _u64_values(n: int) -> np.ndarray:
    # wraps modulo 2**64, so the values spread over the whole uint64 range
    values = np.arange(n, dtype=np.uint64) * np.uint64(3**38)
    values[-1] = 2**64 - 1
    return values


def _f32_values(n: int) -> np.ndarray:
    # not exactly representable in decimal, so all 17 digits show
    values = (np.arange(n, dtype=np.float32) - 2.5) / np.float32(3)
    values[:2] = [np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max][:n]
    return values


def _reference_csv(header, columns) -> str:
    """The per-cell formatting the CSV format is defined by: ``str`` of each
    integer, ``"%.17g"`` of the double each other value rounds to."""
    texts = [map(str, col.tolist()) if col.dtype.kind in "iu"
             else map("%.17g".__mod__, col.astype(np.float64).tolist()) for col in columns]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*texts)])


def _padding_shares(columns) -> list[float]:
    """The share of NUL bytes in each column's cell matrix, chunk by chunk."""
    shares = []
    for col in columns:
        cells = dataio._float_cells if col.dtype.kind == "f" else dataio._int_cells
        shares += [float(np.mean(cells(col[lo : lo + _CHUNK_ROWS]) == 0))
                   for lo in range(0, len(col), _CHUNK_ROWS)]
    return shares


def _reference_table(case):
    """The columns of the per-cell reference test: at a length in
    ``CHUNK_LENGTHS``, edge values of every column type; "unpadded", cells
    each printed at one length, so no chunk holds a NUL; "padded", a ramp of
    short decimals and small counts with one wide cell per chunk, so most of
    each chunk's bytes are NUL."""
    n = case if isinstance(case, int) else _CHUNK_ROWS + 100
    if case == "unpadded":
        draws = np.random.default_rng(5).uniform(1.0, 2.0, 2 * n)
        values = draws[[len("%.17g" % v) == 18 for v in draws.tolist()]][:n]
        columns = [np.arange(10**4, 10**4 + n), values, -values]
        assert max(_padding_shares(columns)) == 0
        return ["t", "x", "neg"], columns
    if case == "padded":
        values, count = np.arange(n) / 8, np.arange(n) % 10
        values[::_CHUNK_ROWS], count[::_CHUNK_ROWS] = -math.pi * 1e20, 10**18
        columns = [np.arange(1, n + 1), values, count]
        assert min(_padding_shares(columns[1:])) > 0.5
        return ["t", "x", "count"], columns
    values = _edge_values(n)
    return ["t", "x", "neg", "count", "big", "flag", "u64", "f32"], [
        np.arange(1, n + 1), values, -values, np.arange(n, dtype=np.int32) - 5,
        np.arange(n, dtype=np.int64) * 10**14 + 1,  # past 17 digits at n = 10^4
        np.arange(n) % 3 == 0, _u64_values(n), _f32_values(n)]


@pytest.mark.parametrize("case", [*CHUNK_LENGTHS, "unpadded", "padded"])
def test_csv_matches_the_per_cell_reference(tmp_path, case):
    header, columns = _reference_table(case)
    values = columns[1]
    path = write_csv(tmp_path / "e.csv", header, columns)
    # compared outside the assert: pytest's diff of two large texts is very slow
    same = path.read_text(encoding="utf-8") == _reference_csv(header, columns)
    assert same
    assert np.array_equal(read_csv_column(path, "x"), values)
    assert np.array_equal(np.signbit(read_csv_column(path, "x")), np.signbit(values))


# each float type's pool holds both zeros, its smallest subnormal and its
# extremes (+-1e300 for the doubles); a longdouble pool adds one that rounds
# to the double 1.0, as 1.0 itself does
_FLOAT_TYPES = (np.float64, np.float32, np.float16, np.longdouble, np.dtype(">f8"))


def _pool_edges(dtype) -> np.ndarray:
    info = np.finfo(dtype)
    if info.bits >= 64:
        edges = np.array([0.0, -0.0, 5e-324, 1e300, -1e300, 1.0], dtype=dtype)
        return np.append(edges, edges[-1] + np.ldexp(edges[-1], -60))
    return np.array([0.0, -0.0, info.smallest_subnormal, info.max, -info.max], dtype=dtype)


@st.composite
def _pooled_tables(draw):
    """A table whose float columns draw each chunk from a small value pool,
    from distinct values, or from the pool up to a row and distinct after
    it, beside integer, bool and all-distinct columns."""
    rows = draw(st.sampled_from([_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                 2 * _CHUNK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    header = ["t", "flag", "count", "distinct"]
    columns = [np.arange(1, rows + 1), rng.integers(0, 2, rows) == 1,
               rng.integers(-3, 3, rows, dtype=np.int16), _edge_values(rows)]
    for dtype in _FLOAT_TYPES:
        width = min(np.finfo(dtype).bits, 64)
        extra = draw(st.lists(st.floats(width=width, allow_nan=False, allow_infinity=False),
                              max_size=4))
        pool = np.append(_pool_edges(dtype), np.array(extra, dtype=dtype))
        parts = []
        for lo in range(0, rows, _CHUNK_ROWS):
            size = min(_CHUNK_ROWS, rows - lo)
            mode = draw(st.sampled_from(["pool", "distinct", "switch"]))
            cut = {"pool": size, "distinct": 0, "switch": int(rng.integers(size + 1))}[mode]
            pooled = pool[rng.integers(len(pool), size=cut)]
            parts += [pooled, rng.standard_normal(size - cut).astype(dtype)]
        header.append(np.dtype(dtype).str)
        columns.append(np.concatenate(parts))
    return header, columns


@settings(max_examples=10, deadline=None)
@given(table=_pooled_tables())
def test_csv_of_repeated_values_matches_the_per_cell_reference(table):
    header, columns = table
    stream = io.StringIO()
    write_csv(stream, header, columns)
    same = stream.getvalue() == _reference_csv(header, columns)
    assert same


def _tie(e: int, r: int) -> float:
    """m * 2**-e for an odd m (picked by ``r``) whose m * 5**e has 18
    digits, 2 <= e <= 25: the exact decimal value of the double then has 18
    significant digits ending in 5, halfway between two 17-digit decimals."""
    lo, hi = -(-10**17 // 5**e), min((10**18 - 1) // 5**e, 2**53 - 1)
    m = (lo + r % (hi - lo + 1)) | 1
    return math.ldexp(m if m <= hi else m - 2, -e)


def _ties() -> np.ndarray:
    """3001 exact ties: 1049 * 2**-20 and 125 for each e in [2, 25]."""
    rng = np.random.default_rng(17)
    return np.array([1049 * 2.0**-20] + [_tie(e, int(r)) for e in range(2, 26)
                                         for r in rng.integers(0, 2**53, 125)])


_SWITCHES = [1e-4, 1e16, 1e17]  # where %g changes notation, or the digits reach 17


@st.composite
def _doubles(draw):
    """A double of any binary exponent (subnormals and both zeros among
    them), a power of ten, a ``%g`` switch point or an exact tie, moved by
    up to two ulps, of either sign."""
    source = draw(st.sampled_from(["bits", "ten", "switch", "tie"]))
    if source == "bits":
        bits = draw(st.integers(0, 2046)) << 52 | draw(st.integers(0, 2**52 - 1))
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    elif source == "ten":
        x = float(f"1e{draw(st.integers(-323, 308))}")
    elif source == "switch":
        x = draw(st.sampled_from(_SWITCHES))
    else:
        x = _tie(draw(st.integers(2, 25)), draw(st.integers(0, 2**53)))
    for _ in range(draw(st.integers(0, 2))):
        x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
    assume(math.isfinite(x))
    return -x if draw(st.booleans()) else x


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_doubles(), min_size=1, max_size=40))
def test_float_cells_match_the_reference_on_drawn_doubles(values):
    column = np.array(values)
    stream = io.StringIO()
    write_csv(stream, ["x"], [column])
    assert stream.getvalue() == _reference_csv(["x"], [column])


def test_float_cells_match_the_reference_on_a_sweep():
    # random bit patterns, every power of ten, the switch points and the
    # ties, each with its neighbours two ulps either way, in both signs
    bits = np.random.default_rng(26).integers(0, 2**64 - 1, 10**5, np.uint64, endpoint=True)
    edges = np.concatenate([[float(f"1e{k}") for k in range(-323, 309)], _SWITCHES, _ties()])
    near = [np.nextafter(edges, towards) for towards in (-np.inf, np.inf)]
    near += [np.nextafter(x, towards) for x, towards in zip(near, (-np.inf, np.inf))]
    values = np.concatenate([bits.view(np.float64), edges, *near,
                             [0.0, 5e-324, 2.2250738585072014e-308]])
    values = values[np.isfinite(values)]
    values = np.concatenate([values, -values])
    stream = io.StringIO()
    write_csv(stream, ["x"], [values])
    same = stream.getvalue() == _reference_csv(["x"], [values])
    assert same


def test_exact_ties_take_the_fallback(monkeypatch):
    # the fast path would round a tie down; %.17g rounds it to even
    ties = _ties()
    ordinary = np.random.default_rng(3).standard_normal(10**4) * 1e3
    fallback, taken = dataio._fallback, []

    def recording(cells, x, rows):
        taken.extend(x[rows].tolist())
        fallback(cells, x, rows)

    monkeypatch.setattr(dataio, "_fallback", recording)
    values = np.concatenate([ties, -ties, ordinary])
    stream = io.StringIO()
    write_csv(stream, ["x"], [values])
    assert sorted(taken) == sorted(np.concatenate([ties, -ties]).tolist())
    same = stream.getvalue() == _reference_csv(["x"], [values])
    assert same


@pytest.mark.parametrize("off", [-1, 1])
def test_an_exponent_estimate_off_by_one_falls_back(monkeypatch, off):
    # np.log10 is trusted only to be within one of floor(log10 |x|): with
    # every estimate one off, each cell must still print exactly
    values = np.concatenate([np.random.default_rng(5).standard_normal(1000) * 1e3,
                             [1e-4, 1e16, 1e17, 9.999999999999999e16, 1.0, 0.0]])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
    stream = io.StringIO()
    write_csv(stream, ["x"], [values])
    monkeypatch.undo()
    assert stream.getvalue() == _reference_csv(["x"], [values])


def _int_extremes(dtype) -> np.ndarray:
    """The type's extremes and their neighbours, and every power of ten it
    holds with its neighbours, in both signs where it has them."""
    info = np.iinfo(dtype)
    tens = [10**k + d for k in range(20) for d in (-1, 0, 1)]
    values = {info.min, info.min + 1, info.max - 1, info.max, 0, 1}
    values |= {v * sign for v in tens for sign in (1, -1)}
    return np.array(sorted(v for v in values if info.min <= v <= info.max), dtype=dtype)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                                   np.uint32, np.uint64, ">i8", ">u8", bool])
def test_integer_extremes_match_the_reference(dtype):
    column = np.array([True, False, True]) if dtype is bool else _int_extremes(dtype)
    header, columns = ["t", "v"], [np.arange(1, len(column) + 1), column]
    stream = io.StringIO()
    write_csv(stream, header, columns)
    assert stream.getvalue() == _reference_csv(header, columns)


_BIT_TYPES = {"float16": np.uint16, "float32": np.uint32, ">f4": np.uint32, ">f8": np.uint64,
              "longdouble": np.uint64}


@settings(max_examples=40, deadline=None)
@given(dtype=st.sampled_from(sorted(_BIT_TYPES)), seed=st.integers(0, 2**32 - 1))
def test_narrow_wide_and_big_endian_floats_match_the_reference(dtype, seed):
    # each prints the double it rounds to; a longdouble column is moved off
    # the doubles, so that rounding shows
    bits = np.random.default_rng(seed).integers(0, np.iinfo(_BIT_TYPES[dtype]).max, 512,
                                                _BIT_TYPES[dtype], endpoint=True)
    native = bits.view(np.dtype(dtype).newbyteorder("=") if dtype != "longdouble" else np.float64)
    column = native[np.isfinite(native)].astype(dtype)
    if dtype == "longdouble":
        column = column[np.abs(column) < 1e300] * np.longdouble(1 + 2.0**-60)
    stream = io.StringIO()
    write_csv(stream, ["x"], [column])
    assert stream.getvalue() == _reference_csv(["x"], [column])


def test_float_cells_raise_no_numpy_warning():
    info = np.finfo(np.float64)
    doubles = np.array([info.max, info.tiny, info.smallest_subnormal, 0.0, 1e308, 1e-308,
                        1e290, 1e-290, 1e291, 1e-291, 1e300, 1e-300, 1.0, 1e17, 1e-4])
    doubles = np.concatenate([doubles, -doubles, np.nextafter(doubles, 0.0)])
    halves = np.array([np.finfo(np.float16).max, np.finfo(np.float16).smallest_subnormal, 0.0],
                      dtype=np.float16)
    columns = [doubles, np.resize(halves, len(doubles)),
               np.resize(_int_extremes(np.int64), len(doubles))]
    stream = io.StringIO()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        write_csv(stream, ["x", "h", "i"], columns)
    assert stream.getvalue() == _reference_csv(["x", "h", "i"], columns)


@pytest.mark.parametrize("n", LENGTHS)
def test_stream_target_gets_the_file_bytes(tmp_path, n):
    values = _edge_values(n)
    for fmt in ("csv", "svg"):
        stream = io.StringIO()
        write_results(values, stream, fmt)
        path = write_results(values, tmp_path / f"a.{fmt}", fmt)
        same = stream.getvalue().encode("utf-8") == path.read_bytes()
        assert same, fmt


def test_files_and_text_streams_get_the_same_bytes(tmp_path):
    # a file is written as bytes, a text stream gets them decoded: a path,
    # an io.StringIO and stdout get the same bytes, across chunk joins and
    # for a non-ASCII header
    n = 2 * _CHUNK_ROWS + 5
    simulate = ["simulate", "--trend", TREND, "--noise", "ar1:theta=0.3",
                "--alpha", "0.1", "--steps", str(n), "--seed", "7"]
    _stdout(simulate + ["--out", str(tmp_path / "sim.csv"), "--svg", str(tmp_path / "sim.svg")])
    smoothed = simulate_smoothed(AR1(0.3), Linear(1.0, 0.05), 0.1, n, 7)
    written = {}
    for fmt in ("csv", "svg"):
        stream = io.StringIO()
        write_results(smoothed, stream, fmt)
        written[fmt] = [(tmp_path / f"sim.{fmt}").read_bytes(), stream.getvalue().encode("utf-8")]
    written["csv"].append(_stdout(simulate))
    header, values = ["t", "größe", "Δx"], _edge_values(n)
    columns = [np.arange(1, n + 1), values, -values]
    stream = io.StringIO()
    write_csv(stream, header, columns)
    written["header"] = [write_csv(tmp_path / "h.csv", header, columns).read_bytes(),
                         stream.getvalue().encode("utf-8")]
    assert written["header"][0].startswith("t,größe,Δx\n".encode("utf-8"))
    for name, outputs in written.items():
        assert all(data == outputs[0] for data in outputs), name


@pytest.mark.parametrize("template", ["{:.2f},{:.2f}", '<circle cx="{:.2f}" cy="{:.2f}" r="1.4"/>'])
@pytest.mark.parametrize("n", CHUNK_LENGTHS)
def test_svg_points_match_the_per_point_reference(n, template):
    xs = np.linspace(62.0, 782.0, n) + 0.005  # near the rounding boundary of %.2f
    ys = _edge_values(n)
    text = _points("<", template.replace("{:.2f}", "%.2f"), [xs, ys], ">")
    reference = "<" + " ".join(map(template.format, xs.tolist(), ys.tolist())) + ">"
    same = text == reference
    assert same
