import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sestrack
from sestrack import (
    MA1,
    Constant,
    ExperimentConfig,
    Linear,
    Table,
    WhiteGaussian,
    exact_mse_sequence,
    monte_carlo_mse,
    read_csv_column,
    save_experiment_config,
    ses_run,
    write_csv,
    write_results,
)
from sestrack.cli import SPEC_GRAMMAR, build_parser, main, parse_init
from sestrack.processes import MAX_CELLS
from sestrack.smoothing import INIT_WORDING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_text(capsys):
    code, out, _ = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", "white:var=1")
    assert code == 0
    assert "variance_term" in out and "0.05263157895" in out
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["correlation_term"].strip() == "0"
    assert lines["trend_term"].strip() == "0"


def test_bound_has_no_tol_flag(capsys):
    argv = ["bound", "--alpha", "0.1", "--k", "0", "--noise", "ar1:theta=0.9"]
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, *argv, "--tol", "0.5")
    assert code == 2
    assert "--tol" in err


@pytest.mark.parametrize("argv", [
    ["optimize-alpha", "--k", "0.1", "--noise", "white:var=1", "--tol", "1e-3"],
    ["simulate", "--trend", "const:level=0", "--noise", "white:var=1", "--alpha", "0.1",
     "--steps", "5", "--seed", "1", "--burn-in", "2"],
], ids=["optimize-alpha --tol", "simulate --burn-in"])
def test_removed_flags_exit_two(capsys, argv):
    assert run(capsys, *argv[:-2])[0] == 0
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {argv[-2]}" in err


def test_bound_json_matches_text(capsys):
    code, out_text, _ = run(
        capsys, "bound", "--alpha", "0.1", "--k", "0.1", "--noise", "ma1:a=2"
    )
    code2, out_json, _ = run(
        capsys, "bound", "--alpha", "0.1", "--k", "0.1", "--noise", "ma1:a=2", "--json"
    )
    assert code == 0 and code2 == 0
    payload = json.loads(out_json)
    text = dict(line.split(None, 1) for line in out_text.strip().splitlines())
    for key in ("variance_term", "correlation_term", "trend_term", "total"):
        assert f"{payload[key]:.10g}" == text[key].strip()
    assert payload["trend_term"] == pytest.approx(0.81, rel=1e-12)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_unknown_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", "pink:var=1")
    assert code == 2
    assert "model specs are written" in err  # grammar echoed


def test_unknown_key_is_usage_error(capsys):
    # the allowed keys are the ones a spec takes: never kind, never a bare b
    for spec, allowed in (("ar1:thetax=0.2", "allowed keys: theta, var"),
                          ("maq:c1=0.2", "allowed keys: b1, b2, ..., var"),
                          ("maq:b=0.2", "allowed keys: b1, b2, ..., var"),
                          ("ar1:kind=1,theta=0.2", "allowed keys: theta, var")):
        code, _, err = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", spec)
        assert code == 2, spec
        message = err.splitlines()[0]
        assert message.endswith(allowed), message


@pytest.mark.parametrize("spec, offender", [
    ("white:sigma=1", "unknown key(s) ['sigma']; allowed keys: var"),
    ("MA1:a=2", "unknown kind 'MA1'; expected white, ma1, ar1 or maq"),
])
def test_a_spec_takes_only_a_config_objects_keys_and_kinds(capsys, spec, offender):
    # the sigma alias and case-folded kind names once parsed here, while a
    # config file refused both
    code, out, err = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", spec)
    assert code == 2 and out == ""
    assert err == f"error: noise spec {spec!r}: {offender}\n{SPEC_GRAMMAR}"


def test_malformed_specs_exit_two_with_grammar(capsys):
    for spec in ("ar1", "ar1:theta", "ar1:theta=x", "maq:var=1", "maq:b1=1,b3=2",
                 "ar1:theta=0.2,sigma=1", "ma1:a=1,a=2"):
        code, _, err = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", spec)
        assert code == 2, spec
        assert "model specs are written" in err


def test_spec_domain_error_exit_one(capsys):
    code, _, err = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", "ar1:theta=1.5")
    assert code == 1
    assert "(0, 1)" in err and "model specs are written" not in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("linear:start=inf,slope=1", "linear trend start must be finite, got inf"),
        ("sin:amp=1,rate=nan", "sin trend rate must be finite, got nan"),
    ],
)
def test_non_finite_trend_spec_exit_one(capsys, spec, message):
    code, _, err = run(
        capsys, "mse", "--mode", "exact", "--noise", "white:var=1", "--trend", spec,
        "--alpha", "0.1", "--steps", "10",
    )
    assert code == 1
    assert message in err and "model specs are written" not in err


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_exit_one(capsys, workers):
    code, _, err = run(
        capsys, "mse", "--mode", "mc", "--alpha", "0.3", "--noise", "white:var=1",
        "--trend", "const:level=0", "--steps", "5", "--reps", "3", "--seed", "1",
        "--workers", workers,
    )
    assert code == 1
    assert f"workers must be an integer >= 1, got {workers}" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
def test_out_of_range_seed_exit_one(capsys, seed):
    code, _, err = run(
        capsys, "simulate", "--trend", "const:level=0", "--noise", "white:var=1",
        "--alpha", "0.1", "--steps", "5", "--seed", seed,
    )
    assert code == 1 and "seed must lie in [0, 2**64)" in err
    code, _, err = run(
        capsys, "mse", "--mode", "mc", "--alpha", "0.3", "--noise", "white:var=1",
        "--trend", "const:level=0", "--steps", "5", "--reps", "3", "--seed", seed,
    )
    assert code == 1 and "seed must lie in [0, 2**64)" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_config_seed_exit_one(tmp_path, capsys, seed):
    # written directly: ExperimentConfig itself refuses the seed
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "noise": {"kind": "white", "var": 1.0},
        "trend": {"kind": "const", "level": 0.0},
        "alpha": 0.1, "horizon": 10, "replications": 3, "seed": seed,
    }))
    code, _, err = run(capsys, "verify", "--config", str(config))
    assert code == 1 and "seed must lie in [0, 2**64)" in err


def test_domain_error_exit_one(capsys):
    code, _, err = run(capsys, "bound", "--alpha", "1.5", "--k", "0", "--noise", "white:var=1")
    assert code == 1
    assert "(0, 1)" in err


def test_missing_file_exit_one(capsys):
    code, _, err = run(capsys, "smooth", "--input", "/nope.csv", "--column", "x", "--alpha", "0.2")
    assert code == 1


def test_unknown_subcommand_exit_two(capsys):
    assert main(["frobnicate"]) == 2


def test_help_lists_flags(capsys):
    code, out, _ = run(capsys, "simulate", "--help")
    assert code == 0
    for flag in ("--trend", "--noise", "--alpha", "--steps", "--seed", "--init", "--out", "--svg"):
        assert flag in out


# ---------------------------------------------------------------------------
# smooth / simulate
# ---------------------------------------------------------------------------

def test_smooth_roundtrip(tmp_path, capsys):
    data = tmp_path / "in.csv"
    values = np.array([2.0, 4.0, 1.0, 3.0])
    write_csv(data, ["t", "x"], [np.arange(1, 5), values])
    out = tmp_path / "out.csv"
    code, _, _ = run(
        capsys, "smooth", "--input", str(data), "--column", "x",
        "--alpha", "0.5", "--init", "8", "--out", str(out),
    )
    assert code == 0
    expected = ses_run(values, 0.5, init=8.0)[1:]
    assert np.array_equal(read_csv_column(out, "m_hat"), expected)
    assert np.array_equal(read_csv_column(out, "x"), values)


def test_smooth_stdout(tmp_path, capsys):
    data = tmp_path / "in.csv"
    write_csv(data, ["t", "x"], [np.arange(1, 3), np.array([5.0, 5.0])])
    code, out, _ = run(capsys, "smooth", "--input", str(data), "--column", "x", "--alpha", "0.3")
    assert code == 0
    assert out.splitlines()[0] == "t,x,m_hat"
    assert out.splitlines()[1] == "1,5,5"


def test_simulate_zero_noise(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    svg = tmp_path / "sim.svg"
    code, _, _ = run(
        capsys, "simulate", "--trend", "linear:start=2,slope=0.1",
        "--noise", "white:var=0", "--alpha", "0.1", "--steps", "10",
        "--seed", "7", "--out", str(out), "--svg", str(svg),
    )
    assert code == 0
    assert np.array_equal(read_csv_column(out, "x"), read_csv_column(out, "m_star"))
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("spelling", ["same", "dotted", "link", "hardlink"])
def test_simulate_refuses_one_file_named_twice(tmp_path, capsys, monkeypatch, spelling):
    # the SVG would replace the CSV: refused as a usage error before simulating
    monkeypatch.setattr(sestrack.experiments, "simulate_smoothed", None)
    target = tmp_path / "p.out"
    other = {"same": target, "dotted": tmp_path / "." / "p.out", "link": tmp_path / "alias",
             "hardlink": tmp_path / "alias"}
    if spelling == "link":
        other["link"].symlink_to(target)
    if spelling == "hardlink":  # a hard link needs its file to exist
        target.write_bytes(b"sentinel")
        os.link(target, other["hardlink"])
    code, out, err = run(capsys, "simulate", "--trend", "const:level=0", "--noise", "white:var=1",
                         "--alpha", "0.1", "--steps", "10", "--seed", "7",
                         "--out", str(target), "--svg", str(other[spelling]))
    assert code == 2 and out == ""
    assert err == f"error: --out and --svg name the same file {str(target)!r}\n"
    if spelling == "hardlink":
        assert target.read_bytes() == b"sentinel"
    else:
        assert not target.exists()


def test_smooth_overflow_exit_one_writes_nothing(tmp_path, capsys):
    data = tmp_path / "hi.csv"
    data.write_text("t,x\n1,1e308\n2,1e308\n")
    smooth = ["smooth", "--input", str(data), "--column", "x", "--alpha", "0.9", "--init=-1e308"]
    for extra in ([], ["--out", str(tmp_path / "out.csv")]):
        code, out, err = run(capsys, *smooth, *extra)
        assert code == 1 and out == ""
        assert "column 'm_hat' row 1 is not finite (inf)" in err
    assert list(tmp_path.iterdir()) == [data]


def test_simulate_overflow_exit_one_writes_nothing(tmp_path, capsys):
    simulate = ["simulate", "--alpha", "0.9", "--steps", "4", "--seed", "1",
                "--noise", "white:var=1e300", "--trend", "const:level=1e308", "--init=-1e308"]
    for extra in (["--svg", str(tmp_path / "o.svg")],
                  ["--out", str(tmp_path / "o.csv"), "--svg", str(tmp_path / "o.svg")]):
        code, out, err = run(capsys, *simulate, *extra)
        assert code == 1 and out == ""
        assert "column 'm_hat' row 1 is not finite" in err
    assert list(tmp_path.iterdir()) == []


def test_smooth_malformed_input_exit_one(tmp_path, capsys):
    data = tmp_path / "in.csv"
    data.write_text("t,x\n1," + "1" * 200_000 + "\n")
    code, out, err = run(capsys, "smooth", "--input", str(data), "--column", "x", "--alpha", "0.2")
    assert code == 1 and out == ""
    assert "in.csv: row 1: field larger than field limit" in err
    data.write_bytes(b"t,x\n1,\xff\n")
    code, out, err = run(capsys, "smooth", "--input", str(data), "--column", "x", "--alpha", "0.2")
    assert code == 1 and out == ""
    assert "in.csv: row 1: not UTF-8 text" in err


@pytest.mark.parametrize("text,message", [
    ("", "in.csv: file is empty"),
    ("t,x\n1,2\n2\n", "in.csv: row 2: missing field 'x'"),
], ids=["empty", "short-row"])
def test_smooth_empty_file_or_short_row_exit_one(tmp_path, capsys, text, message):
    data = tmp_path / "in.csv"
    data.write_text(text)
    code, out, err = run(capsys, "smooth", "--input", str(data), "--column", "x", "--alpha", "0.2")
    assert code == 1 and out == ""
    assert message in err


def test_non_numeric_init_exit_two(capsys):
    code, out, err = run(
        capsys, "simulate", "--trend", "const:level=0", "--noise", "white:var=1",
        "--alpha", "0.1", "--steps", "5", "--seed", "1", "--init", "abc",
    )
    assert code == 2 and out == ""
    assert "error: init must be \"first\" or a number, got 'abc'" in err


def test_init_flag_error_states_the_init_grammar(capsys):
    code, out, err = run(
        capsys, "simulate", "--trend", "const:level=0", "--noise", "white:var=1",
        "--alpha", "0.1", "--steps", "5", "--seed", "1", "--init", "true",
    )
    assert code == 2 and out == ""
    assert f"error: init must be {INIT_WORDING}, got 'true'" in err


def test_simulate_deterministic(tmp_path, capsys):
    args = [
        "simulate", "--trend", "sin:amp=1,rate=0.01", "--noise", "ar1:theta=0.2",
        "--alpha", "0.1", "--steps", "50", "--seed", "99",
    ]
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == 0 and code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# mse / optimize-alpha
# ---------------------------------------------------------------------------

def test_mse_exact(tmp_path, capsys):
    out = tmp_path / "mse.csv"
    code, text, _ = run(
        capsys, "mse", "--mode", "exact", "--alpha", "0.1",
        "--noise", "white:var=1", "--trend", "const:level=0",
        "--steps", "500", "--out", str(out),
    )
    assert code == 0
    assert "final_mse" in text
    sequence = read_csv_column(out, "mse")
    expected = exact_mse_sequence(
        0.1, WhiteGaussian(1.0), Constant(0.0), 500
    )
    assert np.array_equal(sequence, expected)


def test_mse_mc_json(capsys):
    code, out, _ = run(
        capsys, "mse", "--mode", "mc", "--alpha", "0.3",
        "--noise", "white:var=1", "--trend", "const:level=0",
        "--steps", "50", "--reps", "200", "--seed", "5", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["replications"] == 200
    assert payload["tail_mean"] > 0.0


def test_mse_mc_out_is_the_library_writers_file(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, text, _ = run(
        capsys, "mse", "--mode", "mc", "--alpha", "0.3", "--noise", "white:var=1",
        "--trend", "linear:start=0,slope=0.1", "--steps", "40", "--reps", "30",
        "--seed", "5", "--init", "2", "--out", str(out),
    )
    assert code == 0 and text.splitlines()[0] == str(out)
    config = ExperimentConfig(WhiteGaussian(1.0), Linear(0.0, 0.1), 0.3, 40, 30, seed=5, init=2.0)
    expected = write_results(monte_carlo_mse(config), tmp_path / "library.csv", "csv")
    assert out.read_bytes() == expected.read_bytes()


MSE_ARGV = ["mse", "--alpha", "0.1", "--noise", "white:var=1", "--trend", "const:level=0",
            "--steps", "5"]


def test_exact_row_t_plus_one_pairs_with_monte_carlo_row_t(tmp_path, capsys):
    # without noise every replication is the mean, so the curves agree up to
    # rounding: exact row t holds D_t (from D_1), Monte Carlo row t D_{t+1}
    common = ["--alpha", "0.3", "--noise", "white:var=0", "--trend",
              "linear:start=2,slope=0.1", "--steps", "6", "--init", "8"]
    assert run(capsys, "mse", "--mode", "exact", *common, "--out", str(tmp_path / "e.csv"))[0] == 0
    assert run(capsys, "mse", "--mode", "mc", *common, "--reps", "2", "--seed", "1",
               "--out", str(tmp_path / "m.csv"))[0] == 0
    exact = np.loadtxt(tmp_path / "e.csv", delimiter=",", skiprows=1)
    mc = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1)
    assert exact.shape == (7, 2) and mc.shape == (6, 3)
    np.testing.assert_allclose(exact[1:, 1], mc[:, 1], rtol=1e-12)
    assert exact[0, 1] == (8 - 2) ** 2


@pytest.mark.parametrize("mode,flags", [
    ("exact", ["--reps", "7", "--seed", "3", "--workers", "2"]),
    ("exact", ["--seed", "0"]),
    ("exact", ["--workers", "1"]),
])
def test_mse_rejects_the_other_modes_flags(capsys, mode, flags):
    # a flag the mode does not read is an error even when set to its default
    needed = ["--reps", "3", "--seed", "1"] if mode == "mc" else []
    code, out, err = run(capsys, *MSE_ARGV, "--mode", mode, *needed, *flags)
    assert code == 2 and out == ""
    named = ", ".join(flag for flag in flags if flag.startswith("--"))
    assert f"error: mse --mode {mode} does not take {named}\n" in err


@pytest.mark.parametrize("init", ["first", "8"])
def test_mse_exact_mode_reads_init(tmp_path, capsys, init):
    out = tmp_path / "exact.csv"
    argv = ["mse", "--mode", "exact", "--alpha", "0.2", "--noise", "ma1:a=2",
            "--trend", "linear:start=2,slope=0.1", "--steps", "30", "--init", init]
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    expected = exact_mse_sequence(0.2, MA1(2.0), Linear(2.0, 0.1), 30, parse_init(init))
    assert np.array_equal(read_csv_column(out, "mse"), expected)
    paper = exact_mse_sequence(0.2, MA1(2.0), Linear(2.0, 0.1), 30)
    assert expected[0] != paper[0]  # the flag is read, not dropped


def test_flag_usage_error_prints_no_grammar(capsys):
    # only a malformed model spec echoes the spec grammar
    code, out, err = run(capsys, *MSE_ARGV, "--mode", "exact", "--reps", "7")
    assert code == 2 and out == ""
    assert err == "error: mse --mode exact does not take --reps\n"


@pytest.mark.parametrize("argv,quantity", [
    (["--mode", "exact", "--trend", "linear:start=1e308,slope=1e308"], "final_mse"),
    (["--mode", "exact", "--trend", "linear:start=0,slope=1e200"], "final_mse"),
    # at 10 steps tail_mean is still finite and tail_se is not
    (["--mode", "mc", "--noise", "white:var=1e308", "--steps", "10", "--reps", "5",
      "--seed", "1"], "tail_se"),
])
def test_non_finite_result_exit_one(tmp_path, capsys, argv, quantity):
    argv = ["mse", "--alpha", "0.1", "--steps", "5", "--noise", "white:var=1",
            "--trend", "const:level=0", *argv, "--json", "--out", str(tmp_path / "o.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"error: {quantity} is not finite" in err
    assert not (tmp_path / "o.csv").exists()


_SERIES_COMMANDS = [["mse", "--mode", "exact"], ["simulate", "--seed", "1"]]


@pytest.mark.parametrize("command", _SERIES_COMMANDS)
@pytest.mark.parametrize("steps", ["100000000000", str(MAX_CELLS + 1)])
def test_oversized_horizon_exits_one_before_allocating(tmp_path, capsys, command, steps):
    # one step over the cap would take 160 MB a series, so a refusal that
    # came after any series was allocated would show in the traced peak
    argv = [*command, "--alpha", "0.1", "--noise", "white", "--trend", "linear:start=0,slope=1",
            "--steps", steps, "--out", str(tmp_path / "o.csv")]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == (f"error: horizon {steps} is over the cap of {MAX_CELLS} steps "
                   f"(about {8 * int(steps) / 1e6:.0f} MB for each series)\n")
    assert peak < 10**6
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["bound --alpha 0.1", "optimize-alpha"])
def test_overflowing_k_exit_one(capsys, command):
    code, out, err = run(capsys, *command.split(), "--k", "1e200", "--noise", "white:var=1")
    assert code == 1 and out == ""
    assert "trend_term" in err and "is not finite" in err


@pytest.mark.parametrize("k, trend_term", [("0", 0.0), ("1e-150", 1e100)])
def test_bound_at_a_tiny_alpha_reports_the_real_trend_term(capsys, k, trend_term):
    # (beta/alpha)^2 overflowed and decided the term: inf, and exit 1, for both
    code, out, err = run(capsys, "bound", "--alpha", "1e-200", "--k", k,
                         "--noise", "white:var=1", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["trend_term"] == pytest.approx(trend_term, rel=1e-15, abs=0.0)
    assert report["total"] == report["variance_term"] + report["trend_term"]


def test_optimize_alpha_at_a_tiny_k_reports_a_positive_total(capsys):
    # K^2 underflowed to 0.0: alpha 7.5e-155 was reported with total 0.0,
    # where the real total is 1.8e-32
    code, out, err = run(capsys, "optimize-alpha", "--k", "1e-170",
                         "--noise", "white:var=0", "--json")
    assert (code, err) == (0, "")
    result = json.loads(out)
    alpha, total = result["alpha"], result["report"]["total"]
    real = ((1 - Fraction(alpha)) / Fraction(alpha)) ** 2 * Fraction(1e-170) ** 2
    assert result["degenerate"] is False and total > 0.0
    assert abs(Fraction(total) - real) <= Fraction(math.ulp(0.0))


def test_optimize_alpha_tiny_tol_returns(capsys):
    code, out, _ = run(capsys, "optimize-alpha", "--k", "0.1", "--noise", "white:var=1", "--json")
    assert code == 0
    assert json.loads(out)["alpha"] == pytest.approx(0.27774, abs=1e-4)


def test_mse_mc_missing_flags_usage_error(capsys):
    code, _, err = run(
        capsys, "mse", "--mode", "mc", "--alpha", "0.3",
        "--noise", "white:var=1", "--trend", "const:level=0", "--steps", "50",
    )
    assert code == 2
    assert "--reps" in err and "--seed" in err


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("flag", ["--alpha", "--steps"])
def test_mse_requires_alpha_and_steps_in_both_modes(capsys, mode, flag):
    # argparse refuses the call before any mode check, so the usage line shows
    # both flags as required
    argv = ["mse", "--mode", mode, "--alpha", "0.1", "--noise", "white:var=1",
            "--trend", "const:level=0", "--steps", "5"]
    if mode == "mc":
        argv += ["--reps", "3", "--seed", "1"]
    at = argv.index(flag)
    code, out, err = run(capsys, *argv[:at], *argv[at + 2:])
    assert code == 2 and out == ""
    assert f"the following arguments are required: {flag}" in err
    assert "--alpha ALPHA --steps HORIZON" in " ".join(err.split())


def test_optimize_alpha_json(capsys):
    code, out, _ = run(capsys, "optimize-alpha", "--k", "0.1", "--noise", "white:var=1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["alpha"] < 1.0
    assert payload["degenerate"] is False
    assert payload["report"]["total"] > 0.0


# ---------------------------------------------------------------------------
# verify / reproduce
# ---------------------------------------------------------------------------

def _write_config(path, **overrides):
    defaults = dict(
        noise=WhiteGaussian(1.0),
        trend=Constant(0.0),
        alpha=0.1,
        horizon=400,
        replications=400,
        seed=11,
        init="first",
    )
    defaults.update(overrides)
    config = ExperimentConfig(**defaults)
    save_experiment_config(config, path)
    return path


def test_verify_pass(tmp_path, capsys):
    config = _write_config(tmp_path / "ok.json")
    code, out, _ = run(capsys, "verify", "--config", str(config))
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == [
        "empirical_tail", "tail_se", "k", "bound_total", "margin", "result"]
    assert "PASS" in out


def test_verify_passes_a_zero_noise_ramp(tmp_path, capsys):
    config = _write_config(tmp_path / "ramp.json", noise=WhiteGaussian(0.0),
                           trend=Linear(2.0, 0.1), horizon=2000, replications=2, seed=5)
    code, out, _ = run(capsys, "verify", "--config", str(config), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["bound_total"] >= payload["empirical_tail"]


def test_verify_reports_the_k_that_bound_reproduces(tmp_path, capsys):
    config = _write_config(tmp_path / "fig1a.json", noise=MA1(2.0), trend=Linear(2.0, 0.1),
                           horizon=1000, replications=64, init=8.0)
    code, out, _ = run(capsys, "verify", "--config", str(config), "--json")
    assert code == 0
    verified = json.loads(out)
    assert verified["k"] == 0.10000000000000854
    code, out, _ = run(capsys, "bound", "--alpha", "0.1", "--noise", "ma1:a=2",
                       "--k", repr(verified["k"]), "--json")
    assert code == 0
    assert json.loads(out) == verified["bound"]
    assert verified["bound"]["total"] == verified["bound_total"] == 0.9005263157896121


@pytest.mark.parametrize("trend", [Constant(3.0), Table((-2.5,) * 400)], ids=["const", "table"])
def test_verify_reports_k_zero_for_a_constant_trend(tmp_path, capsys, trend):
    # the largest increment 0.0 is exact and was once stepped up to 5e-324
    config = _write_config(tmp_path / "flat.json", trend=trend)
    code, out, _ = run(capsys, "verify", "--config", str(config), "--json")
    verified = json.loads(out)
    assert code == 0 and verified["k"] == 0.0
    code, out, _ = run(capsys, "bound", "--alpha", "0.1", "--noise", "white:var=1",
                       "--k", "0", "--json")
    assert code == 0
    assert json.loads(out) == verified["bound"]
    assert json.loads(out)["total"] == verified["bound_total"]


def test_verify_measures_k_before_any_replication(tmp_path, capsys, monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the Monte Carlo engine ran")

    monkeypatch.setattr(sestrack.experiments, "monte_carlo_mse", engine)
    config = _write_config(tmp_path / "overflow.json", noise=WhiteGaussian(0.0),
                           trend=Linear(1e308, 1e308), horizon=1000, replications=10_000)
    code, out, err = run(capsys, "verify", "--config", str(config), "--json")
    assert (code, out) == (1, "")
    assert err == "error: trend increment bound must be finite and >= 0, got nan\n"


def test_verify_violation_exit_three(tmp_path, capsys):
    # short horizon: the init transient has not decayed, so the asymptotic
    # bound is genuinely exceeded
    config = _write_config(
        tmp_path / "fail.json", alpha=0.05, horizon=20, replications=300, init=8.0
    )
    code, out, _ = run(capsys, "verify", "--config", str(config), "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["empirical_tail"] > payload["bound_total"]


def test_verify_inconclusive_exit_four(tmp_path, capsys):
    config = _write_config(tmp_path / "weak.json", replications=2)
    code, out, _ = run(capsys, "verify", "--config", str(config), "--json")
    assert code == 4
    payload = json.loads(out)
    assert payload["inconclusive"] is True and payload["passed"] is False
    assert 3.0 * payload["tail_se"] >= payload["bound_total"]
    code, out, _ = run(capsys, "verify", "--config", str(config))
    assert code == 4
    assert "INCONCLUSIVE" in out


def test_verify_one_replication_exit_one(tmp_path, capsys):
    # one replication has no spread, so its tail_se of 0 is no estimate
    config = _write_config(tmp_path / "cfg.json")
    code, out, err = run(capsys, "verify", "--config", str(config), "--reps", "1", "--json")
    assert code == 1 and out == ""
    assert err == "error: verify needs at least 2 replications to estimate the tail's " \
        "standard error, got 1\n"


def test_verify_reps_override_and_output(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.1, 100, 999, seed=3)
    save_experiment_config(config, path, output={"csv": str(tmp_path / "curve.csv")})
    code, out, _ = run(capsys, "verify", "--config", str(path), "--reps", "50", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (tmp_path / "curve.csv").exists()
    curve = read_csv_column(tmp_path / "curve.csv", "mse")
    assert len(curve) == 100


def test_verify_refuses_one_output_file_named_twice(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sestrack.experiments, "verify_bound", None)  # never reached
    path = tmp_path / "cfg.json"
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.1, 100, 50, seed=3)
    curve = str(tmp_path / "curve.out")
    save_experiment_config(config, path, output={"csv": curve, "svg": str(tmp_path / "." / "curve.out")})
    code, out, err = run(capsys, "verify", "--config", str(path), "--json")
    assert code == 1 and out == ""
    assert err == f"error: config.output: csv and svg name the same file {curve!r}\n"
    assert sorted(tmp_path.iterdir()) == [path]


def test_verify_refuses_a_hard_linked_output_pair(tmp_path, capsys, monkeypatch):
    # a hard link resolves to no other path, yet the SVG would replace the CSV
    monkeypatch.setattr(sestrack.experiments, "verify_bound", None)  # never reached
    path = tmp_path / "cfg.json"
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.1, 100, 50, seed=3)
    curve, alias = tmp_path / "curve.out", tmp_path / "alias.out"
    curve.write_bytes(b"sentinel")
    os.link(curve, alias)
    save_experiment_config(config, path, output={"csv": str(curve), "svg": str(alias)})
    code, out, err = run(capsys, "verify", "--config", str(path), "--json")
    assert code == 1 and out == ""
    assert err == f"error: config.output: csv and svg name the same file {str(curve)!r}\n"
    assert curve.read_bytes() == b"sentinel"


def test_verify_bad_config_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1, "bogus": true}')
    code, _, err = run(capsys, "verify", "--config", str(path))
    assert code == 1


@pytest.mark.parametrize("tail_mean, tail_se, verdict, code", [
    (0.05, 0.001, "PASS", 0),
    (0.06, 0.001, "FAIL", 3),
    (0.05, 0.02, "INCONCLUSIVE", 4),  # 3 * tail_se reaches the bound
    (0.2, 0.02, "FAIL", 3),  # above the allowance however wide it is
    (0.05, 0.0, "PASS", 0),  # no spread, so no allowance to be inconclusive about
    (math.nan, 0.001, "FAIL", 1),  # main's finiteness check exits 1
])
def test_verify_verdict_and_exit_code(tmp_path, capsys, monkeypatch, tail_mean, tail_se,
                                      verdict, code):
    # white noise of var 1 at alpha 0.1 under a constant trend: bound.total = 0.1 / 1.9
    def engine(config, workers=1):
        flat = np.zeros(config.horizon)
        return sestrack.MseCurve(flat, flat, tail_mean, tail_se, tail_mean, 1, config.replications)

    monkeypatch.setattr(sestrack.experiments, "monte_carlo_mse", engine)
    path = _write_config(tmp_path / "cfg.json", horizon=10, replications=2)
    check = sestrack.verify_bound(sestrack.load_experiment_config(path)[0])
    assert check.bound.total == pytest.approx(0.1 / 1.9, rel=1e-12)
    assert check.verdict == verdict
    assert run(capsys, "verify", "--config", str(path), "--json")[0] == code


@pytest.mark.parametrize("document, reason", [
    (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    (b'{"schema_version": 1, "bogus": "\xff"}', "can't decode byte 0xff"),
    (b'{"schema_version": 1, "alpha": 0.1, "alpha": 0.5}', "repeated key 'alpha'"),
    (b'{"schema_version": 1, "noise": {"kind": "white", "var": 1, "var": 2}}',
     "repeated key 'var'"),
], ids=["deep", "not-utf-8", "repeated", "repeated-nested"])
def test_verify_malformed_config_exit_one_naming_the_file(tmp_path, capsys, document, reason):
    path = tmp_path / "bad.json"
    path.write_bytes(document)
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: invalid JSON: ") and reason in err
    assert "Traceback" not in err


def test_verify_non_finite_trend_config_exit_one(tmp_path, capsys):
    path = _write_config(tmp_path / "trend.json", trend=Linear(2.0, 0.1), horizon=10, replications=3)
    document = json.loads(path.read_text())
    document["trend"]["slope"] = math.inf
    path.write_text(json.dumps(document))  # written as the JSON extension Infinity
    code, _, err = run(capsys, "verify", "--config", str(path))
    assert code == 1
    assert "linear trend slope must be finite, got inf" in err


def test_reproduce(tmp_path, capsys):
    code, out, _ = run(capsys, "reproduce", "--figure", "1a", "--outdir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "fig1a.csv").exists()
    assert (tmp_path / "fig1a.svg").exists()
    lines = (tmp_path / "fig1a.csv").read_text().splitlines()
    assert len(lines) == 1001


def test_reproduce_invalid_figure(tmp_path, capsys):
    code, _, err = run(capsys, "reproduce", "--figure", "4x", "--outdir", str(tmp_path))
    assert code == 1
    assert "1a, 1b, 2a, 2b, 3a, 3b" in err


def test_module_entrypoint_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "sestrack", "bound", "--alpha", "0.1", "--k", "0",
         "--noise", "white:var=1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "0.05263157895" in result.stdout


def _child_env() -> dict:
    src = str(Path(sestrack.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


# an overflow in each command, under the interpreter's own warning filters:
# the default shows a RuntimeWarning on stderr, and "error" raises it
_OVERFLOWS = [
    ("default", ["mse", "--mode", "exact", "--alpha", "0.1", "--noise", "white:var=1", "--steps",
                 "5", "--trend", "linear:start=1e308,slope=1e308", "--json"],
     "error: final_mse is not finite (nan)\n"),
    ("error", ["simulate", "--alpha", "0.1", "--noise", "white:var=1", "--steps", "5", "--seed",
               "1", "--trend", "linear:start=1e308,slope=1e308"],
     "error: observations must all be finite\n"),
]


@pytest.mark.parametrize("filter_,argv,err", _OVERFLOWS, ids=["mse-default", "simulate-error"])
def test_an_overflow_prints_its_error_line_and_no_warning(filter_, argv, err):
    # outside pytest's own warning filters, as a terminal sees the command
    done = subprocess.run([sys.executable, "-W", filter_, "-m", "sestrack", *argv],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", err)


# runs each argv as ``python -m sestrack`` in this one process; prints the
# exit codes and whether numpy was loaded
_RUN_MODULE_PROBE = """
import contextlib, io, json, runpy, sys
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["sestrack", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("sestrack", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, "numpy._core" in sys.modules]))
"""

_FLOAT_COMMANDS = [
    *([*command, "--noise", spec, *out]
      for spec in ("white:var=1.5", "ma1:a=-0.4", "ar1:theta=0.9", "maq:b1=0.5,b2=-0.3")
      for command in (["bound", "--alpha", "0.1", "--k", "0.05"], ["optimize-alpha", "--k", "0.2"])
      for out in ([], ["--json"])),
    ["optimize-alpha", "--k", "0", "--noise", "white:var=0", "--json"],
    ["optimize-alpha", "--k", "1e300", "--noise", "ar1:theta=0.2"],
    ["--help"],
    ["bound", "--alpha", "0.1", "--k", "0", "--noise", "bogus:var=1"],
]


def test_float_commands_never_load_numpy():
    # bound and optimize-alpha compute on Python floats, and neither they
    # nor --help or a usage error touch numpy, so a one-shot call skips its import
    done = subprocess.run(
        [sys.executable, "-c", _RUN_MODULE_PROBE, json.dumps(_FLOAT_COMMANDS)],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    codes, loaded = json.loads(done.stdout)
    assert codes == [0] * (len(_FLOAT_COMMANDS) - 3) + [1, 0, 2]
    assert not loaded


# the modules a cold bound or optimize-alpha call never imports
_WRITER_MODULES = ["csv", "pickle", "sestrack.dataio", "sestrack.experiments"]


def test_float_commands_never_load_the_writers_or_the_monte_carlo_engine():
    # the config codec they read their flags through lives apart from the
    # CSV/SVG writers and the Monte Carlo engine, which the package namespace
    # loads on first use, so none of them is even in sys.modules
    listing = f"print(json.dumps([n for n in {_WRITER_MODULES!r} if n in sys.modules]))"
    done = subprocess.run(
        [sys.executable, "-c", _RUN_MODULE_PROBE + listing, json.dumps(_FLOAT_COMMANDS)],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    (codes, _), present = map(json.loads, done.stdout.splitlines())
    assert codes == [0] * (len(_FLOAT_COMMANDS) - 3) + [1, 0, 2]
    assert present == []


def test_walking_the_cli_modules_loads_no_writer():
    # every sestrack module in sys.modules after importing cli is a loaded
    # module, so a walk over their vars() (as a tracer makes) imports nothing
    probe = f"""
import json, sys, types
import sestrack.cli
package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "sestrack"]
half = [m.__name__ for m in package if type(m) is not types.ModuleType]
for module in package:
    vars(module)
print(json.dumps([half, [n for n in {_WRITER_MODULES!r} if n in sys.modules]]))
"""
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[], []]


def test_numpy_imported_first_is_the_module_the_package_uses():
    probe = ("import types, numpy, sestrack; "
             "print(sestrack._numpy.np is numpy and type(numpy) is types.ModuleType)")
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "True"


def test_main_keeps_one_parser_that_answers_as_a_fresh_interpreter(capsys, monkeypatch):
    # main parses with one parser per process: a usage error and --help, each
    # asked twice in this process, read as they do from a new interpreter
    monkeypatch.setenv("COLUMNS", "80")  # the --help text wraps at this width
    env = dict(_child_env(), COLUMNS="80")
    answers = []
    for argv in (["bound", "--alpha", "0.1", "--k", "0", "--noise", "bogus:var=1"], ["--help"]):
        fresh = subprocess.run([sys.executable, "-m", "sestrack", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        answers.append((fresh.returncode, fresh.stdout, fresh.stderr))
        assert run(capsys, *argv) == answers[-1] and run(capsys, *argv) == answers[-1]
    (error_code, _, error), (help_code, help_text, _) = answers
    assert error_code == 2 and error.endswith(SPEC_GRAMMAR)
    assert help_code == 0 and help_text.startswith("usage: sestrack")
    # build_parser hands out a new parser each call, so changing one leaves main's alone
    parser = build_parser()
    assert parser is not build_parser()
    parser.prog, parser.epilog = "mutated", ""
    assert run(capsys, "--help") == answers[1]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("data, code, stdout, stderr", [
    (b"t,x\n1,2\n2,3\n", 0, b"t,x,m_hat\n1,2,2\n2,3,2.5\n", b""),
    # past the text reader's first decoded block, so the row is placed in the bytes read
    (b"t,x\n" + b"1,2\n" * 5000 + b"5001,\xff\n", 1, b"",
     b"error: /dev/stdin: row 5001: not UTF-8 text"),
], ids=["utf8", "not_utf8"])
def test_smooth_reads_a_pipe(data, code, stdout, stderr):
    # a pipe can be read only once, so the reader must not scan it first
    result = subprocess.run(
        [sys.executable, "-m", "sestrack", "smooth", "--input", "/dev/stdin",
         "--column", "x", "--alpha", "0.5"],
        input=data, capture_output=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (code, stdout)
    assert result.stderr.startswith(stderr), result.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_smooth_reads_a_fifo_once(tmp_path):
    # a FIFO's bytes are gone once read: opening it again to place the bad
    # byte would wait for a writer that never comes
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as handle:
            handle.write(b"x\n1.0\n\xff\n")

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    result = subprocess.run(
        [sys.executable, "-m", "sestrack", "smooth", "--input", str(fifo),
         "--column", "x", "--alpha", "0.1"],
        capture_output=True, text=True, timeout=30,
    )
    writer.join(timeout=30)
    assert (result.returncode, result.stdout) == (1, "")
    assert "row 2: not UTF-8 text" in result.stderr, result.stderr


# ---------------------------------------------------------------------------
# fuzzed argv
# ---------------------------------------------------------------------------

EXTREME_NUMBERS = [
    "0", "1e-320", "-1e-320", "1e-300", "-1e-300", "1e154", "-1e154",
    "1e200", "-1e200", "1e308", "-1e308", "inf", "-inf", "nan",
]
# half of the draws are ordinary, so an extreme value usually meets valid
# companions and reaches the numerical code behind the checks
_number = st.one_of(st.sampled_from(["0.5", "2", "-0.4", "0.1"]), st.sampled_from(EXTREME_NUMBERS))
_alpha = st.one_of(st.sampled_from(["0.05", "0.3", "0.9"]), _number)
_noise = st.one_of(
    st.builds("white:var={}".format, _number),
    st.builds("ma1:a={},var={}".format, _number, _number),
    st.builds("ar1:theta={},var={}".format, _number, _number),
    st.builds("maq:b1={},b2={},var={}".format, _number, _number, _number),
    st.builds("{}:a={},var={}".format, st.sampled_from(["ma1", "MA1"]), _number, _number),
)
_trend = st.one_of(
    st.builds("const:level={}".format, _number),
    st.builds("linear:start={},slope={}".format, _number, _number),
    st.builds("sin:amp={},rate={},phase={}".format, _number, _number, _number),
    st.builds("table:values1={},values2={}".format, _number, _number),
)
_steps = st.sampled_from(["1", "2", "17", "50"])
_seed = st.sampled_from(["0", "1", str(2**64 - 1)])
_init = st.one_of(st.just("first"), _number, st.sampled_from(["abc", "First", "", "0x10"]))
_reps = st.sampled_from(["1", "2", "64"])
_workers = st.sampled_from(["1", "2"])
# the flags each mse mode rejects, since only the other mode reads them
OTHER_MODE_FLAGS = {"--mode=exact": ("--reps", "--seed", "--workers"), "--mode=mc": ()}


def _flags(**values):
    return st.fixed_dictionaries(values).map(
        lambda drawn: [f"--{k}={v}" for k, v in drawn.items()]
    )


def _one_or_none(**values):
    """No flag, or one of ``values``."""
    return st.one_of(st.just([]), st.sampled_from(sorted(values)).flatmap(
        lambda key: _flags(**{key: values[key]})))


_argv = st.one_of(
    st.tuples(st.just(["bound"]), _flags(alpha=_alpha, k=_number, noise=_noise)),
    st.tuples(st.just(["optimize-alpha"]), _flags(k=_number, noise=_noise)),
    st.tuples(st.just(["mse", "--mode=exact"]), _flags(
        alpha=_alpha, noise=_noise, trend=_trend, steps=_steps),
        _one_or_none(init=_init), _one_or_none(reps=_reps, seed=_seed, workers=_workers)),
    st.tuples(st.just(["mse", "--mode=mc"]), _flags(
        alpha=_alpha, noise=_noise, trend=_trend, steps=_steps, seed=_seed, init=_init,
        reps=_reps, workers=_workers)),
    st.tuples(st.just(["simulate"]), _flags(
        alpha=_alpha, noise=_noise, trend=_trend, steps=_steps, seed=_seed, init=_init)),
).map(lambda parts: sum(parts, []))


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(argv=_argv, json_output=st.booleans())
# a square that overflows in MA(1)'s sampler once ended in an OverflowError
@example(argv=["simulate", "--alpha=0.5", "--noise=ma1:a=1e200", "--trend=const:level=0",
               "--steps=2", "--seed=1", "--init=first"], json_output=False)
@example(argv=["mse", "--mode=mc", "--alpha=0.5", "--noise=ma1:a=-1e308", "--steps=2",
               "--trend=linear:start=0,slope=1", "--seed=1", "--reps=2"], json_output=True)
def test_fuzzed_argv_ends_in_an_exit_code(tmp_path_factory, argv, json_output):
    # at most 64 replications are one block, so no worker process is forked
    if argv[0] == "simulate":
        argv = argv + [f"--out={tmp_path_factory.getbasetemp() / 'fuzz.csv'}"]
    elif json_output:
        argv = argv + ["--json"]
    stray = argv[0] == "mse" and any(
        arg.partition("=")[0] in OTHER_MODE_FLAGS[argv[1]] for arg in argv[2:]
    )
    code = main(argv)
    assert type(code) is int and 0 <= code <= 5
    assert code == 2 or not stray
