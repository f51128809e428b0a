import json
import math
import os
import subprocess
import sys
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sestrack import (
    Constant,
    ExperimentConfig,
    Linear,
    WhiteGaussian,
    exact_mse_sequence,
    monte_carlo_mse,
    read_csv_column,
    save_experiment_config,
    ses_run,
    write_csv,
    write_results,
)
from sestrack.cli import main


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


def test_bound_sigma_alias(capsys):
    code, out, _ = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", "ar1:theta=0.2,sigma=1")
    code2, out2, _ = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", "ar1:theta=0.2,var=1")
    assert code == 0 and code2 == 0
    assert out == out2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_unknown_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", "pink:var=1")
    assert code == 2
    assert "model specs are written" in err  # grammar echoed


def test_unknown_key_is_usage_error(capsys):
    # the allowed keys are the ones a spec takes: never kind, never a bare b
    for spec, allowed in (("ar1:thetax=0.2", "allowed keys: theta, var, sigma"),
                          ("maq:c1=0.2", "allowed keys: b1, b2, ..., var, sigma"),
                          ("maq:b=0.2", "allowed keys: b1, b2, ..., var, sigma"),
                          ("ar1:kind=1,theta=0.2", "allowed keys: theta, var, sigma")):
        code, _, err = run(capsys, "bound", "--alpha", "0.1", "--k", "0", "--noise", spec)
        assert code == 2, spec
        message = err.splitlines()[0]
        assert message.endswith(allowed), message


def test_malformed_specs_exit_two_with_grammar(capsys):
    for spec in ("ar1", "ar1:theta", "ar1:theta=x", "maq:var=1", "maq:b1=1,b3=2",
                 "ar1:theta=0.2,sigma=1,var=1", "ma1:a=1,a=2"):
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


@pytest.mark.parametrize("mode,flags", [
    ("exact", ["--reps", "7", "--seed", "3", "--init", "8", "--workers", "2"]),
    ("exact", ["--init", "first"]),
    ("exact", ["--workers", "1"]),
    ("mc", ["--d1", "variance"]),
    ("mc", ["--d1", "paper"]),
])
def test_mse_rejects_the_other_modes_flags(capsys, mode, flags):
    # a flag the mode does not read is an error even when set to its default
    needed = ["--reps", "3", "--seed", "1"] if mode == "mc" else []
    code, out, err = run(capsys, *MSE_ARGV, "--mode", mode, *needed, *flags)
    assert code == 2 and out == ""
    named = ", ".join(flag for flag in flags if flag.startswith("--"))
    assert f"error: mse --mode {mode} does not take {named}\n" in err


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


@pytest.mark.parametrize("command", ["bound --alpha 0.1", "optimize-alpha"])
def test_overflowing_k_exit_one(capsys, command):
    code, out, err = run(capsys, *command.split(), "--k", "1e200", "--noise", "white:var=1")
    assert code == 1 and out == ""
    assert "trend_term" in err and "is not finite" in err


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
    assert "PASS" in out


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


def test_verify_bad_config_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1, "bogus": true}')
    code, _, err = run(capsys, "verify", "--config", str(path))
    assert code == 1


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


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_smooth_reads_a_pipe():
    # a pipe can be read only once, so the reader must not scan it first
    result = subprocess.run(
        [sys.executable, "-m", "sestrack", "smooth", "--input", "/dev/stdin",
         "--column", "x", "--alpha", "0.5"],
        input="t,x\n1,2\n2,3\n", capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "t,x,m_hat\n1,2,2\n2,3,2.5\n")


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
    st.builds("ma1:a={},sigma={}".format, _number, _number),
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
_d1 = st.sampled_from(["paper", "variance"])
_reps = st.sampled_from(["1", "2", "64"])
_workers = st.sampled_from(["1", "2"])
# the flags each mse mode rejects, since only the other mode reads them
OTHER_MODE_FLAGS = {"--mode=exact": ("--reps", "--seed", "--init", "--workers"),
                    "--mode=mc": ("--d1",)}


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
        alpha=_alpha, noise=_noise, trend=_trend, steps=_steps, d1=_d1),
        _one_or_none(reps=_reps, seed=_seed, init=_init, workers=_workers)),
    st.tuples(st.just(["mse", "--mode=mc"]), _flags(
        alpha=_alpha, noise=_noise, trend=_trend, steps=_steps, seed=_seed, init=_init,
        reps=_reps, workers=_workers), _one_or_none(d1=_d1)),
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
