"""One declaration per model kind and per experiment field: the config
codec, the CLI specs, the run flags and the grammar text all derive from
NOISE_KINDS / TREND_KINDS and the ExperimentConfig field metadata."""

import argparse
import copy
import dataclasses
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sestrack import (
    AR1,
    MA1,
    MAq,
    Constant,
    ExperimentConfig,
    Linear,
    Sinusoid,
    Table,
    WhiteGaussian,
)
from sestrack.cli import SPEC_GRAMMAR, build_parser, main, parse_spec
from sestrack.dataio import experiment_config_from_dict, model_from_dict, model_to_dict
from sestrack.processes import NOISE_KINDS, TREND_KINDS

EXAMPLES = [
    WhiteGaussian(0.5),
    MA1(2.0, 1.5),
    AR1(0.2, 0.7),
    MAq((0.5, -0.3, 0.25), 2.0),
    Constant(5.0),
    Linear(2.0, 0.1),
    Sinusoid(1.0, 0.0031415926, 0.3),
    Table((1.0, 2.5, 2.0)),
]


def _kinds(model):
    return NOISE_KINDS if model.kind in NOISE_KINDS else TREND_KINDS


def test_examples_cover_every_registered_kind():
    assert {type(m) for m in EXAMPLES} == {*NOISE_KINDS.values(), *TREND_KINDS.values()}


@pytest.mark.parametrize("model", EXAMPLES, ids=lambda m: m.kind)
def test_every_kind_round_trips_through_dict_and_spec(model):
    document = model_to_dict(model)
    decoded = model_from_dict(json.loads(json.dumps(document)), _kinds(model), "model")
    assert decoded == model
    assert model_to_dict(decoded) == document
    # the same model as a CLI spec: list fields become indexed keys
    parts = []
    for key, value in document.items():
        if isinstance(value, list):
            parts += [f"{key}{i}={v!r}" for i, v in enumerate(value, start=1)]
        elif key != "kind":
            parts.append(f"{key}={value!r}")
    assert parse_spec(f"{model.kind}:{','.join(parts)}", _kinds(model), "model") == model


def test_readme_shows_the_generated_grammar():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"```\n{SPEC_GRAMMAR}```" in readme
    for kind in (*NOISE_KINDS, *TREND_KINDS):
        assert f" {kind}:" in SPEC_GRAMMAR


def _subcommands() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _run_flag_table() -> str:
    """README's table of experiment keys and run flags, built from the field
    metadata and the subcommands whose flag carries the declared help."""
    commands = _subcommands()
    rows = ["| config key | flag | flag read by |", "|---|---|---|"]
    for f in dataclasses.fields(ExperimentConfig):
        flag, text = f.metadata["flag"] or (None, None)
        readers = [
            name + (" (mc mode)" if action.help.endswith("(mc mode)") else "")
            for name, parser in commands.items()
            for action in parser._actions
            if flag in action.option_strings and action.help.startswith(text)
        ]
        shown = f"`{flag}`" if flag else "none"
        rows.append(f"| `{f.metadata['key']}` | {shown} | {', '.join(readers) or 'none'} |")
    return "\n".join(rows) + "\n"


def test_readme_shows_the_generated_run_flag_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert _run_flag_table() in readme


def test_readme_cli_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("sestrack ")]
    for argv in commands:
        build_parser().parse_args(argv)  # a usage error exits
    assert {argv[0] for argv in commands} == set(_subcommands())


def test_cli_accepts_table_trend(capsys):
    code = main(["mse", "--mode", "exact", "--alpha", "0.5", "--noise", "white:var=0",
                 "--trend", "table:values1=0,values2=1,values3=3", "--steps", "3", "--json"])
    assert code == 0
    # D_4 = (beta K_2 + K_3)^2 * beta^2 with K = 1, 2 and beta = 0.5
    assert json.loads(capsys.readouterr().out)["final_mse"] == pytest.approx(1.5625)


# ---------------------------------------------------------------------------
# strict config types
# ---------------------------------------------------------------------------

BASE = {
    "schema_version": 1,
    "noise": {"kind": "ma1", "a": 2.0, "var": 1.0},
    "trend": {"kind": "linear", "start": 2.0, "slope": 0.1},
    "alpha": 0.1,
    "horizon": 50,
    "replications": 20,
    "seed": 3,
    "init": 8.0,
    "tail_fraction": 0.1,
    "output": {"csv": "curve.csv"},
}


@pytest.mark.parametrize(
    "key, value, path",
    [
        ("noise", "ma1", "config.noise"),
        ("noise", {"kind": "ma1", "a": [5]}, "config.noise.a"),
        ("noise", {"kind": "maq", "b": 5}, "config.noise.b"),
        ("noise", {"kind": "maq", "b": [0.5, "0.3"]}, "config.noise.b[1]"),
        ("noise", {"kind": "white", "var": 10**400}, "config.noise.var"),
        ("noise", {"kind": ["ma1"]}, "config.noise"),
        ("trend", {"kind": "table", "values": 3}, "config.trend.values"),
        ("trend", {"kind": "sin", "amp": True, "rate": 0.1}, "config.trend.amp"),
        ("horizon", 50.7, "config.horizon"),
        ("replications", "20", "config.replications"),
        ("seed", True, "config.seed"),
        ("alpha", "0.1", "config.alpha"),
        ("tail_fraction", None, "config.tail_fraction"),
        ("init", "last", "config.init"),
        ("init", [8.0], "config.init"),
        ("schema_version", True, "config.schema_version"),
        ("output", {"csv": 5}, "config.output.csv"),
        ("output", [], "config.output"),
    ],
)
def test_wrong_json_type_exits_one_naming_the_path(tmp_path, capsys, key, value, path):
    document = copy.deepcopy(BASE)
    document[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    assert main(["verify", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:")
    assert not (tmp_path / "curve.csv").exists()


def _paths(document, prefix=()):
    for key, value in document.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


_OTHER_KINDS = dict(
    BASE,
    noise={"kind": "maq", "b": [0.5, -0.3], "var": 1.0},
    trend={"kind": "table", "values": [0.0] * 50},
)
_TARGETS = [(base, path) for base in (BASE, _OTHER_KINDS) for path in _paths(base)]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(_TARGETS), value=_json_values)
def test_any_replaced_value_decodes_or_raises_value_error(target, value):
    base, path = target
    document = copy.deepcopy(base)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        experiment_config_from_dict(document)
    except ValueError:
        pass
