"""One declaration per model kind and per experiment field: the config
codec, the CLI specs, the run flags and the grammar text all derive from
NOISE_KINDS / TREND_KINDS and the ExperimentConfig field metadata."""

import argparse
import contextlib
import copy
import io
import dataclasses
import json
import re
import shlex
from dataclasses import MISSING
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
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
from sestrack.config import (
    experiment_config_from_dict,
    experiment_config_to_dict,
    model_from_dict,
    model_to_dict,
)
from sestrack.processes import (
    NOISE_KINDS,
    TREND_KINDS,
    NoiseModel,
    Numbers,
    SchemaError,
    TrendSpec,
    model_fields,
)
from sestrack.smoothing import InitPolicy

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
    assert parse_spec(_flat_spec(document), _kinds(model), "model") == model


def _flat_spec(document: dict, kind: str | None = None, extra: tuple = ()) -> str:
    """The config object ``document`` written flat as a spec, list fields as
    indexed keys, under ``kind`` if given and with the ``extra`` items added."""
    parts = []
    for key, value in document.items():
        if isinstance(value, list):
            parts += [f"{key}{i}={v!r}" for i, v in enumerate(value, start=1)]
        elif key != "kind":
            parts.append(f"{key}={value!r}")
    return f"{kind or document['kind']}:{','.join([*parts, *extra])}"


_PARAMETERS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _models(draw):
    """A model of any registered kind, each declared field drawn, a field
    with a default sometimes left to it; parameters its kind refuses are
    rejected."""
    cls = draw(st.sampled_from([*NOISE_KINDS.values(), *TREND_KINDS.values()]))
    args = {}
    for attr, _, default, hint in model_fields(cls):
        if hint == Numbers:
            args[attr] = tuple(draw(st.lists(_PARAMETERS, min_size=1, max_size=4)))
        elif default is MISSING or draw(st.booleans()):
            args[attr] = draw(_PARAMETERS)
    try:
        return cls(**args)
    except ValueError:
        reject()


def _spec_exit(spec: str, kinds: dict) -> tuple[int, str]:
    """The exit code and stderr of a command that parses ``spec`` as the
    noise (``bound``) or the trend (``mse --mode exact``)."""
    if kinds is NOISE_KINDS:
        argv = ["bound", "--alpha", "0.1", "--k", "0", "--noise", spec]
    else:
        argv = ["mse", "--mode", "exact", "--alpha", "0.1", "--steps", "2",
                "--noise", "white:var=1", "--trend", spec]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(model=_models())
def test_a_spec_is_the_config_object_written_flat(model):
    # a spec takes exactly the keys and kinds the config codec takes: any
    # model of any kind, written flat from its config object, parses back
    # equal, and a key the codec refuses or a kind in another case exits 2
    kinds = _kinds(model)
    document = model_to_dict(model)
    assert parse_spec(_flat_spec(document), kinds, "model") == model
    lists = [key for _, key, _, hint in model_fields(type(model)) if hint == Numbers]
    for key in {"sigma", "kind", "b", *lists}:
        code, err = _spec_exit(_flat_spec(document, extra=[f"{key}=1"]), kinds)
        assert code == 2 and f"unknown key(s) ['{key}']" in err and SPEC_GRAMMAR in err
    for kind in {model.kind.upper(), model.kind.capitalize()}:
        code, err = _spec_exit(_flat_spec(document, kind), kinds)
        assert code == 2 and f"unknown kind {kind!r}" in err and SPEC_GRAMMAR in err


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


def test_readme_library_tour_runs(capsys):
    # the first python block, run as written, so an API change cannot leave it stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    assert namespace["check"].verdict == "PASS"
    assert capsys.readouterr().out.splitlines()[-1].startswith("PASS ")


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


# ---------------------------------------------------------------------------
# one type rule per declared field, for library callers as for the codec
# ---------------------------------------------------------------------------

# a value of each declared type that every field of that type accepts
_VALID = {float: 0.5, int: 10, Numbers: (0.5,), InitPolicy: "first",
          NoiseModel: MA1(2.0), TrendSpec: Constant(0.0)}
# every declared field of every registered kind and of the experiment config,
# so a new kind or field is covered here without a new test
_FIELDS = [
    (cls, declared)
    for cls in (*NOISE_KINDS.values(), *TREND_KINDS.values(), ExperimentConfig)
    for declared in model_fields(cls)
]
_FIELD_IDS = [f"{cls.__name__}.{declared[1]}" for cls, declared in _FIELDS]


def _with(cls, attr, value):
    """``cls`` with ``attr`` given ``value`` and each other required field a
    valid value of its type."""
    args = {a: _VALID[hint] for a, _, default, hint in model_fields(cls) if default is MISSING}
    return cls(**{**args, attr: value})


def _saved_and_loaded(obj):
    """``obj`` through the JSON text of a config document and back."""
    if isinstance(obj, ExperimentConfig):
        text = json.dumps(experiment_config_to_dict(obj))
        return experiment_config_from_dict(json.loads(text))[0]
    kinds = NOISE_KINDS if type(obj) in NOISE_KINDS.values() else TREND_KINDS
    return model_from_dict(json.loads(json.dumps(model_to_dict(obj))), kinds, "model")


@pytest.mark.parametrize("cls, declared", _FIELDS, ids=_FIELD_IDS)
def test_a_declared_field_refuses_a_value_of_another_type(cls, declared):
    # once the constructors parsed "0.5", stored True and took None or a
    # string model, where only the config codec refused them
    attr, key, _, hint = declared
    wrong = ["0.5", True, np.True_, None, {0.5} if hint == Numbers else [0.5]]
    if hint is int:
        wrong += [3.0, np.float64(3.0)]
    for value in wrong:
        message = f"^{re.escape(key)}: expected .+, got {re.escape(repr(value))}$"
        with pytest.raises(SchemaError, match=message):
            _with(cls, attr, value)
    if hint == Numbers:
        with pytest.raises(SchemaError, match=rf"^{key}\[1\]: expected a number, got '0.3'$"):
            _with(cls, attr, (0.5, "0.3"))


def _numpy_values(hint):
    """Values of the declared type ``hint`` made of numpy scalars."""
    if hint is int:
        return [np.int64(10)]
    scalars = [np.float32(0.5), np.float64(0.5), np.int64(1)]
    if hint == Numbers:
        return [(scalar,) for scalar in scalars] + [[np.float32(0.5), np.int64(1)]]
    return scalars if hint in (float, InitPolicy) else []


@pytest.mark.parametrize("cls, declared", _FIELDS, ids=_FIELD_IDS)
def test_a_numpy_scalar_is_stored_as_a_python_number_that_saves(cls, declared):
    # a float32 parameter was once stored as it was: its model computed in
    # float32 and could not be saved
    attr, _, _, hint = declared
    for value in _numpy_values(hint):
        try:
            built = _with(cls, attr, value)
        except ValueError as exc:  # out of the field's range, as an integer theta is
            assert not isinstance(exc, SchemaError) and isinstance(value, np.integer)
            continue
        stored = getattr(built, attr)
        if hint == Numbers:
            assert type(stored) is tuple and {type(v) for v in stored} == {float}
            python = tuple(float(v) for v in value)
        else:
            cast = int if hint is int else float
            assert type(stored) is cast
            python = cast(value)
        assert stored == python
        assert built == _with(cls, attr, python)
        assert _saved_and_loaded(built) == built
