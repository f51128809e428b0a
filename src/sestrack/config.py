"""The description of a run, ``ExperimentConfig``, and its JSON codec.

Config documents are strict JSON (schema_version 1, unknown keys and wrong
JSON types rejected with the failing key path, such as ``config.noise.a``).
The codec is one loop over the declared fields (``processes.model_fields``)
of a model or of ``ExperimentConfig``, keys in field order; the
constructors check the types, and the codec prefixes the key path to their
SchemaError.  This module imports only ``processes``, ``smoothing`` and
``seeding``, so ``bound`` and ``optimize-alpha`` read their flags without
loading the writers (``dataio``) or the Monte Carlo engine
(``experiments``); each name of the codec is defined here alone.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass
from pathlib import Path

from .processes import KINDS_OF, NoiseModel, TrendSpec, _check_fields, _key, model_fields
from .seeding import SchemaError, _number, check_count, check_seed
from .smoothing import INIT_WORDING, InitPolicy, check_alpha

CONFIG_SCHEMA_VERSION = 1
DEFAULT_FIGURE_SEED = 1729


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a replicated tracking experiment needs.

    Each field states its config key and, if it has one, its CLI flag and
    help once, in its ``_key`` metadata; the config codec and the CLI's run
    flags derive from it, and take their defaults from here."""

    noise: NoiseModel = _key("noise", flag=("--noise", "noise spec (see grammar)"))
    trend: TrendSpec = _key("trend", flag=("--trend", "trend spec (see grammar)"))
    alpha: float = _key("alpha", flag=("--alpha", "smoothing parameter in (0,1)"))
    horizon: int = _key("horizon", flag=("--steps", "horizon T"))
    replications: int = _key("replications", flag=("--reps", "replications"))
    seed: int = _key("seed", flag=("--seed", "64-bit seed"))
    init: InitPolicy = _key("init", "first",
                            flag=("--init", f"initial estimate: {INIT_WORDING}"))
    tail_fraction: float = _key("tail_fraction", 0.1)

    def __post_init__(self) -> None:
        _check_fields(self)
        check_alpha(self.alpha)
        check_count(self.horizon, "horizon", 2)
        check_count(self.replications, "replications", 1)
        check_seed(self.seed)
        if not (0.0 < self.tail_fraction <= 1.0):
            raise ValueError(f"tail fraction must lie in (0, 1], got {self.tail_fraction}")


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


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key it gives twice rather than
    letting the last value win."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ValueError(f"repeated key {key!r}")
        document[key] = value
    return document


def load_experiment_config(path):
    """Read a strict JSON config; returns (ExperimentConfig, output options).
    Bytes that are not UTF-8, nesting too deep to decode and a key repeated
    in one object are invalid JSON here, a ValueError naming the file."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    return experiment_config_from_dict(document)


def save_experiment_config(config, path, output: dict | None = None) -> Path:
    path = Path(path)
    document = experiment_config_to_dict(config, output)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path
