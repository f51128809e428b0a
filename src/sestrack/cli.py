"""Command-line front end.

Exit codes: 0 on success, 1 on domain or validation errors, 2 on usage
errors (including malformed model specs, echoed with the grammar), 3 when
``verify`` finds the empirical tail above the bound, and 4 when ``verify``
is inconclusive (three standard errors reach the bound itself).

Numbers are printed with 10 significant digits in text mode; ``--json``
output keeps full double precision.  A reported number that is not finite
(an overflow in the model or the experiment) is an error naming it, exit 1,
in place of numpy's warnings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import MISSING

import numpy as np

from .bounds import exact_mse_sequence, optimize_alpha, tracking_bound
from .dataio import (
    SchemaError,
    load_experiment_config,
    model_from_dict,
    read_csv_column,
    reproduce_figure,
    write_csv,
    write_results,
)
from .experiments import (
    DEFAULT_FIGURE_SEED,
    ExperimentConfig,
    monte_carlo_mse,
    simulate_smoothed,
    verify_bound,
)
from .processes import NOISE_KINDS, TREND_KINDS, NoiseModel, Numbers, TrendSpec, model_fields
from .smoothing import InitPolicy, ses_run


def _grammar() -> str:
    """The spec grammar text, generated from the model registries."""
    lines = ["model specs are written name:key=value,key=value"]
    for label, kinds in (("noise:", NOISE_KINDS), ("trend:", TREND_KINDS)):
        for cls in kinds.values():
            parts = []
            for _, key, default, hint in model_fields(cls):
                if hint == Numbers:
                    parts.append(f"{key}1=<{key}1>,{key}2=<{key}2>,...")
                elif default is MISSING:
                    parts.append(f"{key}=<{key}>")
                else:
                    parts.append(f"{key}={default:g}")
            lines.append(f"  {label:7}{cls.kind}:{','.join(parts)}")
            label = ""
    lines.append("keys shown with a value may be left out and default to it;")
    lines.append("sigma=S may replace var=V to give the standard deviation")
    return "\n".join(lines) + "\n"


SPEC_GRAMMAR = _grammar()


class UsageError(ValueError):
    """Malformed flags or model specs; exits with code 2."""


class SpecError(UsageError):
    """A malformed model spec; exits with code 2 and echoes the grammar."""


def _fmt(value: float) -> str:
    return f"{float(value):.10g}"


def parse_spec(text: str, kinds: dict[str, type], what: str):
    """Parse a ``name:key=value,...`` model spec, e.g. ``ar1:theta=0.2,var=1``.

    The spec is tokenized into the object a config file would hold, and
    decoded by the same registry decoder.  Indexed keys ``b1..bq`` fill the
    list field ``b``, and ``sigma=S`` stands for ``var=S*S``; any other key,
    ``kind`` and a bare ``b`` included, is unknown.  ``kinds`` is
    NOISE_KINDS or TREND_KINDS; ``what`` names the spec in messages.
    """
    name, _, body = text.partition(":")
    where = f"{what} spec {text!r}"
    pairs: dict[str, float] = {}
    for item in body.split(",") if body else ():
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep or not key or not value:
            raise SpecError(f"{where}: expected key=value, got {item!r}")
        if key in pairs:
            raise SpecError(f"{where}: duplicate key {key!r}")
        try:
            pairs[key] = float(value)
        except ValueError:
            raise SpecError(f"{where}: {key}={value!r} is not a number") from None
    kind = name.strip().lower()
    cls = kinds.get(kind)
    values: dict[str, object] = {}
    if cls is not None:  # an unknown kind is reported by the decoder
        declared = model_fields(cls)
        plain = [key for _, key, _, hint in declared if hint != Numbers]
        if "var" in plain and "sigma" in pairs:
            if "var" in pairs:
                raise SpecError(f"{where}: give either var or sigma, not both")
            sigma = pairs.pop("sigma")
            pairs["var"] = sigma * sigma
        values = {key: pairs.pop(key) for key in plain if key in pairs}
        for _, key, _, hint in declared:
            items = []
            while hint == Numbers and f"{key}{len(items) + 1}" in pairs:
                items.append(pairs.pop(f"{key}{len(items) + 1}"))
            if items:
                values[key] = items
        if pairs:
            allowed = [f"{k}1, {k}2, ..." if h == Numbers else k for _, k, _, h in declared]
            allowed += ["sigma"] if "var" in plain else []
            raise SpecError(
                f"{where}: unknown key(s) {sorted(pairs)}; allowed keys: {', '.join(allowed)}"
            )
    try:
        return model_from_dict({"kind": kind, **values}, kinds, where)
    except SchemaError as exc:
        raise SpecError(str(exc)) from None


def parse_init(text: str):
    if text == "first":
        return "first"
    try:
        return float(text)
    except ValueError:
        raise UsageError(f'init must be "first" or a number, got {text!r}') from None


def _finite(payload: dict) -> dict:
    """Return ``payload`` once every number in it, nested objects included,
    is finite; a non-finite one is a ValueError naming its key."""
    for key, value in payload.items():
        if isinstance(value, dict):
            _finite(value)
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} is not finite ({value})")
    return payload


def _print_pairs(pairs: list[tuple[str, object]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        rendered = _fmt(value) if isinstance(value, float) else str(value)
        print(f"{key.ljust(width)}  {rendered}")


# field name -> (flag, help, type, default) of each ExperimentConfig field with a run flag
_RUN_FLAGS = {
    name: (*f.metadata["flag"], hint, default)
    for f, (name, _, default, hint) in
    zip(dataclasses.fields(ExperimentConfig), model_fields(ExperimentConfig))
    if f.metadata["flag"]
}


def _given(args, *names: str) -> dict:
    """The flags of ``names`` that were given (not None), by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _run_values(args) -> dict:
    """The ``ExperimentConfig`` fields whose run flags were given, by name,
    with model specs and the init parsed and numbers as argparse typed them."""
    parse = {
        NoiseModel: lambda text: parse_spec(text, NOISE_KINDS, "noise"),
        TrendSpec: lambda text: parse_spec(text, TREND_KINDS, "trend"),
        InitPolicy: parse_init,
    }
    return {
        name: parse.get(_RUN_FLAGS[name][2], lambda value: value)(value)
        for name, value in _given(args, *_RUN_FLAGS).items()
    }


def _cmd_smooth(args) -> int:
    observations = read_csv_column(args.input, args.column)
    trajectory = ses_run(observations, **_run_values(args))
    steps = np.arange(1, len(observations) + 1)
    write_csv(args.out or sys.stdout, ["t", "x", "m_hat"], [steps, observations, trajectory[1:]])
    if args.out:
        print(args.out)
    return 0


def _cmd_simulate(args) -> int:
    smoothed = simulate_smoothed(**_run_values(args))
    write_results(smoothed, args.out or sys.stdout, "csv")
    if args.out:
        print(args.out)
    if args.svg:
        write_results(smoothed, args.svg, "svg")
        print(args.svg)
    return 0


def _cmd_bound(args) -> int:
    run = _run_values(args)
    report = tracking_bound(run["alpha"], run["noise"], args.k)
    payload = _finite(dataclasses.asdict(report))
    if args.json:
        print(json.dumps(payload))
    else:
        _print_pairs(list(payload.items()))
    return 0


def _cmd_optimize_alpha(args) -> int:
    result = optimize_alpha(_run_values(args)["noise"], args.k)
    payload = _finite({
        "alpha": result.alpha,
        "degenerate": result.degenerate,
        "report": dataclasses.asdict(result.report),
    })
    if args.json:
        print(json.dumps(payload))
    else:
        _print_pairs([("alpha_star", result.alpha), ("degenerate", result.degenerate)])
        _print_pairs(list(payload["report"].items()))
    return 0


# the flags (by dest) only one mse mode reads; each defaults to None, so given means not None
_MODE_FLAGS = {"exact": ["d1"], "mc": ["replications", "seed", "init", "workers"]}


def _check_mode_flags(args, names: list[str]) -> None:
    """Exit 2 naming each flag of ``names`` left out, or else each flag of
    the other mode given."""
    for problem, flags in (
        ("requires", [n for n in names if getattr(args, n) is None]),
        ("does not take", [n for mode, mode_flags in _MODE_FLAGS.items() if mode != args.mode
                           for n in mode_flags if getattr(args, n) is not None]),
    ):
        if flags:
            named = [_RUN_FLAGS[n][0] if n in _RUN_FLAGS else f"--{n}" for n in flags]
            raise UsageError(f"mse --mode {args.mode} {problem} {', '.join(named)}")


def _cmd_mse(args) -> int:
    required = ["alpha", "horizon"] + (["replications", "seed"] if args.mode == "mc" else [])
    _check_mode_flags(args, required)
    run = _run_values(args)
    if args.mode == "exact":
        sequence = exact_mse_sequence(
            run["alpha"], run["noise"], run["trend"], run["horizon"], **_given(args, "d1")
        )
        summary = _finite({"final_mse": float(sequence[-1])})
        if args.out:
            write_csv(args.out, ["t", "mse"], [np.arange(1, len(sequence) + 1), sequence])
            print(args.out)
    else:
        curve = monte_carlo_mse(ExperimentConfig(**run), **_given(args, "workers"))
        summary = _finite({
            "tail_mean": curve.tail_mean,
            "tail_se": curve.tail_se,
            "tail_max": curve.tail_max,
            "tail_start": curve.tail_start,
            "replications": curve.replications,
        })
        if args.out:
            write_results(curve, args.out, "csv")
            print(args.out)
    if args.json:
        print(json.dumps(summary))
    else:
        _print_pairs(list(summary.items()))
    return 0


def _cmd_verify(args) -> int:
    config, output = load_experiment_config(args.config)
    config = dataclasses.replace(config, **_run_values(args))
    check = verify_bound(config, **_given(args, "workers"))
    verdict, code = (
        ("INCONCLUSIVE", 4) if check.inconclusive else ("PASS", 0) if check.passed else ("FAIL", 3)
    )
    payload = _finite({
        "passed": check.passed,
        "inconclusive": check.inconclusive,
        "empirical_tail": check.empirical_tail,
        "tail_se": check.tail_se,
        "bound_total": check.bound.total,
        "margin": check.margin,
        "bound": dataclasses.asdict(check.bound),
    })
    if output.get("csv"):
        write_results(check.curve, output["csv"], "csv")
    if output.get("svg"):
        write_results(check.curve, output["svg"], "svg")
    if args.json:
        print(json.dumps(payload))
    else:
        _print_pairs(
            [
                ("empirical_tail", check.empirical_tail),
                ("tail_se", check.tail_se),
                ("bound_total", check.bound.total),
                ("margin", check.margin),
                ("result", verdict),
            ]
        )
    return code


def _cmd_reproduce(args) -> int:
    for path in reproduce_figure(args.figure, args.outdir, args.seed):
        print(path)
    return 0


_WORKERS_HELP = (
    "processes sharing the replication blocks, an integer >= 1 (default 1), capped at "
    "the blocks and usable CPUs; every count gives bitwise the same result"
)


def _add_run_flags(parser, names: str, required: bool = True, note: str = "") -> None:
    """Add the run flag of each ``ExperimentConfig`` field in ``names``, with
    ``note`` after its help.  A flag is required if ``required`` and the field
    has no default; else it defaults to None, which leaves the field's default."""
    for name in names.split():
        flag, text, hint, default = _RUN_FLAGS[name]
        parser.add_argument(flag, dest=name, type=hint if hint in (int, float) else str,
                            required=required and default is MISSING, help=text + note)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sestrack",
        description="Exponential smoothing as constant-rate gradient tracking: "
        "simulate, smooth, bound, verify.",
        epilog=SPEC_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smooth", help="smooth a CSV column")
    p.add_argument("--input", required=True, help="input CSV file")
    p.add_argument("--column", required=True, help="column holding the observations")
    _add_run_flags(p, "alpha init")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(handler=_cmd_smooth)

    p = sub.add_parser("simulate", help="simulate a trend-stationary path and smooth it")
    _add_run_flags(p, "noise trend alpha horizon seed init")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--svg", help="also write an overlay plot to this path")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("bound", help="evaluate the asymptotic tracking bound")
    _add_run_flags(p, "noise alpha")
    p.add_argument("--k", type=float, required=True, help="trend one-step increment bound")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("optimize-alpha", help="minimize the bound total over alpha")
    _add_run_flags(p, "noise")
    p.add_argument("--k", type=float, required=True, help="trend one-step increment bound")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_optimize_alpha)

    p = sub.add_parser("mse", help="exact or Monte Carlo mean squared tracking error")
    p.add_argument("--mode", choices=("exact", "mc"), required=True, help="evaluation mode")
    _add_run_flags(p, "noise trend")
    _add_run_flags(p, "alpha horizon", required=False)
    _add_run_flags(p, "replications seed init", required=False, note=" (mc mode)")
    p.add_argument("--workers", type=int, help=f"{_WORKERS_HELP} (mc mode)")
    p.add_argument("--d1", choices=("paper", "variance"),
                   help="initial condition of the exact recursion (exact mode)")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(handler=_cmd_mse)

    p = sub.add_parser("verify", help="check the bound against an experiment config")
    p.add_argument("--config", required=True, help="JSON experiment config")
    _add_run_flags(p, "replications", required=False, note=", overriding the config")
    p.add_argument("--workers", type=int, help=_WORKERS_HELP)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("reproduce", help="re-run a published figure configuration")
    p.add_argument("--figure", required=True, help="figure id: 1a 1b 2a 2b 3a 3b")
    p.add_argument("--outdir", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=DEFAULT_FIGURE_SEED, help="path seed")
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # overflow is reported by the finiteness check, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SpecError):
            print(SPEC_GRAMMAR, file=sys.stderr, end="")
        return 2
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
