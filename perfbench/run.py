"""sestrack benchmark: run one workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
The workloads, the metric names, units and bounds are read from
``BENCHMARK.json``; ``perfbench/README.md`` says why each workload exists and
which layer should move which metric.

``--trace 0`` prints every end-to-end metric: ``setup_s`` is the median over
``SETUP_SAMPLES`` fresh processes (``SETUP_SAMPLES - 1`` set-up-only probes
and the measuring process itself) of the time from spawning the process
until its first timed op is ready, rescaled to the reference machine speed
as ``worker.py`` explains.  ``--trace 1`` prints every per-layer
metric from a separate traced run.  Either way the last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, provenance included, is written to
``.perfbench_out/``.  ``--workload all`` runs every workload in turn and
prints each one's metrics by name with its unit.

The exit code is 0 whenever the workload ran, with ``correct`` false if any
op failed its check, and 1 if the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    """A worker process failed or timed out."""


def spawn_worker(argv: list[str], root: Path, deadline: float) -> dict:
    """Run worker.py; return the JSON on its last stdout line.

    The worker runs in its own session so that, on timeout, it and any
    process it started are killed together and reaped before returning.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv, "--spawned-at", repr(time.monotonic())],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(argv)} timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(argv)} printed nothing")
    return json.loads(lines[-1])


def run_workload(root: Path, bench: dict, workload: str, seed: int, seconds: float,
                 trace: int, deadline: float) -> tuple[dict, dict[str, tuple[float, str]]]:
    """Run one workload; return the result line and every figure with its unit."""
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn_worker(common + ["--seconds", "0", "--setup-only"], root, deadline))
    result = spawn_worker(
        common + ["--seconds", str(seconds), "--trace", str(trace)], root, deadline)
    setups.append(result)
    result["setup_samples"] = [
        {key: probe[key] for key in ("setup_s", "setup_wall_s")} for probe in setups]
    for problem in result["problems"]:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)

    figures = {name: (value, unit) for name, (value, unit) in result["report"].items()}
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        # a layer the workload never reaches has no spans: 0 calls, 0 s
        metrics = {name: (result["layers"].get(name, 0.0), units[name]) for name in units}
    else:
        for key in ("setup_s", "setup_wall_s"):
            figures[key] = (statistics.median(probe[key] for probe in setups), "s")
        missing = [m["name"] for m in bench["end_to_end"] if m["name"] not in figures]
        if missing:
            raise BenchError(f"{workload} did not measure {', '.join(missing)}")
        metrics = {m["name"]: (figures[m["name"]][0], m["unit"]) for m in bench["end_to_end"]}

    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    (out / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return line, figures if not trace else metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    selected = names if args.workload == "all" else [args.workload]

    lines = {}
    try:
        for workload in selected:
            deadline = time.monotonic() + RUN_DEADLINE_S
            line, figures = run_workload(root, bench, workload, args.seed, args.seconds,
                                         args.trace, deadline)
            lines[workload] = line
            for name, (value, unit) in figures.items():
                print(f"{workload:<15} {name:<36} {value:>14.6g} {unit}")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if len(lines) == 1:
        print(json.dumps(lines[selected[0]]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{name}": metric for w, line in lines.items()
                        for name, metric in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
