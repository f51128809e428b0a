"""One benchmark process: set up a workload, time its ops, check them.

usage: python worker.py --workload NAME --seed N --seconds S --trace 0|1
       [--setup-only]

Run from the root of a sestrack checkout.  Set-up is everything from process
start until the first timed op is ready: importing sestrack from ``src/`` of
the checkout (never an installed copy), building the workload's inputs and
one warm-up op.  ``run.py`` passes the monotonic clock reading at which it
spawned the process as ``--spawned-at``.  With ``--setup-only`` the process
stops there.

Timings are reported twice: as wall time (``*_wall_s``) and rescaled to a
reference machine speed (``op_p50_s``, ``setup_s``).  The speed is the time
of ``speed_kernel``, a fixed piece of work independent of sestrack, run
next to every timed interval in the same process; a timing is multiplied by
``KERNEL_REF_S`` over the kernel time measured beside it.  On a shared
machine whose throughput drifts by tens of percent over minutes, the
rescaled figures are the steadier ones; a change to sestrack moves them as
much as it moves wall time.

Otherwise it runs ops in a closed loop until ``--seconds`` of op time have
been measured (at least ``MIN_OPS``), checks each op's output after the op,
outside its timed interval, and prints one JSON object as its last stdout
line.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced; the difference of the two medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer, op_metrics, save_spans
from workloads import WORKLOADS, package_env, run_child

MIN_OPS = 3
IMPORT_PROBES = 3
OUT_DIR = ".perfbench_out"
# speed_kernel's median on the 2-vCPU sandbox the benchmark was built on
KERNEL_REF_S = 0.05


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def import_package(root: Path):
    src = (root / "src").resolve()
    if not (src / "sestrack" / "__init__.py").is_file():
        raise SetupError(f"no sestrack package under {src}")
    sys.path.insert(0, str(src))
    sestrack = importlib.import_module("sestrack")
    importlib.import_module("sestrack.cli")
    location = Path(sestrack.__file__).resolve()
    if src not in location.parents:
        raise SetupError(f"sestrack was imported from {location}, not from {src}")
    return sestrack


@dataclass(frozen=True)
class _Cell:
    a: float
    b: float


def speed_kernel() -> float:
    """Seconds taken by a fixed mix of the kinds of work sestrack ops do:
    small-object churn, float formatting and a vectorised first-order
    recursion over a Philox sample.  It calls nothing in sestrack."""
    start = time.perf_counter()
    cell = _Cell(0.0, 1.0)
    for _ in range(20_000):
        cell = _Cell(cell.b, cell.a + 0.5)
    ",".join(f"{v:.17g}" for v in np.linspace(0.0, 1.0, 20_000))
    x = np.random.Generator(np.random.Philox(key=7)).standard_normal((256, 1000))
    m = x[:, 0].copy()
    for t in range(1000):
        m = m + 0.1 * (x[:, t] - m)
    return time.perf_counter() - start


def check_op(workload, commands) -> list[str]:
    try:
        return workload.check(commands)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]


def run_ops(workload, seconds: float, tracer: Tracer | None = None):
    """Closed loop: each op starts once the previous one has returned and its
    output has been checked.  Only the ops themselves are timed.

    Ops run until ``seconds`` of op time are measured, at least ``MIN_OPS``
    of them, and a whole number of the workload's op cycles.
    """
    ops = []
    spent = 0.0
    kernel = speed_kernel()
    while spent < seconds or len(ops) < MIN_OPS or len(ops) % workload.op_cycle:
        index = len(ops)
        if tracer is None:
            start = time.perf_counter()
            commands = workload.op(index)
            elapsed = time.perf_counter() - start
            spans = None
        else:
            with tracer.installed():
                start = time.perf_counter()
                with tracer.root() as root_id:
                    commands = workload.op(index, (tracer, root_id))
                elapsed = time.perf_counter() - start
            spans = tracer.take()
        spent += elapsed
        after = speed_kernel()
        ops.append({"seconds": elapsed, "kernel_s": 0.5 * (kernel + after),
                    "commands": commands, "spans": spans,
                    "problems": check_op(workload, commands)})
        kernel = after
    return ops


def user_figures(workload, ops) -> dict[str, list]:
    """Figures a user of the CLI sees, with their units."""
    op_p50 = statistics.median(op["seconds"] for op in ops)
    failed = sum(bool(op["problems"]) for op in ops)
    report = {
        "op_p50_s": [statistics.median(
            op["seconds"] * KERNEL_REF_S / op["kernel_s"] for op in ops), "s"],
        "op_p50_wall_s": [op_p50, "s"],
        "speed_kernel_s": [statistics.median(op["kernel_s"] for op in ops), "s"],
        "op_samples": [len(ops), "count"],
        "error_rate": [failed / len(ops), "ratio"],
    }
    if workload.rep_steps:
        report["rep_steps_per_s"] = [workload.rep_steps / op_p50, "1/s"]
    for label in ("exact_mse", "simulate", "smooth"):
        times = [c.seconds for op in ops for c in op["commands"] if c.label == label]
        if times:
            report[f"{label}_s"] = [statistics.median(times), "s"]
    return report


def peak_rss_mb(workload) -> float:
    # ru_maxrss is in KiB on Linux; the cold-start ops run in child processes
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_cold_start" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def _importtime_tree(stderr: str):
    """Parse ``-X importtime`` lines into (depth, module, self_s, cumulative_s)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        head, cumulative, label = line.split("|", 2)
        self_us = head.split(":", 1)[1].strip()
        if not self_us.isdigit():  # the column header line
            continue
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        rows.append((depth, label.strip(), int(self_us) / 1e6, int(cumulative) / 1e6))
    return rows


def _outermost_cumulative(rows, package: str) -> float:
    """Cumulative import time of the package's outermost imports.

    importtime prints children before their parent, so walking the lines in
    reverse visits each module after every module that imported it.
    """
    total = 0.0
    stack: list[tuple[int, bool]] = []  # (depth, inside package)
    for depth, name, _, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(inside for _, inside in stack):
            total += cumulative
        stack.append((depth, mine))
    return total


def import_profile(root: Path) -> dict[str, float]:
    """Median of ``IMPORT_PROBES`` fresh interpreters, per figure."""
    samples: dict[str, list[float]] = {}
    env = package_env(root)
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True,
                       timeout=60)
        samples.setdefault("import.interpreter_s", []).append(time.perf_counter() - start)
        done = run_child(["-X", "importtime", "-c", "import sestrack"], root)
        if done.returncode != 0:
            raise SetupError(f"importing sestrack failed: {done.stderr[-2000:]}")
        rows = _importtime_tree(done.stderr)
        samples.setdefault("import.numpy_s", []).append(_outermost_cumulative(rows, "numpy"))
        samples.setdefault("import.scipy_s", []).append(_outermost_cumulative(rows, "scipy"))
        samples.setdefault("import.sestrack_self_s", []).append(
            sum(s for _, name, s, _ in rows if name == "sestrack" or name.startswith("sestrack."))
        )
    return {name: statistics.median(values) for name, values in samples.items()}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cache_bytes(text: str) -> int:
    """Size as /sys prints it, e.g. ``2048K``."""
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def machine() -> dict:
    """CPU count, model and the data cache sizes seen by cpu0 (L3 is shared)."""
    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if kind in ("Data", "Unified"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches_cpu0": caches,
    }


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision(root: Path) -> str | None:
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def provenance(sestrack, workload, root: Path) -> dict:
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "sestrack_file": sestrack.__file__,
        "sestrack_version": getattr(sestrack, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root),
        "machine": machine(),
        **workload.describe(),
    }
    if workload.block_shape:
        # computed: one (rows, T + 1) float64 array of a Monte Carlo block,
        # as a share of each cache level
        rows, cols = workload.block_shape
        size = rows * cols * 8
        record["mc_block"] = {"rows": rows, "columns": cols, "bytes_per_array": size}
        for level, text in record["machine"]["caches_cpu0"].items():
            record["mc_block"][f"share_of_{level}"] = size / _cache_bytes(text)
    return record


def benchmark(args, root: Path, scratch: Path) -> dict:
    sestrack = import_package(root)
    workload = WORKLOADS[args.workload](sestrack, root, args.seed, scratch)
    workload.warm_up()
    setup_wall = time.monotonic() - args.spawned_at
    speed_kernel()  # its first call is slower than the rest
    kernel = statistics.median(speed_kernel() for _ in range(3))
    setup = {"setup_s": setup_wall * KERNEL_REF_S / kernel, "setup_wall_s": setup_wall}
    if args.setup_only:
        return setup

    workload.prepare_checks()
    attempted = failed = 0
    problems: list[str] = []
    layers = None
    if not args.trace:
        ops = run_ops(workload, args.seconds)
        report = user_figures(workload, ops)
        report["peak_rss_mb"] = [peak_rss_mb(workload), "MB"]
    else:
        plain = run_ops(workload, args.seconds / 2)
        traced = run_ops(workload, args.seconds / 2, Tracer())
        ops = plain + traced
        report = user_figures(workload, plain)
        layers = {name: value for name, (value, _) in report.items()}
        # mean per op, since consecutive cold-start ops run different commands
        per_op = [op_metrics(op["spans"]) for op in traced]
        for key in sorted({k for m in per_op for k in m}):
            layers[key] = statistics.fmean(m.get(key, 0.0) for m in per_op)
        layers["trace.overhead_s"] = (
            statistics.median(op["seconds"] for op in traced) - report["op_p50_wall_s"][0]
        )
        extras, extra_ops, extra_problems = workload.traced_extras()
        layers.update(extras)
        attempted += extra_ops
        failed += bool(extra_problems)
        problems += extra_problems
        layers.update(import_profile(root))
        save_spans([s for op in traced for s in op["spans"]],
                   root / OUT_DIR / f"spans-{workload.name}.json")

    return {
        **setup,
        "attempted": attempted + len(ops),
        "failed": failed + sum(bool(op["problems"]) for op in ops),
        "problems": ([p for op in ops for p in op["problems"]] + problems)[:20],
        "op_seconds": [op["seconds"] for op in ops],
        "report": report,
        "layers": layers,
        "provenance": provenance(sestrack, workload, root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the process was spawned")
    args = parser.parse_args(argv)

    root = Path.cwd()
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        result = benchmark(args, root, scratch)
    except SetupError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
