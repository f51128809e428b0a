"""The four benchmark workloads and the oracle checks on their outputs.

Each workload builds its argv (and config file) from the workload seed, runs
one op per call to ``op`` and checks the op's output in ``check``, outside
the timed region, against a reference the package did not produce on the
same path: the exact recursion for Monte Carlo tails, the in-process bound
functions for the cold-start CLI, and the closed forms for the long-horizon
files.  No check pins the bits of a sampled path.

An op is one user command, except for ``long_horizon`` where it is the fixed
sequence exact-MSE, simulate, smooth.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SUBPROCESS_TIMEOUT_S = 60


@dataclass
class Command:
    """One command of an op: its label, wall time, exit code and stdout."""

    label: str
    seconds: float
    returncode: int
    stdout: str


def run_in_process(sestrack, label: str, argv: list[str]) -> Command:
    """Run ``sestrack.cli.main(argv)`` with stdout captured.

    ``main`` is looked up on the module at call time, so a traced run sees
    the wrapper installed there.
    """
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        returncode = sestrack.cli.main(argv)
    return Command(label, time.perf_counter() - start, returncode, buffer.getvalue())


def package_env(root: Path) -> dict[str, str]:
    """Environment in which a child interpreter imports sestrack from ``root/src``."""
    paths = [str(root / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_child(argv: list[str], root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=root,
        env=package_env(root),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )


def _json(command: Command) -> dict:
    lines = command.stdout.strip().splitlines()
    if not lines:
        raise ValueError(f"{command.label}: no output")
    return json.loads(lines[-1])


def _tail_reference(sestrack, noise, trend, alpha: float, horizon: int, tail_fraction: float):
    """Mean of the exact MSE over the Monte Carlo tail window.

    ``MseCurve`` index i holds step t = i + 1, which pairs with D_{t+1},
    entry t of ``exact_mse_sequence``.
    """
    exact = sestrack.exact_mse_sequence(alpha, noise.autocovariance_fn(), trend, horizon)
    tail_idx = horizon - max(1, math.ceil(tail_fraction * horizon))
    return float(np.mean(exact[1:][tail_idx:])), tail_idx + 1


def _block_shape(sestrack, reps: int, horizon: int) -> tuple[int, int]:
    """Rows and columns of one Monte Carlo block's trajectory array."""
    block = getattr(sestrack.experiments, "BLOCK_SIZE", reps)
    return min(block, reps), horizon + 1


def _check_tail(label, tail_mean, tail_se, reference) -> list[str]:
    if not (math.isfinite(tail_mean) and math.isfinite(tail_se) and tail_se > 0.0):
        return [f"{label}: tail mean {tail_mean} / se {tail_se} not usable"]
    z = (tail_mean - reference) / tail_se
    if abs(z) > 4.0:
        return [f"{label}: tail mean {tail_mean} is {z:+.2f} se from the exact {reference}"]
    return []


class Workload:
    """Base: seeded inputs, a warm-up, timed ops and checks."""

    name = ""
    # replications x horizon of one op, for rep_steps_per_s (MC workloads)
    rep_steps = 0
    # working set of one Monte Carlo block, for the provenance record
    block_shape: tuple[int, int] | None = None
    # ops repeat with this period; a run measures whole periods
    op_cycle = 1

    def __init__(self, sestrack, root: Path, seed: int, scratch: Path) -> None:
        self.sestrack = sestrack
        self.root = root
        self.seed = seed
        self.scratch = scratch

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute references; runs after set-up, outside any timed op."""

    def op(self, index: int, trace=None) -> list[Command]:
        raise NotImplementedError

    def check(self, commands: list[Command]) -> list[str]:
        raise NotImplementedError

    def traced_extras(self) -> tuple[dict[str, float], int, list[str]]:
        """Extra per-layer figures measured once in a traced run, with the
        number of ops they took and any problem found."""
        return {}, 0, []

    def describe(self) -> dict:
        return {}


class VerifyFig1a(Workload):
    """``verify`` on the paper's figure 1a configuration, workers=1."""

    name = "verify_fig1a"
    ALPHA, HORIZON, REPS, INIT, TAIL = 0.1, 1000, 10_000, 8.0, 0.1
    rep_steps = REPS * HORIZON

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # the contents of configs/verify_fig1a.json, with the workload seed
        document = {
            "schema_version": 1,
            "noise": {"kind": "ma1", "a": 2.0, "var": 1.0},
            "trend": {"kind": "linear", "start": 2.0, "slope": 0.1},
            "alpha": self.ALPHA,
            "horizon": self.HORIZON,
            "replications": self.REPS,
            "seed": self.seed,
            "init": self.INIT,
            "tail_fraction": self.TAIL,
        }
        self.config_path = self.scratch / "verify_fig1a.json"
        self.config_path.write_text(json.dumps(document, indent=2) + "\n")
        self.argv = ["verify", "--config", str(self.config_path), "--json", "--workers", "1"]
        self.block_shape = _block_shape(self.sestrack, self.REPS, self.HORIZON)

    def warm_up(self) -> None:
        run_in_process(self.sestrack, "verify", self.argv + ["--reps", "1024"])

    def prepare_checks(self) -> None:
        st = self.sestrack
        self.reference, _ = _tail_reference(
            st, st.MA1(2.0), st.Linear(2.0, 0.1), self.ALPHA, self.HORIZON, self.TAIL
        )

    def op(self, index, trace=None):
        return [run_in_process(self.sestrack, "verify", self.argv)]

    def check(self, commands):
        (command,) = commands
        if command.returncode != 0:
            return [f"verify exited {command.returncode}"]
        payload = _json(command)
        problems = [] if payload["passed"] is True else ["verify did not pass"]
        return problems + _check_tail(
            "verify", payload["empirical_tail"], payload["tail_se"], self.reference
        )

    def describe(self):
        return {"argv": self.argv, "config": json.loads(self.config_path.read_text())}


class McShortWide(Workload):
    """``mse --mode mc`` with short AR(1) paths, many replications, workers=2."""

    name = "mc_short_wide"
    ALPHA, STEPS, REPS = 0.1, 100, 20_000
    rep_steps = REPS * STEPS

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.base = [
            "mse", "--mode", "mc",
            "--noise", "ar1:theta=0.2",
            "--trend", "sin:amp=1,rate=0.0031415926,phase=0",
            "--alpha", str(self.ALPHA), "--steps", str(self.STEPS),
            "--init", "0", "--seed", str(self.seed), "--json",
        ]
        self.argv = self.base + ["--reps", str(self.REPS), "--workers", "2"]
        self.block_shape = _block_shape(self.sestrack, self.REPS, self.STEPS)

    def warm_up(self) -> None:
        run_in_process(self.sestrack, "mse", self.base + ["--reps", "2048", "--workers", "2"])

    def prepare_checks(self) -> None:
        st = self.sestrack
        # init 0 equals m*_1 = sin(0), so the exact recursion's D_1 = 0 start
        # is exact at every step, not only in the tail
        self.reference, self.tail_start = _tail_reference(
            st, st.AR1(0.2), st.Sinusoid(1.0, 0.0031415926, 0.0), self.ALPHA, self.STEPS, 0.1
        )

    def op(self, index, trace=None):
        return [run_in_process(self.sestrack, "mse", self.argv)]

    def check(self, commands):
        (command,) = commands
        if command.returncode != 0:
            return [f"mse exited {command.returncode}"]
        payload = _json(command)
        problems = []
        if payload["tail_start"] != self.tail_start or payload["replications"] != self.REPS:
            problems.append(f"mse reported an unexpected tail window or count: {payload}")
        return problems + _check_tail(
            "mse", payload["tail_mean"], payload["tail_se"], self.reference
        )

    def traced_extras(self):
        """One workers=1 and one workers=2 op, untraced: bitwise equal curves
        and the speed-up of the pool."""
        curves, seconds = {}, {}
        for workers in (1, 2):
            out = self.scratch / f"curve-w{workers}.csv"
            argv = self.base + ["--reps", str(self.REPS), "--workers", str(workers),
                                "--out", str(out)]
            command = run_in_process(self.sestrack, "mse", argv)
            if command.returncode != 0:
                return {}, workers, [f"mse --workers {workers} exited {command.returncode}"]
            seconds[workers] = command.seconds
            curves[workers] = _read_columns(out, ("mse", "stderr"))
        problems = []
        for column in ("mse", "stderr"):
            if curves[1][column].tobytes() != curves[2][column].tobytes():
                problems.append(f"MseCurve {column} differs between workers=1 and workers=2")
        return {"experiments.parallel_speedup": seconds[1] / seconds[2]}, 2, problems

    def describe(self):
        return {"argv": self.argv}


def _read_columns(path: Path, names) -> dict[str, np.ndarray]:
    """Parse named float columns with the standard library, independently of
    the package's own CSV reader."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        index = [header.index(n) for n in names]
        rows = [[float(row[i]) for i in index] for row in reader]
    values = np.array(rows, dtype=float).reshape(-1, len(names))
    return {n: values[:, j] for j, n in enumerate(names)}


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


class CliColdStart(Workload):
    """Fresh ``python -m sestrack`` processes alternating ``bound`` and
    ``optimize-alpha``."""

    name = "cli_cold_start"
    op_cycle = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = random.Random(self.seed)
        self.alpha, self.k = _draw(rng, 0.05, 0.2), _draw(rng, 0.05, 0.2)
        self.a = _draw(rng, 1.5, 2.5)
        self.k2, self.theta = _draw(rng, 0.05, 0.2), _draw(rng, 0.1, 0.3)
        self.commands = [
            ("bound", ["bound", "--alpha", self.alpha, "--k", self.k,
                       "--noise", f"ma1:a={self.a}", "--json"]),
            ("optimize-alpha", ["optimize-alpha", "--k", self.k2,
                                "--noise", f"ar1:theta={self.theta}", "--json"]),
        ]

    def _run(self, label, argv, trace=None) -> Command:
        if trace is None:
            child = ["-m", "sestrack", *argv]
        else:
            spans_path = self.scratch / "child-spans.json"
            child = [str(HERE / "tracecli.py"), str(spans_path), *argv]
        start = time.perf_counter()
        done = run_child(child, self.root)
        command = Command(label, time.perf_counter() - start, done.returncode, done.stdout)
        if trace is not None and done.returncode == 0:
            tracer, root_id = trace
            tracer.adopt(json.loads(spans_path.read_text()), root_id)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-2000:])
        return command

    def warm_up(self) -> None:
        # importing sestrack in this process already read every module the
        # child will import, so the first child starts from a warm page cache
        pass

    def prepare_checks(self) -> None:
        st = self.sestrack
        bound = st.tracking_bound(float(self.alpha), st.MA1(float(self.a)).autocovariance_fn(),
                                  float(self.k))
        best = st.optimize_alpha(st.AR1(float(self.theta)).autocovariance_fn(), float(self.k2))
        self.expected = {"bound": ("total", bound.total),
                         "optimize-alpha": ("alpha", best.alpha)}

    def op(self, index, trace=None):
        return [self._run(*self.commands[index % 2], trace)]

    def check(self, commands):
        (command,) = commands
        if command.returncode != 0:
            return [f"{command.label} exited {command.returncode}"]
        key, expected = self.expected[command.label]
        got = _json(command)[key]
        if got != expected:
            return [f"{command.label}: {key} {got!r} != in-process {expected!r}"]
        return []

    def describe(self):
        return {"argv": [argv for _, argv in self.commands]}


class LongHorizon(Workload):
    """Exact MSE over 2e5 steps, a 1e5-step simulation written as CSV and
    SVG, and ``smooth`` over that CSV, in process."""

    name = "long_horizon"
    EXACT_STEPS, SIM_STEPS = 200_000, 100_000
    SMOOTH_CHECK_STEPS = (1, 2, 10, 1000, SIM_STEPS)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = random.Random(self.seed)
        self.alpha = _draw(rng, 0.05, 0.2)
        self.a = _draw(rng, 1.5, 2.5)
        self.start, self.slope = _draw(rng, 0.0, 5.0), _draw(rng, 0.01, 0.2)
        self.theta = _draw(rng, 0.1, 0.3)
        self.exact_csv = self.scratch / "exact.csv"
        self.sim_csv = self.scratch / "sim.csv"
        self.sim_svg = self.scratch / "sim.svg"
        self.smooth_csv = self.scratch / "smooth.csv"

    def _argvs(self, exact_steps: int, sim_steps: int):
        trend = f"linear:start={self.start},slope={self.slope}"
        return [
            ("exact_mse", ["mse", "--mode", "exact", "--alpha", self.alpha,
                           "--noise", f"ma1:a={self.a}", "--trend", trend,
                           "--steps", str(exact_steps), "--out", str(self.exact_csv)]),
            ("simulate", ["simulate", "--alpha", self.alpha, "--trend", trend,
                          "--noise", f"ar1:theta={self.theta}", "--steps", str(sim_steps),
                          "--seed", str(self.seed), "--out", str(self.sim_csv),
                          "--svg", str(self.sim_svg)]),
            ("smooth", ["smooth", "--input", str(self.sim_csv), "--column", "x",
                        "--alpha", self.alpha, "--out", str(self.smooth_csv)]),
        ]

    def warm_up(self) -> None:
        for label, argv in self._argvs(2000, 1000):
            run_in_process(self.sestrack, label, argv)

    def prepare_checks(self) -> None:
        st = self.sestrack
        self.expected_last = st.closed_form_mse(
            float(self.alpha), st.MA1(float(self.a)).autocovariance_fn(),
            st.Linear(float(self.start), float(self.slope)), self.EXACT_STEPS + 1,
        )

    def op(self, index, trace=None):
        return [run_in_process(self.sestrack, label, argv)
                for label, argv in self._argvs(self.EXACT_STEPS, self.SIM_STEPS)]

    def check(self, commands):
        failed = [c for c in commands if c.returncode != 0]
        if failed:
            return [f"{c.label} exited {c.returncode}" for c in failed]
        st, alpha = self.sestrack, float(self.alpha)
        problems = []

        with open(self.exact_csv, encoding="utf-8") as handle:
            last = handle.read().rstrip("\n").rsplit("\n", 1)[-1].split(",")
        step, mse = int(last[0]), float(last[1])
        if step != self.EXACT_STEPS + 1 or not math.isclose(mse, self.expected_last, rel_tol=1e-9):
            problems.append(f"exact row {step}: {mse!r} != closed form {self.expected_last!r}")

        x = st.read_csv_column(self.sim_csv, "x")
        m_hat = st.read_csv_column(self.sim_csv, "m_hat")
        if not np.array_equal(st.ses_run(x, alpha)[1:], m_hat):
            problems.append("simulate m_hat differs from ses_run of its x column")

        smoothed = _read_columns(self.smooth_csv, ("m_hat",))["m_hat"]
        scale = max(1.0, float(np.max(np.abs(x))))
        for t in self.SMOOTH_CHECK_STEPS:
            # row t holds m_{t+1}
            expected = st.ses_closed_form(x, alpha, x[0], t + 1)
            if abs(smoothed[t - 1] - expected) > 1e-9 * scale:
                problems.append(f"smooth row {t}: {smoothed[t - 1]!r} != closed form {expected!r}")
        return problems

    def describe(self):
        return {"argv": [argv for _, argv in self._argvs(self.EXACT_STEPS, self.SIM_STEPS)]}


WORKLOADS = {w.name: w for w in (VerifyFig1a, McShortWide, CliColdStart, LongHorizon)}
