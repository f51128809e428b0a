"""Layer spans recorded from outside the sestrack package.

``Tracer.installed`` replaces each traced public function at every sestrack
module attribute that holds it, which is where callers look it up, and puts
the originals back on exit.  The package itself is never edited.

A span is the tuple ``(id, parent, name, pid, tid, start, end, cpu, work)``:
``start``/``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on
Linux, so spans from child processes share the time base), ``cpu`` is the
``time.thread_time()`` spent by the calling thread, and ``work`` holds the
counts computed from the call (see ``TARGETS``).  Spans stay in memory until the
benchmark writes them out at the end of a run.

A span opened in a thread with nothing open takes the innermost span open in
the installing thread as its parent.  For the Monte Carlo pool that is the
``monte_carlo_mse`` span blocked in ``pool.map``, so work done in pool
threads is attributed to the call that scheduled it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

FIELDS = ("id", "parent", "name", "pid", "tid", "start", "end", "cpu", "work")
ROOT = "op"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _normal_draws(args, kwargs, result):
    # computed from the noise model, not counted: each variant draws the
    # horizon plus burn-in, plus its extra initial innovations
    noise = _arg(args, kwargs, 0, "noise")
    n = int(_arg(args, kwargs, 2, "horizon")) + int(_arg(args, kwargs, 4, "burn_in", 0))
    kind = type(noise).__name__
    if kind == "MA1":
        return (n + 1,)
    if kind == "MAq":
        return (n + len(noise.coefficients),)
    return (n,)


def _batch_cells(args, kwargs, result):
    rows, horizon = getattr(_arg(args, kwargs, 0, "observations"), "shape", (0, 0))
    # computed: the batch smoother reads a (rows, T) float64 input and writes
    # a (rows, T + 1) float64 output
    return rows * horizon, 8 * (rows * horizon + rows * (horizon + 1))


def _mc_blocks(args, kwargs, result):
    # computed from the replication count and the module's block size
    block = getattr(sys.modules.get("sestrack.experiments"), "BLOCK_SIZE", None)
    if not block:
        return (0,)
    return (math.ceil(_arg(args, kwargs, 0, "config").replications / block),)


def _file_bytes(index, name):
    def work(args, kwargs, result):
        path = _arg(args, kwargs, index, name)
        try:
            return (os.path.getsize(path),)
        except (OSError, TypeError):
            return (0,)

    return work


# (module, function, work counter, names of the counter's values).  A work
# counter runs after the span has closed, so its cost is not in the span.
TARGETS = (
    ("seeding", "child_seed", None, ()),
    ("seeding", "make_generator", None, ()),
    ("processes", "sample_path", _normal_draws, ("processes.normal_draws",)),
    ("processes", "trend_sequence", None, ()),
    ("smoothing", "ses_run_batch", _batch_cells,
     ("smoothing.ses_run_batch.cells", "smoothing.ses_run_batch.bytes")),
    ("smoothing", "ses_run", None, ()),
    ("experiments", "monte_carlo_mse", _mc_blocks, ("experiments.blocks",)),
    ("experiments", "verify_bound", None, ()),
    ("experiments", "simulate_smoothed", None, ()),
    ("bounds", "tracking_bound", None, ()),
    ("bounds", "optimize_alpha", None, ()),
    ("bounds", "exact_mse_sequence", None, ()),
    ("dataio", "load_experiment_config", None, ()),
    ("dataio", "write_csv", _file_bytes(0, "path"), ("dataio.write_csv.bytes",)),
    ("dataio", "write_results", _file_bytes(1, "path"), ("dataio.write_results.bytes",)),
    ("dataio", "read_csv_column", None, ()),
    ("cli", "main", None, ()),
)

WORK_METRICS = {f"{m}.{f}": names for m, f, _, names in TARGETS if names}


class Tracer:
    """Collects spans from wrapped sestrack functions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_tid = threading.get_ident()
        self._main_stack: list[int] = []
        self._pid = os.getpid()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_tid:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else 0

    def wrap(self, name: str, fn, work=None):
        perf_counter, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            cpu0 = thread_time()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                cpu = thread_time() - cpu0
                stack.pop()
                self._record(sid, parent, name, start, end, cpu, ())
                raise
            end = perf_counter()
            cpu = thread_time() - cpu0
            stack.pop()
            self._record(sid, parent, name, start, end, cpu,
                         work(args, kwargs, result) if work else ())
            return result

        return traced

    def _record(self, sid, parent, name, start, end, cpu, work) -> None:
        self.spans.append(
            (sid, parent, name, self._pid, threading.get_ident(), start, end, cpu, work)
        )

    @contextmanager
    def root(self):
        """Open the span of one benchmark op in the installing thread.

        Yields the span id, so spans gathered from a child process can be
        attached to it with ``adopt``.
        """
        sid = next(self._ids)
        parent = self._parent(self._main_stack)
        self._main_stack.append(sid)
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self._record(sid, parent, ROOT, start, end, time.thread_time() - cpu0, ())

    def adopt(self, spans: list, parent: int) -> None:
        """Add spans recorded by a child process under ``parent``.

        Ids are renumbered so they cannot collide with this process's ids.
        """
        ids = {}
        for span in spans:
            ids[span[0]] = next(self._ids)
        for sid, p, *rest in spans:
            self.spans.append((ids[sid], ids.get(p, parent), *rest))

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    @contextmanager
    def installed(self):
        """Wrap every target at each sestrack module attribute holding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sestrack" or n.startswith("sestrack."))]
        patched = []
        for module_name, func_name, work, _ in TARGETS:
            home = sys.modules.get(f"sestrack.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{func_name}", original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def op_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer totals of the spans of one op.

    ``self_s`` is a span's wall time minus the union of its children's
    intervals, so children running in parallel threads are not subtracted
    twice.  ``experiments.gil_wait_s`` sums wall minus CPU time over the
    outermost spans of each pool thread, which is time those threads were
    runnable or waiting but not executing.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[5], s[6]))

    out: dict[str, float] = {}
    roots = []
    gil_wait = 0.0
    for sid, parent, name, pid, tid, start, end, cpu, work in spans:
        wall = end - start
        self_s = wall - _covered((start, end), children.get(sid, []))
        if name == ROOT:
            roots.append((wall, self_s))
            continue
        for suffix, value in (("calls", 1), ("s", wall), ("self_s", self_s), ("cpu_s", cpu)):
            key = f"{name}.{suffix}"
            out[key] = out.get(key, 0.0) + value
        for key, value in zip(WORK_METRICS.get(name, ()), work):
            out[key] = out.get(key, 0.0) + value
        owner = by_id.get(parent)
        if owner is not None and owner[3] == pid and owner[4] != tid:
            gil_wait += wall - cpu
    out["experiments.gil_wait_s"] = gil_wait
    wall = sum(w for w, _ in roots)
    out["trace.unattributed_share"] = sum(s for _, s in roots) / wall if wall else 0.0
    return out


def save_spans(spans: list[tuple], path: Path) -> Path:
    """Write spans as compact JSON: a name table plus one row per span."""
    names = sorted({s[2] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[s[0], s[1], index[s[2]], *s[3:]] for s in spans]
    path.write_text(json.dumps({"fields": FIELDS, "names": names, "spans": rows}))
    return path
