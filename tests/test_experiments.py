import dataclasses
import hashlib
import math
import os
import signal
import struct
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
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
    closed_form_mse,
    exact_mse_sequence,
    monte_carlo_mse,
    reproduce_figure,
    sample_path,
    ses_run,
    simulate_smoothed,
    tracking_bound,
    trend_sequence,
    verify_bound,
    write_results,
)
from sestrack import experiments
from sestrack.cli import main
from sestrack.experiments import BLOCK_SIZE, FIGURE_CONFIGS, MAX_CELLS
from sestrack.processes import _SLAB_CELLS
from sestrack.seeding import child_seed


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    noise, trend = WhiteGaussian(1.0), Constant(0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(noise, trend, 0.1, 1, 10, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(noise, trend, 0.1, 10, 0, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(noise, trend, 0.1, 10, 10, seed=1, tail_fraction=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(noise, trend, 0.1, 10, 10, seed=1, init="median")
    with pytest.raises(ValueError, match='^init: expected "first" or a number, got True$'):
        ExperimentConfig(noise, trend, 0.1, 10, 10, seed=1, init=True)
    with pytest.raises(ValueError):
        ExperimentConfig(noise, trend, 1.2, 10, 10, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_refuses_an_out_of_range_seed(seed):
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.1, 10, 10, seed=seed)


def test_workers_must_be_an_integer_at_least_one():
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.1, 10, 10, seed=1)
    for workers, message in ((0, "^workers must be an integer >= 1, got 0$"),
                             (2.5, "^workers: expected an integer, got 2.5$")):
        with pytest.raises(ValueError, match=message):
            monte_carlo_mse(config, workers=workers)
        with pytest.raises(ValueError, match=message):
            verify_bound(config, workers=workers)


_W, _C = WhiteGaussian(1.0), Constant(0.0)
# each entry point and the name its count goes by in the message
COUNT_ENTRY_POINTS = {
    "config.horizon": ("horizon", lambda n: ExperimentConfig(_W, _C, 0.1, n, 10, seed=1)),
    "config.replications": ("replications", lambda n: ExperimentConfig(_W, _C, 0.1, 10, n, seed=1)),
    "config.seed": ("seed", lambda n: ExperimentConfig(_W, _C, 0.1, 10, 10, seed=n)),
    "sample_path": ("horizon", lambda n: sample_path(_W, _C, n, seed=1)),
    "exact_mse_sequence": ("horizon", lambda n: exact_mse_sequence(0.1, _W, _C, n)),
    "closed_form_mse": ("step", lambda n: closed_form_mse(0.1, _W, _C, n)),
    "trend_sequence": ("horizon", lambda n: trend_sequence(_C, n)),
    "workers": ("workers", lambda n: monte_carlo_mse(
        ExperimentConfig(_W, _C, 0.1, 10, 10, seed=1), workers=n
    ).mean),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_counts_are_integers_never_coerced(entry):
    # once 2.7 was truncated to 2 and True ran as 1
    name, call = COUNT_ENTRY_POINTS[entry]
    for value in (2.7, 3.0, True):
        # every count is typed by the one scalar rule, which words its name
        with pytest.raises(ValueError, match=f"^{name}: expected an integer, got {value!r}$"):
            call(value)
    accepted = call(np.int64(3))
    if isinstance(accepted, ExperimentConfig):
        assert accepted == call(3)
        assert {type(getattr(accepted, f)) for f in ("horizon", "replications", "seed")} == {int}
    else:
        assert np.array_equal(accepted, call(3))


def test_tail_fraction_is_not_a_bool():
    with pytest.raises(ValueError, match="^tail_fraction: expected a number, got True$"):
        ExperimentConfig(_W, _C, 0.1, 10, 10, seed=1, tail_fraction=True)


def test_resource_cap():
    # a 10^5 x 1000 block is over MAX_CELLS and rejected before it (about
    # 0.8 GB at peak) is allocated
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.1, 10**5, 1000, seed=1)
    assert config.horizon * config.replications > MAX_CELLS
    with pytest.raises(ValueError, match="cap") as refused:
        monte_carlo_mse(config)
    assert "about 800 MB at peak" in str(refused.value)


def test_block_peak_memory_is_one_array():
    # a block is one (B, T + 1) array plus cache-sized slabs, about 8 bytes a
    # cell at peak under tracemalloc; a second block-sized array would make
    # it 16
    config = ExperimentConfig(MA1(2.0), Linear(2.0, 0.1), 0.1, 1000, BLOCK_SIZE, seed=5, init=8.0)
    tracemalloc.start()
    try:
        experiments._run_block(config, range(BLOCK_SIZE))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * config.horizon * BLOCK_SIZE


class _PastTheCap(Exception):
    pass


@pytest.mark.parametrize("horizon,reps", [(100, 10**6 + 1), (1000, 10**4)])
def test_cap_counts_the_cells_of_one_block(monkeypatch, horizon, reps):
    # many short replications, and fig1a, stay under the cap: the run gets as
    # far as starting its workers, which raise here so nothing runs
    def refuse(*args):
        raise _PastTheCap

    monkeypatch.setattr(experiments, "_fork_map", refuse)
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.1, horizon, reps, seed=1)
    with pytest.raises(_PastTheCap):
        monte_carlo_mse(config)


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

def test_zero_noise_curve_is_zero():
    config = ExperimentConfig(
        WhiteGaussian(0.0), Constant(3.0), 0.2, 50, 8, seed=2, init=3.0
    )
    curve = monte_carlo_mse(config)
    assert np.array_equal(curve.mean, np.zeros(50))
    assert np.array_equal(curve.stderr, np.zeros(50))
    assert curve.tail_mean == 0.0 and curve.tail_max == 0.0


def test_white_noise_tail_near_fixed_point():
    config = ExperimentConfig(
        WhiteGaussian(1.0), Constant(0.7), 0.1, 500, 4000, seed=31, init=0.7
    )
    curve = monte_carlo_mse(config)
    limit = 0.1 / 1.9
    assert abs(curve.tail_mean - limit) <= 3.0 * curve.tail_se
    assert curve.tail_start == 451
    assert curve.replications == 4000


def test_worker_count_does_not_change_results(tmp_path):
    config = ExperimentConfig(
        MA1(0.6), Sinusoid(1.0, 0.01), 0.2, 64, 2 * BLOCK_SIZE + 100, seed=5, init=2.0
    )
    one = monte_carlo_mse(config, workers=1)
    many = monte_carlo_mse(config, workers=8)
    assert np.array_equal(one.mean, many.mean)
    assert np.array_equal(one.stderr, many.stderr)
    assert one.tail_mean == many.tail_mean and one.tail_se == many.tail_se
    p1 = write_results(one, tmp_path / "one.csv")
    p2 = write_results(many, tmp_path / "many.csv")
    assert p1.read_bytes() == p2.read_bytes()


# sha256 over mean and stderr bytes, then tail_mean and tail_se as
# little-endian doubles; computed with the per-replication sample_path loop
# the block sampler replaced
PINNED_CURVES = {
    "white": (WhiteGaussian(2.5), "8f3ab47042fe9158682fc7a79e096cea85e524e367a04cde20cee7785803bda1"),
    "ma1": (MA1(-0.4, 1.7), "14d16e5d2ea747936a5c1f1522b9ab66c37a694f3cd74aef7304ce1cad952abf"),
    "ar1": (AR1(0.9, 0.3), "1850592b090043cea0116c98bdef69ea1ca0935a333bf541f9397c7690114d6b"),
    "maq": (
        MAq((0.5, -0.3, 0.2), 1.3),
        "f223ede52faf431c5a9fd4c43bb587d5d4076f1a97fa8d6e6cf119895c038b8b",
    ),
}


def _digest(curve) -> str:
    digest = hashlib.sha256(curve.mean.tobytes() + curve.stderr.tobytes())
    digest.update(struct.pack("<dd", curve.tail_mean, curve.tail_se))
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(PINNED_CURVES))
def test_monte_carlo_bits_pinned(forks, kind):
    noise, expected = PINNED_CURVES[kind]
    config = ExperimentConfig(
        noise, Sinusoid(1.5, 0.1, 0.3), 0.2, 50, 2 * BLOCK_SIZE + 7, seed=2024
    )
    assert _digest(monte_carlo_mse(config)) == expected
    assert _digest(monte_carlo_mse(config, workers=2)) == expected
    assert len(forks) == 1


# the same recipe for AR(1) at 1 and BLOCK_SIZE + 1 replications, so blocks
# of one column (AR(1)'s Python-float branch) run inside Monte Carlo
@pytest.mark.parametrize(
    "replications, expected",
    [
        (1, "53aa52be60120791aced832628e4a0425dd79e773ba6d7ae6f38da5e727a787d"),
        (BLOCK_SIZE + 1, "384c35402e4a821b11c61029a6a9ffe27ec729058c8b1db1d025d58f11edeb93"),
    ],
    ids=["one", "block_plus_one"],
)
def test_ar1_one_column_blocks_pinned(forks, replications, expected):
    config = ExperimentConfig(
        AR1(0.9, 0.3), Sinusoid(1.5, 0.1, 0.3), 0.2, 50, replications, seed=2024
    )
    assert _digest(monte_carlo_mse(config)) == expected
    assert _digest(monte_carlo_mse(config, workers=2)) == expected


def _reference_block(config, block):
    """``_run_block`` one replication at a time: ``sample_path`` and
    ``ses_run`` per child seed, the squared errors stacked (B, T), summarized
    as (count, mean, M2) with the tail mean as the arrays' last entry."""
    rows = []
    m_star = trend_sequence(config.trend, config.horizon)
    for r in block:
        x = sample_path(config.noise, config.trend, config.horizon, child_seed(config.seed, r))
        estimates = ses_run(x, config.alpha, config.init)
        rows.append(np.square(estimates[1:] - m_star))
    squared = np.stack(rows)
    tails = squared[:, experiments._tail_index(config) :].mean(axis=1)
    mean, m2 = experiments._moments(squared)
    return (
        len(block),
        np.append(mean, tails.mean()),
        np.append(m2, np.square(tails - tails.mean()).sum()),
    )


@pytest.mark.parametrize(
    "noise", [noise for noise, _ in PINNED_CURVES.values()], ids=lambda noise: noise.kind
)
@settings(max_examples=6, deadline=None)
@given(
    init=st.sampled_from(["first", -1.5]),
    reps=st.sampled_from([1, 2, 7, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1]),
    where=st.sampled_from(["below", "at", "past", "two_slabs"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_monte_carlo_equals_per_replication_reference(noise, init, reps, where, seed):
    # horizons around the slab height of the first block, which is set by
    # its width, so a path ends just before, at or after a slab boundary
    height = max(1, _SLAB_CELLS // min(reps, BLOCK_SIZE))
    horizons = {"below": height - 1, "at": height, "past": height + 1, "two_slabs": 2 * height + 3}
    config = ExperimentConfig(
        noise, Sinusoid(1.5, 0.1, 0.3), 0.2, horizons[where], reps, seed=seed, init=init
    )
    curve = monte_carlo_mse(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_run_block", _reference_block)
        reference = monte_carlo_mse(config)
    assert curve.mean.tobytes() == reference.mean.tobytes()
    assert curve.stderr.tobytes() == reference.stderr.tobytes()
    assert (curve.tail_mean, curve.tail_se, curve.tail_max) == (
        reference.tail_mean, reference.tail_se, reference.tail_max
    )


@pytest.mark.parametrize("noise", [MA1(-0.4, 1.7), AR1(0.9, 0.3)], ids=["ma1", "ar1"])
@pytest.mark.parametrize("reps", [2, 7, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 7])
def test_combined_curve_matches_a_one_pass_oracle(noise, reps):
    # the block summaries and their pairwise combine against numpy's one-pass
    # mean and ddof=1 standard deviation of every squared error at once
    config = ExperimentConfig(noise, Sinusoid(1.5, 0.1, 0.3), 0.2, 40, reps, seed=99, init=-1.5)
    m_star = trend_sequence(config.trend, config.horizon)

    def squared_errors(r):
        x = sample_path(noise, config.trend, 40, child_seed(99, r))
        return np.square(ses_run(x, 0.2, -1.5)[1:] - m_star)

    squared = np.stack([squared_errors(r) for r in range(reps)])
    tails = squared[:, 36:].mean(axis=1)  # the last tenth of 40 steps: steps 37 to 40
    for workers in (1, 2):
        curve = monte_carlo_mse(config, workers=workers)
        assert curve.tail_start == 37
        np.testing.assert_allclose(curve.mean, squared.mean(axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            curve.stderr, squared.std(axis=0, ddof=1) / math.sqrt(reps), rtol=1e-12, atol=0
        )
        assert curve.tail_mean == pytest.approx(tails.mean(), rel=1e-12, abs=0)
        assert curve.tail_se == pytest.approx(tails.std(ddof=1) / math.sqrt(reps), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("reps", [1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 5])
def test_worker_counts_give_identical_bits(forks, reps):
    config = ExperimentConfig(MA1(0.6), Linear(1.0, 0.05), 0.2, 16, reps, seed=77, init=1.0)
    blocks = -(-reps // BLOCK_SIZE)
    serial = monte_carlo_mse(config, workers=1)
    for workers in (2, 3):
        before = len(forks)
        curve = monte_carlo_mse(config, workers=workers)
        assert len(forks) - before == min(workers, blocks) - 1
        assert curve.mean.tobytes() == serial.mean.tobytes()
        assert curve.stderr.tobytes() == serial.stderr.tobytes()
        assert (curve.tail_mean, curve.tail_se) == (serial.tail_mean, serial.tail_se)


def test_workers_run_serially_beside_another_thread(forks):
    config = ExperimentConfig(AR1(0.3), Constant(0.0), 0.2, 16, 3 * BLOCK_SIZE, seed=8)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        threaded = monte_carlo_mse(config, workers=2)
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert forks == []
    assert _digest(threaded) == _digest(monte_carlo_mse(config))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


TWO_BLOCKS = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.2, 8, 2 * BLOCK_SIZE, seed=3)


@pytest.mark.parametrize(
    "how, status",
    [("signal", "was killed by signal 9"), ("exception", "exited with code 1")],
)
def test_failed_worker_raises_and_leaves_no_child(forks, monkeypatch, capfd, how, status):
    parent, run_block = os.getpid(), experiments._run_block

    def run_block_failing_in_child(config, block):
        if os.getpid() != parent:
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("block failed")
        return run_block(config, block)

    monkeypatch.setattr(experiments, "_run_block", run_block_failing_in_child)
    with pytest.raises(ChildProcessError, match=rf"worker 1 \(pid \d+\) {status}; wait status"):
        monte_carlo_mse(TWO_BLOCKS, workers=2)
    _assert_no_child_left()
    code = main([
        "mse", "--mode", "mc", "--noise", "white:var=1", "--trend", "const:level=0",
        "--alpha", "0.2", "--steps", "8", "--reps", str(2 * BLOCK_SIZE), "--seed", "3",
        "--workers", "2",
    ])
    err = capfd.readouterr().err
    assert code == 1
    assert "error: Monte Carlo worker 1 (pid " in err and status in err
    assert ("RuntimeError('block failed')" in err) == (how == "exception")
    _assert_no_child_left()
    assert len(forks) == 2


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failure_in_own_share_kills_and_reaps_every_child(forks, monkeypatch, error):
    parent, run_block = os.getpid(), experiments._run_block

    def run_block_failing_in_parent(config, block):
        if os.getpid() == parent:
            raise error("own share failed")
        time.sleep(60)  # still running when the parent fails: only a kill ends it
        return run_block(config, block)

    monkeypatch.setattr(experiments, "_run_block", run_block_failing_in_parent)
    config = dataclasses.replace(TWO_BLOCKS, replications=3 * BLOCK_SIZE)
    start = time.monotonic()
    with pytest.raises(error, match="own share failed"):
        monte_carlo_mse(config, workers=3)
    assert time.monotonic() - start < 30.0
    assert len(forks) == 2
    _assert_no_child_left()


@pytest.mark.parametrize("end", ["close", "throw"])
def test_fork_map_cleanup_skips_a_child_reaped_elsewhere(forks, end):
    # an embedding program's waitpid(-1) loop reaps worker 1; ending the map
    # must still kill and reap worker 2, and raise nothing but its own error
    def compute(item):
        if item == 2:
            time.sleep(60)  # still running when the map ends: only a kill ends it
        return item

    mapped = experiments._fork_map(compute, range(3), 3)
    start = time.monotonic()
    assert next(mapped) == 0
    assert os.waitpid(-1, 0)[0] == forks[0]
    if end == "close":
        mapped.close()
    else:
        with pytest.raises(RuntimeError, match="own share failed"):
            mapped.throw(RuntimeError("own share failed"))
    assert time.monotonic() - start < 30.0
    assert len(forks) == 2
    _assert_no_child_left()


def test_fork_map_end_takes_a_child_reaped_elsewhere_once_its_results_arrived(forks):
    mapped = experiments._fork_map(lambda i: i, range(2), 2)
    assert next(mapped) == 0
    assert os.waitpid(-1, 0)[0] == forks[0]  # worker 1 has written its one result
    assert list(mapped) == [1]
    _assert_no_child_left()


def test_fork_map_names_a_failed_child_reaped_elsewhere(forks, capfd):
    parent = os.getpid()

    def compute(item):
        if os.getpid() != parent:
            raise RuntimeError("child failed")
        return item

    mapped = experiments._fork_map(compute, range(2), 2)
    assert next(mapped) == 0
    assert os.waitpid(-1, 0)[0] == forks[0]
    message = rf"Monte Carlo worker 1 \(pid {forks[0]}\) ended early and was reaped outside the map"
    with pytest.raises(ChildProcessError, match=message):
        list(mapped)
    assert "child failed" in capfd.readouterr().err
    _assert_no_child_left()


def test_exact_oracle_agreement_randomized():
    rng = np.random.default_rng(20250809)
    checkpoints = (2, 10, 100, 500)
    passes = 0
    total_configs = 40
    for _ in range(total_configs):
        pick = rng.integers(0, 3)
        if pick == 0:
            noise = WhiteGaussian(rng.uniform(0.25, 2.0))
        elif pick == 1:
            noise = MA1(rng.uniform(-1.5, 1.5), rng.uniform(0.25, 2.0))
        else:
            noise = AR1(rng.uniform(0.05, 0.8), rng.uniform(0.25, 2.0))
        pick = rng.integers(0, 3)
        if pick == 0:
            trend = Constant(rng.normal())
        elif pick == 1:
            trend = Linear(rng.normal(), rng.uniform(-0.05, 0.05))
        else:
            trend = Sinusoid(rng.uniform(0.5, 2.0), rng.uniform(0.001, 0.01), rng.normal())
        alpha = rng.uniform(0.05, 0.5)
        config = ExperimentConfig(
            noise,
            trend,
            alpha,
            500,
            1000,
            seed=int(rng.integers(2**63)),
            init=float(trend_sequence(trend, 1)[0]),  # the paper start m_1 = m*_1, as a number
        )
        curve = monte_carlo_mse(config)
        exact = exact_mse_sequence(alpha, noise, trend, 500, config.init)
        ok = all(
            abs(curve.mean[t - 1] - exact[t]) <= 3.0 * curve.stderr[t - 1]
            for t in checkpoints
        )
        passes += ok
    assert passes >= 38, f"only {passes}/{total_configs} configs matched the oracle"


def test_first_observation_start_matches_its_runs_at_every_step():
    alpha = 0.3
    config = ExperimentConfig(
        WhiteGaussian(1.0), Constant(0.0), alpha, 300, 5000, seed=17, init="first"
    )
    curve = monte_carlo_mse(config)
    exact = exact_mse_sequence(alpha, WhiteGaussian(1.0), Constant(0.0), 300, "first")
    for t in (1, 2, 5, 10, 100, 300):
        assert abs(curve.mean[t - 1] - exact[t]) <= 3.0 * curve.stderr[t - 1]


@pytest.mark.parametrize("noise, trend", [
    (MA1(2.0), Linear(2.0, 0.1)),
    (AR1(0.8), Sinusoid(1.0, 0.3, 0.2)),
])
@pytest.mark.parametrize("init", ["first", 8.0])
def test_exact_recursion_is_the_monte_carlo_mean_from_the_same_start(noise, trend, init):
    # the early steps, where the start still dominates: step t of the curve
    # is D_{t+1}, entry t of the exact sequence
    config = ExperimentConfig(noise, trend, 0.2, 10, 20_000, seed=29, init=init)
    curve = monte_carlo_mse(config)
    exact = exact_mse_sequence(0.2, noise, trend, 10, init)
    z = (curve.mean - exact[1:]) / curve.stderr
    assert np.max(np.abs(z)) <= 5.0, z


def test_doubling_replications_shrinks_stderr():
    base = dict(noise=WhiteGaussian(1.0), trend=Constant(0.0), alpha=0.3, horizon=50, seed=23)
    small = monte_carlo_mse(ExperimentConfig(replications=600, **base))
    large = monte_carlo_mse(ExperimentConfig(replications=1200, **base))
    ratio = large.stderr / small.stderr
    target = 1.0 / math.sqrt(2.0)
    assert np.all(ratio >= target - 0.1)
    assert np.all(ratio <= target + 0.1)


# ---------------------------------------------------------------------------
# bound verification
# ---------------------------------------------------------------------------

def test_verify_zero_noise_constant_trend_passes():
    config = ExperimentConfig(
        WhiteGaussian(0.0), Constant(1.0), 0.2, 100, 4, seed=3, init=1.0
    )
    check = verify_bound(config)
    assert check.verdict == "PASS"
    assert check.curve.tail_mean == 0.0


def test_verify_fig1a_config_passes():
    noise, trend = FIGURE_CONFIGS["1a"]
    config = ExperimentConfig(noise, trend, 0.1, 1000, 2000, seed=2024, init=8.0)
    check = verify_bound(config)
    assert check.verdict == "PASS"
    assert check.bound.trend_term == pytest.approx(81.0 * 0.01, rel=1e-12)


def test_verify_inconclusive_when_three_se_reach_the_bound():
    # two replications: 3 * tail_se exceeds the bound, so a tail 25% above
    # the bound would have passed
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.1, 400, 2, seed=11)
    check = verify_bound(config)
    assert 3.0 * check.curve.tail_se >= check.bound.total and check.margin >= 0.0
    assert check.verdict == "INCONCLUSIVE"
    powered = verify_bound(dataclasses.replace(config, replications=400))
    assert powered.verdict == "PASS"


def test_verify_refuses_one_replication():
    # one replication has no spread: its tail_se of 0 is no estimate, and
    # would leave the check no allowance to judge by
    config = ExperimentConfig(WhiteGaussian(1.0), Constant(0.0), 0.1, 400, 1, seed=11)
    with pytest.raises(ValueError, match="verify needs at least 2 replications .* got 1"):
        verify_bound(config)
    assert monte_carlo_mse(config).tail_se == 0.0  # the estimate alone is still allowed


def test_understated_k_fails(monkeypatch):
    # deterministic ramp: the true lag error is (beta/alpha) * K
    config = ExperimentConfig(
        WhiteGaussian(0.0), Linear(0.0, 0.1), 0.1, 400, 2, seed=9, init="first"
    )
    honest = verify_bound(config)
    assert honest.verdict == "PASS"
    measured = experiments._increment_bound
    monkeypatch.setattr(experiments, "_increment_bound", lambda levels: measured(levels) / 10.0)
    lied = verify_bound(config)
    assert lied.verdict == "FAIL"
    assert lied.margin < 0.0


@pytest.mark.parametrize("start", [2.0, 1e6])
def test_verify_passes_a_zero_noise_ramp(start):
    # the float ramp's increments round above its slope (0.10000000000002274
    # from 2.0), so a bound at K = slope lies below its exact tail
    config = ExperimentConfig(
        WhiteGaussian(0.0), Linear(start, 0.1), 0.1, 2000, 2, seed=5, init="first"
    )
    check = verify_bound(config)
    assert check.verdict == "PASS" and check.margin >= 0.0


def _exact_increment_bound(levels: np.ndarray) -> Fraction:
    exact = [Fraction(v) for v in levels.tolist()]
    return max(abs(b - a) for a, b in zip(exact, exact[1:]))


_ANY_FLOAT = st.floats(-1e300, 1e300)
_TRENDS = st.one_of(
    st.builds(Constant, _ANY_FLOAT),
    st.builds(Linear, st.floats(-1e9, 1e9), st.floats(-1e3, 1e3)),
    st.builds(Sinusoid, st.floats(-1e3, 1e3), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.builds(Table, st.lists(_ANY_FLOAT, min_size=2, max_size=60).map(tuple)),
)


@settings(max_examples=300, deadline=None)
@given(_TRENDS, st.integers(2, 60))
def test_increment_bound_bounds_every_exact_increment(trend, horizon):
    if isinstance(trend, Table):
        horizon = min(horizon, len(trend.values))
    levels = trend_sequence(trend, horizon)
    exact = _exact_increment_bound(levels)
    k = Fraction(experiments._increment_bound(levels))
    # at most one rounding of the difference and one ulp up; a subnormal
    # difference is exact, and one ulp there is 5e-324
    assert exact <= k <= exact * (1 + Fraction(2) ** -50) + Fraction(5e-324)


# ---------------------------------------------------------------------------
# MA sign comparison
# ---------------------------------------------------------------------------

def _ma_sign_arms(magnitude, replications, horizon, seed):
    """Tail MSE and bound total of matched constant-trend runs at MA(1)
    coefficients +magnitude and -magnitude: the same seed, hence the same
    innovations, so only the covariance sign differs."""
    arms = []
    for a in (magnitude, -magnitude):
        config = ExperimentConfig(MA1(a), Constant(0.0), 0.1, horizon, replications, seed)
        arms.append((monte_carlo_mse(config).tail_mean, tracking_bound(0.1, MA1(a), 0.0).total))
    return arms


def test_negative_ma_tracks_tighter():
    (tail_positive, bound_positive), (tail_negative, bound_negative) = _ma_sign_arms(
        0.4, 2000, 500, seed=88
    )
    assert tail_negative < tail_positive
    assert bound_negative < bound_positive


def test_zero_magnitude_arms_identical():
    (tail_positive, _), (tail_negative, _) = _ma_sign_arms(0.0, 50, 100, seed=1)
    assert tail_negative == tail_positive


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def test_figure_3a_trend_convention():
    _, trend = FIGURE_CONFIGS["3a"]
    assert trend_sequence(trend, 2) == pytest.approx([0.1, 0.11])


def test_reproduce_figure_outputs(tmp_path):
    paths = reproduce_figure("1a", tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["fig1a.csv", "fig1a.svg"]
    lines = (tmp_path / "fig1a.csv").read_text().splitlines()
    assert lines[0] == "t,x,m_star,m_hat"
    assert len(lines) == 1001


def test_reproduce_figure_deterministic(tmp_path):
    a = reproduce_figure("2b", tmp_path / "a")
    b = reproduce_figure("2b", tmp_path / "b")
    assert a[0].read_bytes() == b[0].read_bytes()
    assert a[1].read_bytes() == b[1].read_bytes()


def test_reproduce_figure_unknown_id(tmp_path):
    with pytest.raises(ValueError, match="1a, 1b, 2a, 2b, 3a, 3b"):
        reproduce_figure("7q", tmp_path)


def test_simulate_smoothed_alignment():
    smoothed = simulate_smoothed(WhiteGaussian(0.0), Linear(2.0, 0.1), 0.1, 5, seed=1, init=8.0)
    assert np.array_equal(smoothed.trend, smoothed.observations)
    # estimates are the post-update values m_{t+1}
    assert smoothed.estimates[0] == pytest.approx(8.0 + 0.1 * (2.0 - 8.0), rel=1e-12)


@pytest.mark.parametrize("lengths", [(3, 3, 2), (3, 2, 3), (2, 3, 3), (0, 1, 1)])
def test_smoothed_path_refuses_unequal_lengths(lengths):
    with pytest.raises(ValueError, match="^smoothed path series must have equal lengths$"):
        experiments.SmoothedPath(*(np.zeros(n) for n in lengths))


def test_result_arrays_are_read_only():
    # the curve's arrays are views of the combined (T + 1)-entry summary;
    # the freeze holds on the views
    config = ExperimentConfig(MA1(0.6), Constant(0.0), 0.2, 12, 5, seed=4)
    curve = monte_carlo_mse(config)
    smoothed = simulate_smoothed(WhiteGaussian(1.0), Linear(2.0, 0.1), 0.1, 5, seed=1)
    for array in (curve.mean, curve.stderr, smoothed.observations, smoothed.trend,
                  smoothed.estimates):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
