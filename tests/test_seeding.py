import numpy as np
import pytest

from sestrack.processes import Constant, WhiteGaussian, sample_path
from sestrack.seeding import (
    _stream_start,
    child_seed,
    child_seeds,
    fill_standard_normals,
    make_generator,
    splitmix64,
)

EDGE_KEYS = [0, 1, 2**63, 2**64 - 1]


def test_splitmix64_known_outputs():
    # first two outputs of the reference sequence started at state 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_child_seeds_distinct_and_stable():
    seeds = [child_seed(12345, r) for r in range(5000)]
    assert len(set(seeds)) == 5000
    assert seeds == [child_seed(12345, r) for r in range(5000)]
    # neighbouring indices land far apart in the key space
    assert all(bin(a ^ b).count("1") > 8 for a, b in zip(seeds, seeds[1:]))


def test_child_seed_mixes_master():
    assert child_seed(1, 0) != child_seed(2, 0)


def test_generator_repeatable():
    a = make_generator(99).standard_normal(16)
    b = make_generator(99).standard_normal(16)
    assert np.array_equal(a, b)
    c = make_generator(100).standard_normal(16)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_rejected(seed):
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        child_seed(seed, 0)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        make_generator(seed)


def test_seed_range_edges_accepted():
    assert child_seed(0, 3) != child_seed(2**64 - 1, 3)
    make_generator(0)
    make_generator(2**64 - 1)


@pytest.mark.parametrize(
    "seed", [1.5, 2.0, True, False, np.True_, np.float64(3.0), "3", None], ids=repr
)
def test_non_integer_seed_rejected(seed):
    # never coerced: 1.5 and True would otherwise both name stream 1
    with pytest.raises(ValueError, match="seed must be an integer"):
        child_seed(seed, 0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        make_generator(seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample_path(WhiteGaussian(1.0), Constant(0.0), 5, seed)


@pytest.mark.parametrize(
    "seed", [np.int64(5), np.uint32(7), np.uint64(2**64 - 1)], ids=repr
)
def test_numpy_integer_seed_names_the_same_stream(seed):
    assert child_seed(seed, 3) == child_seed(int(seed), 3)
    draws = make_generator(seed).standard_normal(4)
    assert draws.tobytes() == make_generator(int(seed)).standard_normal(4).tobytes()
    x = sample_path(WhiteGaussian(1.0), Constant(0.0), 5, seed)
    assert x.tobytes() == sample_path(WhiteGaussian(1.0), Constant(0.0), 5, int(seed)).tobytes()


@pytest.mark.parametrize("index", [-1, 2**64, True, np.True_, 1.5, np.float64(1.0), "1", None],
                         ids=repr)
def test_child_seed_refuses_an_index_that_would_share_a_stream(index):
    # never wrapped or coerced: 2**64 would name stream 0, and True stream 1
    with pytest.raises(ValueError, match=r"replication index must be an integer in \[0, 2\*\*64\)"):
        child_seed(7, index)


def test_child_seed_index_range_edges_accepted():
    assert child_seed(7, np.uint64(2**64 - 1)) == child_seed(7, 2**64 - 1) != child_seed(7, 0)
    assert child_seed(7, np.int64(3)) == child_seed(7, 3)


@pytest.mark.parametrize("master", [0, 12345, 2**64 - 1])
def test_child_seeds_equal_child_seed(master):
    for indices in (range(0, 70), range(1029, 1100), range(2**63 - 3, 2**63 + 3)):
        seeds = child_seeds(master, indices)
        assert seeds.dtype == np.uint64
        assert [int(k) for k in seeds] == [child_seed(master, r) for r in indices]
    assert len(child_seeds(master, range(5, 5))) == 0


def test_child_seeds_reject_bad_ranges():
    for indices in (range(0, 10, 2), range(-1, 3)):
        with pytest.raises(ValueError, match="unit-step range"):
            child_seeds(1, indices)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        child_seeds(-1, range(3))


@pytest.mark.parametrize("master", [0, 2**64 - 1])
def test_child_seeds_reach_the_last_stream(master):
    # the array path once refused the index 2**64 - 1, which child_seed names
    top = 2**64
    for indices in (range(top - 1, top), range(top - 5, top), range(top, top)):
        assert [int(k) for k in child_seeds(master, indices)] == [
            child_seed(master, r) for r in indices
        ]
    for indices in (range(top - 1, top + 1), range(top, top + 1), range(top + 1, top + 1)):
        with pytest.raises(ValueError, match=r"unit-step range in \[0, 2\*\*64\)"):
            child_seeds(master, indices)


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_stream_start_rekeys_a_generator_that_has_drawn(key):
    # the reused generator has a half-used uint32 and a partly consumed
    # Philox buffer; the re-key must drop both
    generator = make_generator(99)
    generator.integers(0, 10, dtype=np.uint32)
    generator.standard_normal(3)
    generator.bit_generator.state = _stream_start(np.array([key, 0], dtype=np.uint64))
    reference = make_generator(key)
    assert generator.bit_generator.state.keys() == reference.bit_generator.state.keys()
    for name, value in reference.bit_generator.state["state"].items():
        assert np.array_equal(generator.bit_generator.state["state"][name], value)
    assert np.array_equal(
        generator.integers(0, 2**32, size=5, dtype=np.uint32),
        reference.integers(0, 2**32, size=5, dtype=np.uint32),
    )
    assert np.array_equal(generator.standard_normal(9), reference.standard_normal(9))


@pytest.mark.parametrize("n", [1, 13, 400])
def test_fill_columns_equal_fresh_generators(n):
    # every row after the first is drawn by a generator that already drew an
    # odd number of normals
    keys = EDGE_KEYS + [int(k) for k in child_seeds(7, range(100, 133))]
    for seeds in (keys, np.array(keys, dtype=np.uint64)):
        out = fill_standard_normals(np.empty((len(keys), n)), seeds)
        for i, key in enumerate(keys):
            assert out[i].tobytes() == make_generator(key).standard_normal(n).tobytes()


def test_fill_rejects_bad_input():
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        fill_standard_normals(np.empty((4, 2)), [1, 2**64])
    with pytest.raises(ValueError, match="out must be"):
        fill_standard_normals(np.empty((4, 3)), [1, 2])
