import numpy as np
import pytest

from sestrack.seeding import child_seed, make_generator, splitmix64


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
