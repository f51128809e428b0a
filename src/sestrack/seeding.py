"""Deterministic random-number streams.

All simulation randomness comes from numpy's Philox bit generator, a
counter-based 64-bit PRNG (Philox-4x64-10) keyed directly with the user
seed; normal variates are produced by ``Generator.standard_normal``, which
uses the ziggurat transform.  The same (seed, configuration) pair therefore
yields the same path on every run of the same build.  Bit-exactness across
numpy major versions or across languages is not promised; statistical
properties are.

Replicated experiments never use sequential seeds.  Child seeds are derived
with the SplitMix64 avalanche finalizer, so that neighbouring replication
indices map to unrelated points of the key space.

A counter-based stream is nothing more than a key and a counter (Salmon et
al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), so moving one
generator to another stream is a re-key, not a construction;
``fill_standard_normals`` draws a block of replications that way, each
stream straight into its own contiguous row.

User seeds and replication indices must be integers (Python or numpy,
never bools) in [0, 2^64); anything else is rejected rather than coerced
or wrapped, so two different seeds never name the same stream.  Every
count of the package (horizons, replications, workers) is held to the
same rule, ``is_integer``.
"""

from __future__ import annotations

from ._numpy import np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(value):
    """One SplitMix64 step: add the golden-gamma increment, then finalize.

    ``value`` is an int in [0, 2^64) or a uint64 array, which is mapped
    elementwise (numpy's uint64 arithmetic wraps like the masks below)."""
    z = (value + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def is_integer(value) -> bool:
    """The one integer rule: a Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int, once it is an integer >= ``minimum``."""
    if not (is_integer(value) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_seed(seed: int) -> int:
    """Validate a 64-bit seed, an integer in [0, 2**64); returned as an int."""
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return int(seed)


def child_seed(master: int, index: int) -> int:
    """Seed for replication ``index``, an integer in [0, 2**64), of an
    experiment with seed ``master``."""
    if not (is_integer(index) and 0 <= index <= _MASK64):
        raise ValueError(f"replication index must be an integer in [0, 2**64), got {index!r}")
    return splitmix64(splitmix64(check_seed(master)) ^ int(index))


def child_seeds(master: int, indices: range) -> np.ndarray:
    """``child_seed(master, r)`` for every r in ``indices``, as a uint64 array.

    One array pass for a whole block of replications.
    """
    if indices.step != 1 or indices.start < 0 or max(indices.start, indices.stop) > _MASK64 + 1:
        raise ValueError(f"indices must be a unit-step range in [0, 2**64), got {indices}")
    index = np.arange(len(indices), dtype=np.uint64)
    index += np.uint64(indices.start if index.size else 0)  # 2**64 starts only an empty range
    return splitmix64(np.uint64(splitmix64(check_seed(master))) ^ index)


def make_generator(seed: int) -> np.random.Generator:
    """Philox generator keyed with ``seed`` (counter starting at zero)."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def _stream_start(key: list) -> dict:
    """Philox state at counter zero under the two-word ``key``, with nothing
    buffered: assigning it to a generator's ``bit_generator.state`` puts the
    generator where ``make_generator(key[0])`` starts.  The fields are
    Python lists, which the state setter indexes much faster than uint64
    arrays."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def fill_standard_normals(out: np.ndarray, seeds) -> np.ndarray:
    """Fill row i of the stream-major (B, n) array ``out`` with the first n
    standard normals of the stream keyed ``seeds[i]``, bit for bit
    ``make_generator(seeds[i]).standard_normal(n)``; returns ``out``.
    ``seeds`` is a uint64 array (as ``child_seeds`` returns) or a sequence
    of ints in [0, 2^64).  Each row must be contiguous.

    One generator is re-keyed for every row instead of B being built, and
    draws each stream straight into its row.
    """
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        seeds = np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)
    if out.ndim != 2 or len(out) != len(seeds):
        raise ValueError("out must be a (len(seeds), n) array")
    generator = make_generator(0)
    key = [0, 0]
    start = _stream_start(key)
    for row, seed in zip(out, seeds.tolist()):
        key[0] = seed
        generator.bit_generator.state = start
        generator.standard_normal(out=row)
    return out
