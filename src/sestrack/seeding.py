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

User seeds must lie in [0, 2^64); anything else is rejected rather than
wrapped, so two different seeds never name the same stream.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """One SplitMix64 step: add the golden-gamma increment, then finalize."""
    z = (value + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _check_seed(seed: int) -> int:
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def child_seed(master: int, index: int) -> int:
    """Seed for replication ``index`` of an experiment with seed ``master``."""
    if index < 0:
        raise ValueError(f"replication index must be >= 0, got {index}")
    return splitmix64(splitmix64(_check_seed(master)) ^ (index & _MASK64))


def make_generator(seed: int) -> np.random.Generator:
    """Philox generator keyed with ``seed`` (counter starting at zero)."""
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)))
