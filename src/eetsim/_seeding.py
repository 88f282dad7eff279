"""Philox streams for a batch of trajectories, keyed as numpy's SeedSequence keys them.

Trajectory k of master seed s runs ``Generator(Philox(SeedSequence(s,
spawn_key=(k,))))``.  SeedSequence hashes its entropy word by word in Python
loops, about 11 us a stream; its hash constants do not depend on the words,
so here one numpy pass runs those loops over uint32 arrays for a whole batch
of indices and gives the same keys bit for bit.  The module is imported on
the first noise draw: it loads numpy.random, which runs that draw no noise
do not need.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_keys(entropy: list) -> np.ndarray:
    """SeedSequence's ``generate_state(2, np.uint64)`` for each row of a batch, (batch, 2).

    ``entropy`` is the assembled entropy, 4 words or more, each a Python int
    shared by the batch or a uint32 array over it.  The hash constants do not
    depend on the words, so the batch runs numpy's scalar loops in step.
    """
    const = [_INIT_A, _MULT_A]

    def hashmix(value):
        xor, const[0] = const[0], const[0] * const[1] & _MASK32
        value = (value ^ xor) * const[0] & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const[:] = _INIT_B, _MULT_B
    low0, high0, low1, high1 = (np.asarray(hashmix(word), np.uint64) for word in pool)
    return np.stack(np.broadcast_arrays(low0 | high0 << 32, low1 | high1 << 32), axis=-1)


class StreamKey(ISpawnableSeedSequence):
    """``SeedSequence(seed, spawn_key=(k,))`` holding its Philox key, computed beforehand.

    Any other state request, and ``spawn``, goes to that SeedSequence, built on first use.
    """

    def __init__(self, seed: int, k: int, key: np.ndarray):
        self.seed, self.k, self.key = seed, k, key

    @functools.cached_property
    def sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed, spawn_key=(self.k,))

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 2 and np.dtype(dtype) == np.uint64:
            return self.key
        return self.sequence.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.sequence.spawn(n_children)


def streams(seed: int, indices: range) -> list[np.random.Generator]:
    """The streams of trajectories ``indices`` (a unit-step range), their keys in one numpy pass.

    numpy splits an int into little-endian 32-bit words (one for 0) and pads
    the seed's words with zeros to its pool size of 4 before a spawn key; the
    indices of each word count share a pass.
    """
    run = [seed >> 32 * j & _MASK32 for j in range(max(4, -(-seed.bit_length() // 32)))]
    keys = []
    start = indices.start
    while start < indices.stop:
        width = max(1, -(-start.bit_length() // 32))
        stop = min(indices.stop, 1 << 32 * width)
        ks = np.array(range(start, stop), dtype=object)
        keys.extend(_seed_keys(run + [(ks >> 32 * j & _MASK32).astype(np.uint32) for j in range(width)]))
        start = stop
    return [np.random.Generator(np.random.Philox(StreamKey(seed, k, key))) for k, key in zip(indices, keys)]
