"""Seed-stream derivation shared by every randomized component.

All randomness in the package flows through one scheme: a master seed plus a
tuple of integer stream ids is fed to ``numpy.random.SeedSequence``, which
keys a PCG64 generator, so per-series / per-trajectory work is reproducible
regardless of execution order.  The derivation is part of the on-disk
provenance contract and is documented in the README.

``substreams`` keys many streams at once, as the sampler does for its
trajectories and ``generate_panel`` for its series: it runs
``SeedSequence``'s hash over all id rows in a few array operations and
gives each row the generator ``substream`` would, draw for draw.

Distinct id tuples are not always distinct streams.  ``SeedSequence`` reads
the ids as 32-bit words and pads them with zero words to a pool of four, so
tuples that differ only by trailing zeros, up to four words in all, key the
same stream: ``substream(0, 1)``, ``substream(0, 1, 0)`` and
``substream(0, 1, 0, 0)`` draw the same numbers.  README's "Determinism"
section names the package's streams that coincide this way.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["substream", "substreams"]

# SeedSequence's hash (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq redesign): uint32 multiply, xor and shift with constants that do
# not depend on the data, over a pool of four words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def substream(*ids: int) -> np.random.Generator:
    """Return the PCG64 generator keyed by the integer id tuple ``ids``."""
    for x in ids:
        if not isinstance(x, (int, np.integer)):
            raise TypeError(f"stream ids must be integers, got {x!r}")
    return np.random.default_rng(np.random.SeedSequence(tuple(int(x) for x in ids)))


class _KeyedState(ISeedSequence):
    """A seed sequence whose PCG64 state is already hashed.  It serves the
    one request PCG64 makes, four uint64 words; it cannot spawn."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("a keyed stream holds exactly four uint64 state words")
        return self.state


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(const)
    const = const * _MULT_A & _MASK32
    value *= np.uint32(const)
    value ^= value >> np.uint32(_XSHIFT)
    return value, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    result ^= result >> np.uint32(_XSHIFT)
    return result


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of
    words (N, k), k <= 4, every word a uint32."""
    pool = np.zeros((_POOL_SIZE, words.shape[0]), dtype=np.uint32)
    pool[: words.shape[1]] = words.T
    const = _INIT_A
    for i in range(_POOL_SIZE):
        pool[i], const = _hashmix(pool[i], const)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    state = np.empty((words.shape[0], 2 * _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value *= np.uint32(const)
        value ^= value >> np.uint32(_XSHIFT)
        state[:, i] = value
    # word 2j is the low half of uint64 j, as SeedSequence's '<u4' -> '<u8' view
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << np.uint64(32)


def substreams(ids: np.ndarray) -> Iterator[np.random.Generator]:
    """The generators ``substream(*row)`` for the rows of ids (N, k), in order.

    Rows of one to four non-negative words below 2**32 are hashed together,
    bit for bit as ``SeedSequence`` hashes them; any other ids (a longer
    row, a larger or negative word, a non-integer array) go through
    ``substream`` one row at a time.  Either way row i draws the numbers
    ``substream(*ids[i])`` draws, trailing-zero collisions included.  Each
    generator is built when the iterator reaches its row, so N of them need
    not be held at once.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ValueError(f"stream ids must be a 2-D array of rows, got shape {ids.shape}")
    fast = (
        ids.dtype.kind in "iu"
        and 1 <= ids.shape[1] <= _POOL_SIZE
        and (ids.size == 0 or (ids.min() >= 0 and ids.max() <= _MASK32))
    )
    if not fast:
        return (substream(*row) for row in ids.tolist())
    states = _pcg64_states(ids.astype(np.uint32))
    return (np.random.Generator(np.random.PCG64(_KeyedState(row))) for row in states)
