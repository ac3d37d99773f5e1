"""Seed-stream derivation shared by every randomized component.

All randomness in the package flows through one scheme: a master seed plus a
tuple of integer stream ids is fed to ``numpy.random.SeedSequence``, which
keys a PCG64 generator, so per-series / per-trajectory work is reproducible
regardless of execution order.  The derivation is part of the on-disk
provenance contract and is documented in the README.

Distinct id tuples are not always distinct streams.  ``SeedSequence`` reads
the ids as 32-bit words and pads them with zero words to a pool of four, so
tuples that differ only by trailing zeros, up to four words in all, key the
same stream: ``substream(0, 1)``, ``substream(0, 1, 0)`` and
``substream(0, 1, 0, 0)`` draw the same numbers.  README's "Determinism"
section names the package's streams that coincide this way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]


def substream(*ids: int) -> np.random.Generator:
    """Return the PCG64 generator keyed by the integer id tuple ``ids``."""
    for x in ids:
        if not isinstance(x, (int, np.integer)):
            raise TypeError(f"stream ids must be integers, got {x!r}")
    return np.random.default_rng(np.random.SeedSequence(tuple(int(x) for x in ids)))
