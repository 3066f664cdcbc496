"""Counter-based random streams for bit-reproducible experiments.

Every stochastic routine in this package takes an explicit generator.
Streams are keyed by a 64-bit seed alone; independent workers
(replicates, folds, calibration draws) each own a distinct stream by
taking a distinct seed (``experiments.child_seed``), so their output
does not depend on scheduling or thread count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int) -> np.random.Generator:
    """Return a counter-based (Philox) generator keyed by ``seed``; the
    same seed always yields the same sequence."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    key = np.array([np.uint64(seed), np.uint64(0)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
