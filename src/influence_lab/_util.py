"""Small shared helpers: popcounts and masks."""

from __future__ import annotations

import numpy as np

MAX_VARS = 20  # full-domain scans stay under 2^20 table entries


def popcounts(n: int) -> np.ndarray:
    """Vector of popcount(s) for every mask s < 2^n (int64)."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
