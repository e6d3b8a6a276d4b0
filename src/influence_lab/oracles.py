"""Brute-force reference computations.

Deliberately dumb implementations along completely different code paths than
the production routines. The verify suites and the test suite hold the fast
paths against these on small instances; nothing here is performance-tuned.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .truthtable import TruthTable


def tabulate(n: int, fn) -> TruthTable:
    """Evaluate fn at every assignment, one Python call per input.

    fn receives a tuple of n bits, x_0 first; its result's low bit is f(x).
    """
    packed = 0
    for idx in range(1 << n):
        x = tuple((idx >> i) & 1 for i in range(n))
        if fn(x) & 1:
            packed |= 1 << idx
    return TruthTable(n, packed)


def builtin_references() -> list[tuple[str, int, TruthTable]]:
    """(name, n, pointwise table) for every builtin family at small sizes."""
    refs = [("maj", n, tabulate(n, lambda x: int(x.count(1) > x.count(0)))) for n in (1, 3, 5, 7, 9)]
    refs += [("parity", n, tabulate(n, lambda x: sum(x) & 1)) for n in range(1, 11)]
    refs += [("and", n, tabulate(n, lambda x: int(all(x)))) for n in (1, 2, 5)]
    refs += [("or", n, tabulate(n, lambda x: int(any(x)))) for n in (1, 2, 5)]
    # the paper's x0*(x1 - x2)^2 + (1 - x0)*(x2 - x3)^2, in integer arithmetic
    paper_f = tabulate(4, lambda x: x[0] * (x[1] - x[2]) ** 2 + (1 - x[0]) * (x[2] - x[3]) ** 2)
    refs.append(("paper_f", 4, paper_f))
    return refs


def wht_direct(t: TruthTable) -> np.ndarray:
    """O(4^n) character correlation sums, no butterfly."""
    if t.n > 10:
        raise CapacityError("direct transform is quadratic; capped at n=10")
    size = t.size
    xs = np.arange(size, dtype=np.uint64)
    overlap = np.bitwise_count(xs[:, None] & xs[None, :])
    chars = np.where(overlap & 1, -1, 1).astype(np.int64)
    return chars @ t.signs()


def block_sensitivity_naive_at(t: TruthTable, x: int) -> int:
    """Max packing over ALL sensitive blocks by memoized exhaustive search."""
    if t.n > 6:
        raise CapacityError("naive block packing is capped at n=6")
    fx = t.bit_at(x)
    sensitive = tuple(
        b for b in range(1, t.size) if t.bit_at(x ^ b) != fx
    )

    @lru_cache(maxsize=None)
    def best(avail: int) -> int:
        top = 0
        for b in sensitive:
            if b & ~avail == 0:
                top = max(top, 1 + best(avail & ~b))
        return top

    return best(t.size - 1)


def block_sensitivity_naive(t: TruthTable) -> int:
    return max(block_sensitivity_naive_at(t, x) for x in range(t.size))


__all__ = [
    "block_sensitivity_naive",
    "block_sensitivity_naive_at",
    "builtin_references",
    "tabulate",
    "wht_direct",
]
