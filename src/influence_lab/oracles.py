"""Brute-force reference computations.

Deliberately dumb implementations along completely different code paths than
the production routines. The verify suites and the test suite hold the fast
paths against these on small instances; nothing here is performance-tuned.

Block sensitivity packs minimal sensitive blocks only. That is exact: in any
family of disjoint sensitive blocks, each block contains a minimal sensitive
block, and those sub-blocks are still disjoint and as many.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import dsl, qsim
from .approxdeg import MultilinearPoly
from .errors import CapacityError, InputError
from .truthtable import TruthTable

BRUTE_FORCE_CAP = 10**8


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


# each pointwise builtin on a tuple of argument bits, x_0 first
_POINTWISE = {
    "maj": lambda x: int(x.count(1) > x.count(0)),
    "parity": lambda x: sum(x) & 1,
    "and": lambda x: int(all(x)),
    "or": lambda x: int(any(x)),
    # the paper's x0*(x1 - x2)^2 + (1 - x0)*(x2 - x3)^2, in integer arithmetic
    "paper_f": lambda x: x[0] * (x[1] - x[2]) ** 2 + (1 - x[0]) * (x[2] - x[3]) ** 2,
}


def builtin_references() -> list[tuple[str, int, TruthTable]]:
    """(name, n, pointwise table) for every builtin family at small sizes."""
    sizes = {"maj": (1, 3, 5, 7, 9), "parity": range(1, 11), "and": (1, 2, 5), "or": (1, 2, 5), "paper_f": (4,)}
    return [(name, n, tabulate(n, _POINTWISE[name])) for name, ns in sizes.items() for n in ns]


def formula_value(node: dsl.Node, x: tuple[int, ...]) -> int:
    """A parsed formula's bit at one input, by walking the tree; the reference for dsl.elaborate."""
    if node.kind == "var":
        return x[node.value]
    if node.kind == "const":
        return node.value
    bits = tuple(formula_value(child, x) for child in node.children)
    if node.kind == "not":
        return 1 - bits[0]
    if node.kind == "call":
        return _POINTWISE[node.value](bits)
    return {"and": bits[0] & bits[1], "or": bits[0] | bits[1], "xor": bits[0] ^ bits[1]}[node.kind]


def wht_direct(t: TruthTable) -> np.ndarray:
    """O(4^n) character correlation sums, no butterfly."""
    if t.n > 10:
        raise CapacityError("direct transform is quadratic; capped at n=10")
    size = t.size
    xs = np.arange(size, dtype=np.uint64)
    overlap = np.bitwise_count(xs[:, None] & xs[None, :])
    chars = np.where(overlap & 1, -1, 1).astype(np.int64)
    return chars @ t.signs()


def sensitivity_profile(t: TruthTable) -> np.ndarray:
    """uint8 array: entry x is the number of sensitive coordinates at x, one unpacked pass per variable.

    The reference for measures.influences and measures.max_sensitivity.
    """
    bits = t.bits()
    sens = np.zeros(t.size, dtype=np.uint8)
    for i in range(t.n):
        view = bits.reshape(-1, 2, 1 << i)
        diff = view[:, 0, :] != view[:, 1, :]
        sview = sens.reshape(-1, 2, 1 << i)
        sview[:, 0, :] += diff
        sview[:, 1, :] += diff
    return sens


def sensitivity_at(t: TruthTable, x) -> int:
    """Sensitive coordinates at one input, by n single-bit lookups."""
    idx = t.index_of(x)
    fx = t.bit_at(idx)
    return sum(1 for i in range(t.n) if t.bit_at(idx ^ (1 << i)) != fx)


def block_sensitivity_naive_at(t: TruthTable, x: int) -> int:
    """Max number of disjoint sensitive blocks at x, packing the minimal ones only.

    A block B is sensitive at x when f(x ^ B) != f(x), and minimal when no
    proper subset of B is. Shrinking each block of a disjoint sensitive family
    to a minimal sensitive sub-block keeps the family disjoint and its size,
    so the best packing of minimal blocks is the best packing of all. has[b]
    says whether b contains a sensitive block: sens[b], or has[b - e_i] for
    some i in b; b is minimal when sens[b] holds and no has[b - e_i] does.
    """
    if t.n > 12:
        raise CapacityError("naive block packing is capped at n=12")
    bits = t.bits()
    sens = (bits[np.arange(t.size) ^ x] != bits[x]).tolist()
    has = [False] * t.size
    containing: list[list[int]] = [[] for _ in range(t.n)]  # minimal blocks, by each variable in them
    for b in range(1, t.size):
        inside = [i for i in range(t.n) if (b >> i) & 1]
        below = any(has[b ^ (1 << i)] for i in inside)
        has[b] = sens[b] or below
        if sens[b] and not below:
            for i in inside:
                containing[i].append(b)

    @lru_cache(maxsize=None)
    def best(avail: int) -> int:
        if not avail:
            return 0
        # the lowest available variable is in no chosen block, or in one of its blocks that fits
        low = (avail & -avail).bit_length() - 1
        top = best(avail ^ (1 << low))
        for b in containing[low]:
            if b & ~avail == 0:
                top = max(top, 1 + best(avail & ~b))
        return top

    return best(t.size - 1)


def block_sensitivity_naive(t: TruthTable) -> int:
    return max(block_sensitivity_naive_at(t, x) for x in range(t.size))


def symmetry_classes_naive(t: TruthTable) -> tuple[tuple[int, ...], ...]:
    """measures.symmetry_classes by testing every pair of variables at every input.

    Each variable's class is every variable it can be exchanged with; nothing
    assumes the relation is transitive, so a search that did would disagree.
    """
    if t.n > 12:
        raise CapacityError("naive symmetry search is capped at n=12")

    def exchangeable(i: int, j: int) -> bool:
        for x in range(t.size):
            if (x >> i) & 1 != (x >> j) & 1 and t.bit_at(x) != t.bit_at(x ^ (1 << i) ^ (1 << j)):
                return False
        return True

    return tuple(sorted({tuple(j for j in range(t.n) if j == i or exchangeable(i, j)) for i in range(t.n)}))


def translations_naive(t: TruthTable) -> tuple[int, ...]:
    """Every a with f(x ^ a) = f(x) at all x, or != at all x, by comparing the table with each shift.

    The reference for measures._translation_basis, which finds them from the
    squared spectrum.
    """
    if t.n > 12:
        raise CapacityError("naive translation search is capped at n=12")
    bits = t.bits()
    idx = np.arange(t.size)
    shifted = (bits != bits[idx ^ a] for a in range(t.size))
    return tuple(a for a, differs in enumerate(shifted) if differs.all() or not differs.any())


def _require_odd(k: int) -> None:
    if k < 1 or k % 2 == 0:
        raise InputError(f"k must be a positive odd integer, got {k}")


def _flip_mask(coords) -> int:
    m = 0
    for i in coords:
        m ^= 1 << i
    return m


def flip_prob_bruteforce(t: TruthTable, k: int) -> Fraction:
    """Pr[f(x) != f(x ^ e_{i_1} ^ .. ^ e_{i_k})] by enumerating every x and coordinate tuple.

    The reference for bounds.flip_prob_spectral.
    """
    _require_odd(k)
    n = t.n
    if n**k * t.size > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute force needs {n ** k * t.size} evaluations, cap is {BRUTE_FORCE_CAP}")
    bits = t.bits()
    idx = np.arange(t.size)
    # flips_for[m] = #{x : f(x) != f(x ^ m)}, still a full x enumeration per mask
    flips_for = {}
    total = 0
    for tup in product(range(n), repeat=k):
        m = _flip_mask(tup)
        if m not in flips_for:
            flips_for[m] = int(np.count_nonzero(bits != bits[idx ^ m]))
        total += flips_for[m]
    return Fraction(total, t.size * n**k)


def mean_square_flip(poly: MultilinearPoly) -> float:
    """E over (x, i) of |p(x) - p(x flip i)|^2, by evaluating p at every input."""
    n = poly.n
    vals = poly.values()
    total = 0.0
    for i in range(n):
        view = vals.reshape(-1, 2, 1 << i)
        diff = view[:, 0, :] - view[:, 1, :]
        total += 2.0 * float(np.sum(diff * diff))
    return total / (n * (1 << n))


def displacement_direct(state: qsim.FourierState, k: int) -> float:
    """qsim.displacement_statistic by enumerating every oracle and coordinate tuple."""
    _require_odd(k)
    n = state.layout.n_index
    size = 1 << n
    if size * n**k > 10**7:
        raise CapacityError("direct displacement enumeration is for small n and k")
    vecs = [qsim.reconstruct(state, x) for x in range(size)]
    total = 0.0
    for tup in product(range(n), repeat=k):
        m = _flip_mask(tup)
        for x in range(size):
            d = vecs[x] - vecs[x ^ m]
            total += float(np.vdot(d, d).real)
    return total / (size * n**k)


def gap_check_direct(state: qsim.FourierState, table: TruthTable, eps: float) -> qsim.GapReport:
    """qsim.gap_check pair by pair, each oracle's state rebuilt by qsim.reconstruct."""
    size = 1 << state.layout.n_index
    vecs = [qsim.reconstruct(state, x) for x in range(size)]
    bits = table.bits()
    threshold = 2 - 4 * math.sqrt(max(0.0, eps))
    min_gap = None
    checked = 0
    for x, y in combinations(range(size), 2):
        if bits[x] == bits[y]:
            continue
        d = vecs[x] - vecs[y]
        gap = float(np.vdot(d, d).real)
        checked += 1
        if min_gap is None or gap < min_gap:
            min_gap = gap
    violated = min_gap is not None and min_gap < threshold - qsim.NORM_TOL
    return qsim.GapReport(min_gap, threshold, checked, violated)


__all__ = [
    "block_sensitivity_naive",
    "block_sensitivity_naive_at",
    "builtin_references",
    "displacement_direct",
    "flip_prob_bruteforce",
    "formula_value",
    "gap_check_direct",
    "mean_square_flip",
    "sensitivity_at",
    "sensitivity_profile",
    "symmetry_classes_naive",
    "tabulate",
    "translations_naive",
    "wht_direct",
]
