"""Influence, sensitivity, and exact block sensitivity.

All probability-flavored quantities are returned as exact dyadic rationals
(Fraction with a 2^n denominator) so that identities against the spectral
route can be asserted with equality, not tolerance.

Influences and the maximum sensitivity read the packed table as uint64 words,
64 inputs each. For every variable i one array of flip words marks the inputs
x with f(x) != f(x ^ e_i): for i < 6 partner inputs share a word, so the flips
are (w ^ (w >> 2^i)) restricted to the inputs with x_i = 0 and copied back up
by << 2^i; for i >= 6 they are the XOR of the two word halves that x_i picks.
An influence is the popcount of its flip words over 2^n. For the maximum, the
flip words are added into bit-sliced counters, plane k holding bit k of every
input's sensitivity: n.bit_length() planes, at most 5 since n <= 20 < 32. The
maximum is read from the top plane down, keeping at each plane the inputs that
have that bit set if any do; the witness is the lowest input left, the
smallest index with the maximum, as an argmax over the unpacked profile gives.
That profile is the reference, in oracles.

Block sensitivity is exact: candidate blocks are cut down to the ones with
no sensitive single-removal subset, then packed by branch and bound. Every
truly minimal sensitive block passes that local test and every candidate is
still sensitive, so the packing optimum over the candidates equals the
optimum over all sensitive blocks.

The scan over all inputs shares work. One sort puts inputs with more
sensitive coordinates first and the inputs sharing a sensitive-coordinate mask
together; each such group gets its candidates from batched gathers, and the
packing of each distinct (candidate set, free variable count) is solved once
and reused: the branch and bound depends only on that pair, so the memo cannot
change a value or a witness. A group's ceiling S + floor(free/2) never grows
along that order, so the scan ends at the first group that cannot reach the
incumbent. The witness is the smallest input index attaining the maximum, so
no scan order can move it.

Only one input per orbit is scanned. Exchanging two interchangeable variables
(symmetry_classes) maps sensitive blocks at x to sensitive blocks at the image
of x, and so does a translation x -> x ^ a under which f is invariant or
complemented (f(x ^ a) = f(x) at every x, or != at every x): the blocks that
flip f at x flip it at x ^ a. So bs is the same across an orbit of the group
both generate, and the orbit's smallest index stands for it. The translations
are read off the table's squared spectrum. An exchange maps a translation to a
translation, so an orbit's smallest index is the least canonical(x ^ a) over
the translations a, canonical moving each class's ones to its lowest-indexed
members; one pass over all inputs per basis translation computes it for every
x. Sensitive coordinates are found at the minima alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from . import fourier
from .errors import CapacityError
from .truthtable import TruthTable

# with no exchange or translation symmetry the scan visits all 2^16 inputs, and it is
# slowest when bs is far below n/2 so the ceiling never prunes; iterate(paper_f, 2)
# (bs 9) has 64 translations and scans 1024 orbit minima in about 0.04 s
BS_EXACT_MAX_VARS = 16
# the block-sensitivity scan gathers inputs x subsets in batches: about 2^18
# elements keeps the index array in cache, and at least 16 inputs spreads each
# pass's loop overhead when subcubes are large
_BATCH_ELEMENTS = 1 << 18
_BATCH_MIN_INPUTS = 16


class MaxSensitivity(NamedTuple):
    value: int
    witness: int  # input index achieving the max


@dataclass(frozen=True)
class BlockSensitivityResult:
    value: int
    exact: bool  # False only when a time budget expired; value is then a lower bound
    witness_input: int  # the smallest input index attaining value
    witness_blocks: tuple[int, ...]  # disjoint variable masks, each flips f at the witness
    # orbit minima whose candidate blocks were computed; the other minima were pruned, and
    # the rest of the inputs share their orbit's bs. prod(|C| + 1) over symmetry_classes
    # counts the canonical inputs the orbit labels start from, so it is an upper bound;
    # folding in a basis translation merges orbits in pairs at most, so each can halve it
    inputs_scanned: int


@dataclass(frozen=True)
class MeasureReport:
    n: int
    influences: tuple[Fraction, ...]
    rho: Fraction
    avg_sensitivity: Fraction
    max_sensitivity: int
    max_sensitivity_witness: int
    block_sensitivity: BlockSensitivityResult | None
    bs_skipped_reason: str | None


# _LOW[i]: the bits of a 64-input word whose index has x_i = 0, for i < 6
_LOW = tuple(np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
))


def _flip_words(t: TruthTable) -> Iterator[np.ndarray]:
    """For each variable i in turn, words whose set bits are the inputs x with f(x) != f(x ^ e_i)."""
    # input 64j + b is bit b of word j; for n < 6 one word, zero above 2^n
    w = np.frombuffer(t.packed.to_bytes(max(8, t.size >> 3), "little"), dtype="<u8")
    for i in range(min(t.n, 6)):
        shift = np.uint64(1 << i)
        low = (w ^ (w >> shift)) & _LOW[i]
        yield low | (low << shift)
    for i in range(6, t.n):
        # x_i is bit i - 6 of the word index: it picks a half of each 2^(i-5) words
        halves = w.reshape(-1, 2, 1 << (i - 6))
        diff = halves[:, 0] ^ halves[:, 1]
        yield np.stack((diff, diff), axis=1).reshape(-1)


def influences(t: TruthTable) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(np.bitwise_count(flips).sum()), t.size) for flips in _flip_words(t))


def avg_influence(t: TruthTable) -> Fraction:
    return sum(influences(t), Fraction(0)) / t.n


def avg_sensitivity(t: TruthTable) -> Fraction:
    """Average over x of the sensitivity at x; equals avg_influence * n."""
    return sum(influences(t), Fraction(0))


def max_sensitivity(t: TruthTable) -> MaxSensitivity:
    """The most sensitive coordinates at any input, and the smallest input with that many.

    The flip words are summed into bit-sliced counters, a ripple-carry add
    per variable; plane k holds bit k of every input's sensitivity.
    """
    planes = [np.zeros(max(1, t.size >> 6), dtype=np.uint64) for _ in range(t.n.bit_length())]
    for carry in _flip_words(t):
        for plane in planes:
            spill = plane & carry
            plane ^= carry
            carry = spill
    # narrow to the inputs holding the largest count, one bit from the top plane
    # down; for n < 6 only the low 2^n bits of the one word are inputs
    live = np.full_like(planes[0], (1 << min(t.size, 64)) - 1)
    value = 0
    for k in reversed(range(len(planes))):
        top = live & planes[k]
        if top.any():
            live, value = top, value | (1 << k)
    j = int(np.flatnonzero(live)[0])
    word = int(live[j])
    return MaxSensitivity(value, 64 * j + (word & -word).bit_length() - 1)


def _pair_view(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """A full-table array indexed as [higher bits, x_j, bits between, x_i, lower bits], i < j."""
    return a.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)


def symmetry_classes(t: TruthTable) -> tuple[tuple[int, ...], ...]:
    """The variables partitioned by i ~ j: exchanging x_i and x_j leaves f unchanged.

    ~ is an equivalence (if i ~ j and j ~ k, the transposition (i k) is (i j)
    conjugated by (j k)), so a new variable is compared only with the first
    member of each class. Classes and their members are ascending.
    """
    bits = t.bits()
    classes: list[list[int]] = []
    for j in range(t.n):
        for c in classes:
            view = _pair_view(bits, c[0], j)
            if np.array_equal(view[:, 0, :, 1, :], view[:, 1, :, 0, :]):
                c.append(j)
                break
        else:
            classes.append([j])
    return tuple(tuple(c) for c in classes)


def _translation_basis(spec: fourier.FourierSpectrum) -> list[int]:
    """A basis of the a with f(x ^ a) = f(x) at every x, or != at every x, for f's spectrum spec.

    With F the sign view, r = butterfly(sums^2) has r[a] = 2^n sum_x F(x) F(x ^ a),
    so |r[a]| = 4^n exactly for those a. Every partial sum of the butterfly is at
    most sum_s sums[s]^2 = 4^n <= 2^32 in magnitude, so int64 is exact. The a
    found form a subspace, and its ascending elements count in binary over its
    reduced row-echelon basis, so the elements at positions 1, 2, 4, ... are one.
    """
    r = fourier.butterfly(spec.sums * spec.sums)
    found = np.flatnonzero(np.abs(r) == 1 << (2 * spec.n))
    return [int(found[1 << k]) for k in range((found.size - 1).bit_length())]


def _orbit_minima(
    t: TruthTable, classes: tuple[tuple[int, ...], ...], spec: fourier.FourierSpectrum
) -> np.ndarray:
    """Ascending smallest inputs of the orbits under exchanges within classes and the translations.

    An exchange s that fixes f maps a translation a of f to the translation
    s(a), so every element of the group both generate is an exchange after a
    translation, and the smallest index of x's orbit is the minimum over the
    translations a of canonical(x ^ a), where canonical moves the ones of each
    class to its lowest-indexed members. Labels start at canonical(x) and fold
    in one basis vector at a time; after the last one, each label is that
    minimum, and an input is an orbit minimum exactly when it is its own label.
    """
    labels = idx = np.arange(t.size, dtype=np.int64)
    for c in classes:
        if len(c) > 1:  # a singleton class is already canonical
            mask = sum(1 << v for v in c)
            prefix = np.cumsum([0] + [1 << v for v in c], dtype=np.int64)
            labels = (labels & ~mask) | prefix[np.bitwise_count(labels & mask)]
    for a in _translation_basis(spec):
        labels = np.minimum(labels, labels[idx ^ a])
    return np.flatnonzero(labels == idx)


def _sensitive_masks(t: TruthTable, xs: np.ndarray) -> np.ndarray:
    """int64 array: entry j is the bitmask of coordinates sensitive at input xs[j]."""
    bits = t.bits()
    fx = bits[xs]
    masks = np.zeros(xs.size, dtype=np.int64)
    for i in range(t.n):
        masks |= (bits[xs ^ (1 << i)] != fx).astype(np.int64) << i
    return masks


@cache
def _subset_bits(m: int) -> np.ndarray:
    """Row j, column b: bit b of j, for every j < 2^m; int64, read-only."""
    bits = (np.arange(1 << m, dtype=np.int64)[:, None] >> np.arange(m)) & 1
    bits.flags.writeable = False
    return bits


def _spread_table(free_coords: tuple[int, ...]) -> np.ndarray:
    """All subsets of the given coordinates as masks, indexed compactly."""
    return _subset_bits(len(free_coords)) @ (np.int64(1) << np.array(free_coords, dtype=np.int64))


def _subcube_candidates(bits: np.ndarray, xs: np.ndarray, spread: np.ndarray) -> list[list[int]]:
    """Minimal-style sensitive blocks inside the insensitive coordinates, per input.

    All inputs in xs share one set of sensitive coordinates; spread lists the
    subsets of the others. A truly minimal sensitive block of size >= 2 cannot
    contain a sensitive coordinate (that singleton would be a sensitive proper
    subset), so only subsets of the insensitive coordinates need enumeration.
    Blocks kept here are sensitive with no sensitive single-removal subset: a
    superset of the truly minimal ones, so the packing optimum is unchanged.
    Each input's blocks ascend, as spread does.
    """
    # row j, column i: does flipping block spread[j] change f at input xs[i]
    sens = bits[spread[:, None] ^ xs[None, :]] != bits[xs][None, :]
    k, m = xs.size, len(spread).bit_length() - 1
    keep = sens.copy()
    for b in range(m):
        kview = keep.reshape(-1, 2, k << b)
        sview = sens.reshape(-1, 2, k << b)
        kview[:, 1, :] &= ~sview[:, 0, :]
    inputs, subsets = np.nonzero(keep.T)  # by input, subsets ascending; row 0 is never sensitive
    masks = spread[subsets].tolist()
    cuts = np.searchsorted(inputs, np.arange(k + 1)).tolist()
    return [masks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _capacity_bound(sizes: list[int], free: int, start: int = 0) -> int:
    """Largest m such that the m smallest of the ascending sizes[start:] fit in free variables."""
    fit = 0
    for j in range(start, len(sizes)):
        if sizes[j] > free:
            break
        free -= sizes[j]
        fit += 1
    return fit


def _pack_blocks(blocks: list[int], n: int) -> tuple[int, tuple[int, ...]]:
    """Exact maximum disjoint packing by branch and bound.

    Blocks are ordered by size; the bound at a node is the current count plus
    the capacity bound of the remaining block sizes in the free variables.
    The result depends only on the set of blocks, not on their order.
    """
    if not blocks:
        return 0, ()
    order = sorted(blocks, key=lambda b: (b.bit_count(), b))
    sizes = [b.bit_count() for b in order]  # ascending, so sizes[i:] feeds the capacity bound
    count = len(order)
    best_count = 0
    best_sel: tuple[int, ...] = ()
    chosen: list[int] = []

    def descend(i: int, used: int, free: int) -> None:
        nonlocal best_count, best_sel
        if len(chosen) > best_count:
            best_count = len(chosen)
            best_sel = tuple(chosen)
        if i >= count or len(chosen) + _capacity_bound(sizes, free, i) <= best_count:
            return
        for j in range(i, count):
            b = order[j]
            if b & used:
                continue
            if len(chosen) + 1 + _capacity_bound(sizes, free - sizes[j], j + 1) <= best_count:
                continue
            chosen.append(b)
            descend(j + 1, used | b, free - sizes[j])
            chosen.pop()

    descend(0, 0, n)
    return best_count, best_sel


def block_sensitivity(
    t: TruthTable, budget_seconds: float | None = None, spec: fourier.FourierSpectrum | None = None
) -> BlockSensitivityResult:
    """Exact block sensitivity: the most disjoint blocks that each flip f at one input.

    The witness is the smallest input index attaining the maximum. With a
    budget, the scan stops at the first input it finishes after the deadline
    and the result is flagged as a lower bound (exact=False) rather than
    silently reported as exact. Larger n than the cap is refused. spec,
    when given, is t's spectrum, which the translation search reads.
    """
    if t.n > BS_EXACT_MAX_VARS:
        raise CapacityError(f"exact block sensitivity is capped at n={BS_EXACT_MAX_VARS}")
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    bits = t.bits()
    n = t.n
    # bs_x is the same at every input of an orbit under exchanges of
    # interchangeable variables and the translations, so scanning each orbit's
    # smallest index alone keeps the value and the witness
    reps = _orbit_minima(t, symmetry_classes(t), fourier.wht(t) if spec is None else spec)
    rep_masks = _sensitive_masks(t, reps)
    # one sort: most sensitive coordinates first, the inputs sharing a mask
    # contiguous, indices ascending within each mask (lexsort is stable)
    by = np.lexsort((rep_masks, -np.bitwise_count(rep_masks).astype(np.int64)))
    order, coord_masks = reps[by], rep_masks[by]
    starts = np.flatnonzero(np.diff(coord_masks, prepend=-1)).tolist()
    # many inputs share the same candidate blocks; each distinct packing is solved once
    pack_cache: dict[tuple[tuple[int, ...], int], tuple[int, tuple[int, ...]]] = {}
    best = -1
    best_x = 0
    best_blocks: tuple[int, ...] = ()
    scanned = 0
    for lo, hi in zip(starts, starts[1:] + [order.size]):
        coord_mask = int(coord_masks[lo])
        free = tuple(i for i in range(n) if not (coord_mask >> i) & 1)
        free_count = len(free)
        s_count = n - free_count
        # the ceiling S + floor(free/2) = floor((n + S)/2) never grows along
        # the scan, so the first group that cannot reach the incumbent ends it
        ceiling = s_count + free_count // 2
        if ceiling < best:
            break
        spread = _spread_table(free)
        group = order[lo:hi]
        size = max(_BATCH_MIN_INPUTS, _BATCH_ELEMENTS >> free_count)
        for start in range(0, group.size, size):
            run = group[start : start + size]
            if ceiling == best:
                # a tie wins only at a smaller index; indices ascend, so cut the rest
                run = run[run < best_x]
                if not run.size:
                    break
            scanned += run.size
            for x, blocks in zip(run.tolist(), _subcube_candidates(bits, run, spread)):
                key = (tuple(blocks), free_count)
                packing = pack_cache.get(key)
                if packing is None:
                    sizes = sorted(b.bit_count() for b in blocks)
                    if (s_count + _capacity_bound(sizes, free_count), -x) < (best, -best_x):
                        continue
                    packing = _pack_blocks(blocks, free_count)
                    pack_cache[key] = packing
                packed, sel = packing
                if (s_count + packed, -x) > (best, -best_x):
                    best, best_x = s_count + packed, x
                    best_blocks = tuple(1 << i for i in range(n) if (coord_mask >> i) & 1) + sel
                if deadline is not None and time.monotonic() > deadline:
                    return BlockSensitivityResult(max(best, 0), False, best_x, best_blocks, scanned)
    return BlockSensitivityResult(max(best, 0), True, best_x, best_blocks, scanned)


def measure_report(
    t: TruthTable,
    spec: fourier.FourierSpectrum,
    include_block_sensitivity: bool = True,
    bs_budget_seconds: float | None = None,
) -> MeasureReport:
    """Influences, sensitivities and block sensitivity of t; spec is t's spectrum."""
    infl = influences(t)
    rho = sum(infl, Fraction(0)) / t.n
    ms = max_sensitivity(t)
    bs = None
    skipped = None
    if not include_block_sensitivity:
        skipped = "disabled"
    elif t.n > BS_EXACT_MAX_VARS:
        skipped = f"n={t.n} exceeds exact cap {BS_EXACT_MAX_VARS}"
    else:
        bs = block_sensitivity(t, bs_budget_seconds, spec)
    return MeasureReport(
        n=t.n,
        influences=infl,
        rho=rho,
        avg_sensitivity=rho * t.n,
        max_sensitivity=ms.value,
        max_sensitivity_witness=ms.witness,
        block_sensitivity=bs,
        bs_skipped_reason=skipped,
    )


__all__ = [
    "BS_EXACT_MAX_VARS",
    "BlockSensitivityResult",
    "MaxSensitivity",
    "MeasureReport",
    "avg_influence",
    "avg_sensitivity",
    "block_sensitivity",
    "influences",
    "max_sensitivity",
    "measure_report",
    "symmetry_classes",
]
