"""Influence, sensitivity, and exact block sensitivity.

All probability-flavored quantities are returned as exact dyadic rationals
(Fraction with a 2^n denominator) so that identities against the spectral
route can be asserted with equality, not tolerance.

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
of x, so bs is the same across an orbit, and the orbit's smallest index, whose
ones fill the lowest-indexed members of each class, stands for it. The minima
are built from the classes, and sensitive coordinates are found at them alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InputError
from .truthtable import TruthTable

# with no interchangeable pair of variables the scan visits all 2^16 inputs: about 1 s for
# iterate(paper_f, 2) (bs 9), and longer when bs is far below n/2 so the ceiling never prunes
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
    # the rest of the inputs share their orbit's bs (at most prod(|C| + 1) over symmetry_classes)
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


def influence(t: TruthTable, i: int) -> Fraction:
    """Probability over uniform x that flipping bit i changes f(x)."""
    if not 0 <= i < t.n:
        raise InputError(f"variable index {i} out of range for n={t.n}")
    view = t.bits().reshape(-1, 2, 1 << i)
    pairs = int(np.count_nonzero(view[:, 0, :] != view[:, 1, :]))
    return Fraction(2 * pairs, t.size)


def influences(t: TruthTable) -> tuple[Fraction, ...]:
    return tuple(influence(t, i) for i in range(t.n))


def avg_influence(t: TruthTable) -> Fraction:
    return sum(influences(t), Fraction(0)) / t.n


def avg_sensitivity(t: TruthTable) -> Fraction:
    """Average over x of the sensitivity at x; equals avg_influence * n."""
    return sum(influences(t), Fraction(0))


def sensitivity_profile(t: TruthTable) -> np.ndarray:
    """uint8 array: entry x is the number of sensitive coordinates at x, at most n <= 20."""
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
    idx = t.index_of(x)
    fx = t.bit_at(idx)
    return sum(1 for i in range(t.n) if t.bit_at(idx ^ (1 << i)) != fx)


def max_sensitivity(t: TruthTable) -> MaxSensitivity:
    profile = sensitivity_profile(t)
    witness = int(np.argmax(profile))
    return MaxSensitivity(int(profile[witness]), witness)


def _pair_view(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """A full-table array indexed as [higher bits, x_j, bits between, x_i, lower bits], i < j."""
    return a.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)


def symmetry_classes(t: TruthTable) -> tuple[tuple[int, ...], ...]:
    """The variables partitioned by i ~ j: exchanging x_i and x_j leaves f unchanged.

    ~ is an equivalence (if i ~ j and j ~ k, the transposition (i k) is (i j)
    conjugated by (j k)), so a new variable is compared only with the first
    member of each class, and only of a class with its own influence, which
    interchangeable variables share. Classes and their members are ascending.
    """
    bits = t.bits()
    infl = influences(t)
    classes: list[list[int]] = []
    for j in range(t.n):
        for c in classes:
            if infl[c[0]] == infl[j]:
                view = _pair_view(bits, c[0], j)
                if np.array_equal(view[:, 0, :, 1, :], view[:, 1, :, 0, :]):
                    c.append(j)
                    break
        else:
            classes.append([j])
    return tuple(tuple(c) for c in classes)


def _orbit_minima(classes: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Ascending inputs whose ones fill, in every class, its lowest-indexed members.

    Those are the smallest indices of the orbits under exchanges within classes,
    one per orbit: the OR of one prefix of each class, prod(|C| + 1) of them.
    """
    minima = np.zeros(1, dtype=np.int64)
    for c in classes:
        prefixes = np.cumsum([0] + [1 << v for v in c], dtype=np.int64)
        minima = (minima[:, None] | prefixes[None, :]).ravel()
    return np.sort(minima)


def _sensitive_masks(t: TruthTable, xs: np.ndarray) -> np.ndarray:
    """int64 array: entry j is the bitmask of coordinates sensitive at input xs[j]."""
    bits = t.bits()
    fx = bits[xs]
    masks = np.zeros(xs.size, dtype=np.int64)
    for i in range(t.n):
        masks |= (bits[xs ^ (1 << i)] != fx).astype(np.int64) << i
    return masks


def _spread_table(free_coords: tuple[int, ...]) -> np.ndarray:
    """All subsets of the given coordinates as masks, indexed compactly."""
    m = len(free_coords)
    sub = np.arange(1 << m, dtype=np.int64)
    spread = np.zeros(1 << m, dtype=np.int64)
    for b, coord in enumerate(free_coords):
        spread |= ((sub >> b) & 1) << coord
    return spread


def _subcube_candidates(bits: np.ndarray, xs: np.ndarray, spread: np.ndarray) -> list[list[int]]:
    """Minimal-style sensitive blocks inside the insensitive coordinates, per input.

    All inputs in xs share one set of sensitive coordinates; spread lists the
    subsets of the others. A truly minimal sensitive block of size >= 2 cannot
    contain a sensitive coordinate (that singleton would be a sensitive proper
    subset), so only subsets of the insensitive coordinates need enumeration.
    Blocks kept here are sensitive with no sensitive single-removal subset: a
    superset of the truly minimal ones, so the packing optimum is unchanged.
    """
    blocks: list[list[int]] = [[] for _ in xs]
    # an input has a sensitive block iff f is not constant on its subcube,
    # which inputs agreeing outside the free coordinates share
    bases, which = np.unique(xs & ~spread[-1], return_inverse=True)
    cube = bits[bases[:, None] ^ spread[None, :]]
    live = np.flatnonzero((cube.min(axis=1) != cube.max(axis=1))[which])
    if not live.size:
        return blocks
    xs_live = xs[live]
    # row j, column i: does flipping block spread[j] change f at the i-th live input
    sens = bits[spread[:, None] ^ xs_live[None, :]] != bits[xs_live][None, :]
    k, m = len(live), len(spread).bit_length() - 1
    keep = sens.copy()
    for b in range(m):
        kview = keep.reshape(-1, 2, k << b)
        sview = sens.reshape(-1, 2, k << b)
        kview[:, 1, :] &= ~sview[:, 0, :]
    subsets, inputs = np.nonzero(keep)  # row 0 is the empty block, never sensitive
    by_input = np.argsort(inputs, kind="stable")
    masks = spread[subsets[by_input]].tolist()
    cuts = np.searchsorted(inputs[by_input], np.arange(k + 1)).tolist()
    for i, lo, hi in zip(live.tolist(), cuts, cuts[1:]):
        blocks[i] = masks[lo:hi]
    return blocks


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


def _singleton_masks(coord_mask: int, n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n) if (coord_mask >> i) & 1)


def block_sensitivity_at(t: TruthTable, x) -> tuple[int, tuple[int, ...]]:
    """Exact max number of disjoint sensitive blocks at x, with a witness family.

    Every sensitive coordinate joins the packing as a singleton; the branch
    and bound only has to pack the multi-coordinate blocks living in the
    remaining coordinates.
    """
    if t.n > BS_EXACT_MAX_VARS:
        raise CapacityError(f"exact block sensitivity is capped at n={BS_EXACT_MAX_VARS}")
    idx = t.index_of(x)
    bits = t.bits()
    coord_mask = sum(1 << i for i in range(t.n) if bits[idx ^ (1 << i)] != bits[idx])
    singles = _singleton_masks(coord_mask, t.n)
    free = tuple(i for i in range(t.n) if not (coord_mask >> i) & 1)
    [blocks] = _subcube_candidates(bits, np.array([idx]), _spread_table(free))
    packed, sel = _pack_blocks(blocks, len(free))
    return len(singles) + packed, singles + sel


def block_sensitivity(t: TruthTable, budget_seconds: float | None = None) -> BlockSensitivityResult:
    """Exact block sensitivity: max over all inputs of block_sensitivity_at.

    The witness is the smallest input index attaining the maximum. With a
    budget, the scan stops at the first input it finishes after the deadline
    and the result is flagged as a lower bound (exact=False) rather than
    silently reported as exact. Larger n than the cap is refused.
    """
    if t.n > BS_EXACT_MAX_VARS:
        raise CapacityError(f"exact block sensitivity is capped at n={BS_EXACT_MAX_VARS}")
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    bits = t.bits()
    n = t.n
    # bs_x is the same at every input of an orbit under exchanges of
    # interchangeable variables, and an orbit's minimum is its smallest index,
    # so scanning the minima alone keeps the value and the witness
    reps = _orbit_minima(symmetry_classes(t))
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
                key = (tuple(sorted(blocks)), free_count)
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
                    best_blocks = _singleton_masks(coord_mask, n) + sel
                if deadline is not None and time.monotonic() > deadline:
                    return BlockSensitivityResult(max(best, 0), False, best_x, best_blocks, scanned)
    return BlockSensitivityResult(max(best, 0), True, best_x, best_blocks, scanned)


def measure_report(
    t: TruthTable,
    include_block_sensitivity: bool = True,
    bs_budget_seconds: float | None = None,
) -> MeasureReport:
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
        bs = block_sensitivity(t, bs_budget_seconds)
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
    "block_sensitivity_at",
    "influence",
    "influences",
    "max_sensitivity",
    "measure_report",
    "sensitivity_at",
    "sensitivity_profile",
    "symmetry_classes",
]
