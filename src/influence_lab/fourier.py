"""Exact Walsh-Hadamard spectra of Boolean functions.

Coefficients are kept as integer correlation sums: for the sign view f of a
table, sums[s] = sum_x f(x) * (-1)^(s.x), so the actual coefficient is
sums[s] / 2^n. Keeping the integers exact makes the nonzero test, Parseval,
and every dyadic-rational identity downstream exact as well; division by 2^n
happens only at presentation time.

The transform reads the packed table, not an unpacked sign array. Each byte
holds 8 consecutive outputs, whose 3-variable transform is one row of a
256 x 8 seed table built once, at first use, by the butterfly itself; the
table's bytes gather their rows into a (2^(n-3), 8) array, and the remaining
n - 3 stages run on it with the 8-wide axis carried along. Tables with n < 3
fill only part of one byte and use the seed table of 2^n-entry transforms.
The stages run in int32, which is exact: a correlation sum over 2^n signs
has magnitude at most 2^n <= 2^20, at every stage. One cast to int64 at the
end keeps the spectrum's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .errors import ConsistencyError
from .truthtable import TruthTable, popcounts


@dataclass(frozen=True)
class FourierSpectrum:
    """All 2^n character coefficients of a sign-valued function, exactly."""

    n: int
    sums: np.ndarray  # int64, coefficient at mask s is sums[s] / 2^n

    def __post_init__(self):
        if self.sums.shape != (1 << self.n,):
            raise ValueError("spectrum length does not match variable count")

    @property
    def denominator(self) -> int:
        return 1 << self.n

    def coefficient(self, s: int) -> Fraction:
        return Fraction(int(self.sums[s]), self.denominator)

    def parseval_sum(self) -> Fraction:
        """sum_s coeff^2, exactly. Equals 1 for any +-1-valued source."""
        total = int(np.dot(self.sums, self.sums))
        return Fraction(total, self.denominator * self.denominator)

    def weight_profile(self) -> list[int]:
        """A_j = sum of squared integer sums over masks of popcount j.

        Computed once per spectrum; every call returns a fresh list.
        """
        return list(self._weight_profile)

    @cached_property
    def _weight_profile(self) -> tuple[int, ...]:
        # exact in int64: by Parseval the squares of a +-1 source sum to 4^n <= 2^40
        profile = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(profile, popcounts(self.n), self.sums * self.sums)
        return tuple(profile.tolist())


def _butterfly_in_place(out: np.ndarray) -> np.ndarray:
    """The transform of butterfly, overwriting out (C-contiguous); returns out.

    One half-size scratch holds each stage's first halves.
    """
    size = out.shape[0]
    scratch = np.empty((size // 2, *out.shape[1:]), dtype=out.dtype)
    h = 1
    while h < size:
        view = out.reshape(-1, 2, h, *out.shape[1:])
        a = scratch.reshape(view[:, 0].shape)
        np.copyto(a, view[:, 0])
        b = view[:, 1]
        view[:, 0] += b
        np.subtract(a, b, out=b)
        h *= 2
    return out


def butterfly(values: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Fast transform along axis 0, on a copy in the given dtype.

    out[s] = sum_x values[x] * (-1)^(s.x) for every mask s; any trailing axes
    are carried along, so a (2^n, k) stack transforms k vectors at once. The
    transform is its own inverse up to the factor 2^n.
    """
    return _butterfly_in_place(np.array(values, dtype=dtype, order="C"))


@cache
def _byte_seed(m: int) -> np.ndarray:
    """Row b: the transform of the signs of the 2^m bits of b (LSB first), int32, read-only."""
    rows = np.arange(1 << (1 << m))
    bits = (rows[None, :] >> np.arange(1 << m)[:, None]) & 1
    seed = np.ascontiguousarray(butterfly(1 - 2 * bits, np.int32).T)
    seed.flags.writeable = False
    return seed


def wht(t: TruthTable) -> FourierSpectrum:
    """Exact spectrum of the sign view, O(n 2^n) integer additions."""
    raw = np.frombuffer(t.packed.to_bytes(max(1, t.size >> 3), "little"), dtype=np.uint8)
    # row y, column s: the transform over the low min(n, 3) variables of the
    # outputs in byte y, at mask s; then the stages over y, so (y, s) is mask 8y + s
    low = _butterfly_in_place(_byte_seed(min(t.n, 3))[raw])
    sums = low.reshape(-1).astype(np.int64)
    sums.flags.writeable = False
    return FourierSpectrum(t.n, sums)


def inverse_wht(spec: FourierSpectrum) -> TruthTable:
    """Rebuild the table; errors if the spectrum is not that of a +-1 function."""
    values = butterfly(spec.sums)
    scale = spec.denominator
    plus = values == scale
    minus = values == -scale
    if not bool(np.all(plus | minus)):
        raise ConsistencyError("spectrum does not reconstruct to a +-1-valued function")
    return TruthTable.from_bit_array(minus.astype(np.uint8))  # sign -1 is output bit 1


def spectral_degree(spec: FourierSpectrum) -> int:
    """Max popcount over masks with a nonzero coefficient.

    That is the top level of nonzero weight in weight_profile, exactly: a
    level weight is a sum of squares, so it is 0 only when every term is.
    """
    return max((j for j, a in enumerate(spec.weight_profile()) if a), default=0)


def _entries(spec: FourierSpectrum, masks: np.ndarray) -> list[dict]:
    den = spec.denominator
    return [
        {"s": s, "coeff_num": c, "coeff_den": den}
        for s, c in zip(masks.tolist(), spec.sums[masks].tolist())
    ]


def nonzero_entries(spec: FourierSpectrum) -> list[dict]:
    """Export form: {"s", "coeff_num", "coeff_den"} for nonzero masks only."""
    return _entries(spec, np.flatnonzero(spec.sums))


def top_entries(spec: FourierSpectrum, count: int) -> list[dict]:
    """The count largest |coefficients| in export form; ties go to the smaller mask."""
    nonzero = int(np.count_nonzero(spec.sums))
    # measured at n = 16..20: with more than half the masks nonzero, partitioning
    # all of |sums| is 2-3x faster and smaller than gathering the nonzeros first;
    # with a quarter or less it is several times slower, as the zeros slow the partition
    if 0 < count < nonzero and 2 * nonzero > spec.sums.size:
        return _top_entries_dense(spec, count)
    masks = np.flatnonzero(spec.sums)
    magnitudes = np.abs(spec.sums[masks])
    if 0 < count < masks.size:
        # sort only the masks at or above the count-th largest magnitude, so
        # every mask tied at the cut still competes on its index
        kth = masks.size - count
        keep = magnitudes >= np.partition(magnitudes, kth)[kth]
        masks, magnitudes = masks[keep], magnitudes[keep]
    order = np.lexsort((masks, -magnitudes))
    return _entries(spec, masks[order[:count]])


def _top_entries_dense(spec: FourierSpectrum, count: int) -> list[dict]:
    """top_entries with more than count nonzeros, partitioning |sums| in one full-size buffer."""
    magnitudes = np.abs(spec.sums)
    kth = magnitudes.size - count
    magnitudes.partition(kth)
    # the count-th largest magnitude; nonzero, since more than count masks are
    cut = magnitudes[kth]
    np.abs(spec.sums, out=magnitudes)
    masks = np.flatnonzero(magnitudes >= cut)
    order = np.lexsort((masks, -magnitudes[masks]))
    return _entries(spec, masks[order[:count]])


__all__ = [
    "FourierSpectrum",
    "butterfly",
    "inverse_wht",
    "nonzero_entries",
    "spectral_degree",
    "top_entries",
    "wht",
]
