"""The benchmark's own routes to every input and expected answer.

Nothing here imports the program. Tables, spectra, influences and
sensitivities are recomputed with numpy so that the answer checks share no
code with what they check. Index convention, as in the program's table
format: bit x of a table is f at the input whose bit j is x_j.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def random_table(n: int, seed: int) -> np.ndarray:
    """Bits of the toolkit's ``random_table(n, seed)``: a splitmix64 stream.

    Word i mixes the state seed + (i + 1) * golden (mod 2^64); the words are
    laid out little-endian, bit 0 first.
    """
    words = ((1 << n) + 63) // 64
    steps = np.arange(1, words + 1, dtype=np.uint64)
    z = np.uint64(seed % (1 << 64)) + steps * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    raw = z.astype("<u8").view(np.uint8)
    return np.unpackbits(raw, bitorder="little")[: 1 << n]


def popcounts(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)


def variables(bits: np.ndarray) -> int:
    return int(bits.shape[0]).bit_length() - 1


def majority(n: int) -> np.ndarray:
    return (2 * popcounts(n) > n).astype(np.uint8)


def parity(n: int) -> np.ndarray:
    return (popcounts(n) & 1).astype(np.uint8)


def paper_f() -> np.ndarray:
    """x0 ? (x1 xor x2) : (x2 xor x3), the four-variable function of the paper."""
    x = np.arange(16)
    x0, x1, x2, x3 = (x >> 0) & 1, (x >> 1) & 1, (x >> 2) & 1, (x >> 3) & 1
    return np.where(x0 == 1, x1 ^ x2, x2 ^ x3).astype(np.uint8)


def compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """outer applied to disjoint copies of inner; block j holds variables j*m..j*m+m-1."""
    k, m = variables(outer), variables(inner)
    x = np.arange(1 << (k * m), dtype=np.int64)
    outer_index = np.zeros_like(x)
    for j in range(k):
        outer_index |= inner[(x >> (j * m)) & ((1 << m) - 1)].astype(np.int64) << j
    return outer[outer_index]


def relabel(bits: np.ndarray, perm, complement: bool) -> np.ndarray:
    """g(x) = f(x_perm[0], .., x_perm[n-1]), output flipped when asked.

    Block sensitivity, the multiset of influences, the weight profile and
    every LP minimax error are invariant under both operations.
    """
    x = np.arange(bits.shape[0], dtype=np.int64)
    source = np.zeros_like(x)
    for i, p in enumerate(perm):
        source |= ((x >> int(p)) & 1) << i
    out = bits[source]
    return out ^ 1 if complement else out


def table_document(bits: np.ndarray) -> dict:
    """The toolkit's table-file format: packed LSB-first bits as hex."""
    n = variables(bits)
    packed = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    return {"version": 1, "n": n, "bits": format(packed, "x").zfill(((1 << n) + 3) // 4)}


def write_table(path, bits: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(table_document(bits), fh, sort_keys=True)
        fh.write("\n")


def transform(values: np.ndarray) -> np.ndarray:
    """out[s] = sum_x values[x] * (-1)^popcount(s & x), in float64."""
    out = np.array(values, dtype=np.float64)
    size = out.shape[0]
    h = 1
    while h < size:
        view = out.reshape(-1, 2, h)
        a = view[:, 0, :].copy()
        view[:, 0, :] += view[:, 1, :]
        view[:, 1, :] = a - view[:, 1, :]
        h *= 2
    return out


def spectrum(bits: np.ndarray) -> np.ndarray:
    """Integer correlation sums of the sign view; exact in float64 up to n = 20."""
    return transform(1.0 - 2.0 * bits)


def degree(sums: np.ndarray) -> int:
    nonzero = sums != 0
    return int(popcounts(variables(sums))[nonzero].max()) if nonzero.any() else 0


def influences(bits: np.ndarray) -> list[Fraction]:
    """Pr_x[f(x) != f(x xor e_i)] by counting flips, for every i."""
    n = variables(bits)
    x = np.arange(bits.shape[0])
    return [
        Fraction(int(np.count_nonzero(bits != bits[x ^ (1 << i)])), bits.shape[0])
        for i in range(n)
    ]


def max_sensitivity(bits: np.ndarray) -> int:
    n = variables(bits)
    x = np.arange(bits.shape[0])
    count = np.zeros(bits.shape[0], dtype=np.int64)
    for i in range(n):
        count += bits != bits[x ^ (1 << i)]
    return int(count.max())
