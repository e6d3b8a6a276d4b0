"""Truth tables of total Boolean functions on up to 20 variables.

A function f on n variables is stored bit-packed: bit i of ``packed`` is
f at the input whose assignment x satisfies i = sum(x_j * 2^j), with x_0 the
least significant position. Every module in the package uses this LSB-first
index convention, including spectrum masks.

The sign view maps output bit 0 to +1 and bit 1 to -1. All complexity
measures computed downstream are invariant under flipping that choice, which
the test suite asserts by complementing tables.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InputError

MAX_VARS = 20  # full-domain scans stay under 2^20 table entries
_MASK64 = (1 << 64) - 1


def popcounts(n: int) -> np.ndarray:
    """Vector of popcount(s) for every mask s < 2^n (uint8: a count is at most n <= 20).

    Unsigned: cast before negating or subtracting, or the result wraps.
    """
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32))


def _check_vars(n: int) -> None:
    """Below 1 is out-of-range input; above MAX_VARS is a size cap."""
    if not 1 <= n <= MAX_VARS:
        error = InputError if n < 1 else CapacityError
        raise error(f"variable count must be in 1..{MAX_VARS}, got {n}")


@dataclass(frozen=True)
class TruthTable:
    """Complete value table of a Boolean function, bit-packed LSB-first."""

    n: int
    packed: int

    def __post_init__(self):
        _check_vars(self.n)
        if not 0 <= self.packed < (1 << self.size):
            raise InputError("packed bits out of range for table size")

    @property
    def size(self) -> int:
        return 1 << self.n

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "TruthTable":
        seq = list(bits)
        for b in seq:
            if b not in (0, 1):
                raise InputError(f"table entry {b!r} is not a bit")
        return cls.from_bit_array(np.array(seq, dtype=np.uint8))

    @classmethod
    def from_bit_array(cls, arr: np.ndarray) -> "TruthTable":
        """Build from a dense 0/1 numpy array (fast path for 2^n-scale tables)."""
        n = (arr.shape[0] - 1).bit_length()
        if arr.shape[0] != 1 << n or arr.shape[0] < 2:
            raise InputError(f"bit array length {arr.shape[0]} is not a power of two >= 2")
        raw = np.packbits(arr.astype(np.uint8) & 1, bitorder="little").tobytes()
        return cls(n, int.from_bytes(raw, "little"))

    def index_of(self, x) -> int:
        """Row index for an assignment given as an int index or a bit sequence."""
        if isinstance(x, (int, np.integer)):
            idx = int(x)
            if not 0 <= idx < self.size:
                raise InputError(f"input index {idx} out of range for n={self.n}")
            return idx
        seq = list(x)
        if len(seq) != self.n:
            raise InputError(f"assignment has {len(seq)} bits, expected {self.n}")
        idx = 0
        for i, b in enumerate(seq):
            if b not in (0, 1):
                raise InputError(f"assignment entry {b!r} is not a bit")
            idx |= b << i
        return idx

    def bit_at(self, x) -> int:
        """f(x) in {0, 1}."""
        return (self.packed >> self.index_of(x)) & 1

    def sign_at(self, x) -> int:
        """f(x) in {-1, +1}: 1 - 2 * bit_at(x)."""
        return 1 - 2 * self.bit_at(x)

    def bits(self) -> np.ndarray:
        """Dense uint8 array of all 2^n output bits, read-only.

        Unpacked once per table and kept on the instance.
        """
        return self._bits

    @cached_property
    def _bits(self) -> np.ndarray:
        nbytes = (self.size + 7) // 8
        raw = np.frombuffer(self.packed.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[: self.size]
        bits.flags.writeable = False
        return bits

    def signs(self) -> np.ndarray:
        """Dense int64 array of the sign view, 1 - 2*bit."""
        return 1 - 2 * self.bits().astype(np.int64)

    def __str__(self):
        return f"TruthTable(n={self.n}, bits=0x{self.packed:x})"


def complement(t: TruthTable) -> TruthTable:
    """Flip every output bit. All measures downstream are invariant under this."""
    return TruthTable(t.n, t.packed ^ ((1 << t.size) - 1))


def permute_variables(t: TruthTable, perm: Sequence[int]) -> TruthTable:
    """Relabel inputs: result(x_0..x_{n-1}) = t(x_{perm[0]}, .., x_{perm[n-1]})."""
    if sorted(perm) != list(range(t.n)):
        raise InputError("perm must be a permutation of 0..n-1")
    idx = np.arange(t.size, dtype=np.uint32)
    src = np.zeros(t.size, dtype=np.uint32)
    for i, p_i in enumerate(perm):
        src |= ((idx >> int(p_i)) & 1) << i
    return TruthTable.from_bit_array(t.bits()[src])


def compose(outer: TruthTable, inner: TruthTable) -> TruthTable:
    """Plug disjoint copies of ``inner`` into every input of ``outer``.

    Block j of the result's variables is the contiguous slice
    [j*inner.n, (j+1)*inner.n); the result has outer.n * inner.n variables.
    """
    n = outer.n * inner.n
    if n > MAX_VARS:
        raise CapacityError(f"composition needs {n} variables, cap is {MAX_VARS}")
    inner_bits = inner.bits()
    # n <= MAX_VARS, and outer_idx holds outer.n <= MAX_VARS bits: uint32 fits both
    idx = np.arange(1 << n, dtype=np.uint32)
    outer_idx = np.zeros(1 << n, dtype=np.uint32)
    block_mask = inner.size - 1
    for j in range(outer.n):
        block = (idx >> (j * inner.n)) & block_mask
        outer_idx |= np.left_shift(inner_bits[block], j, dtype=np.uint32)
    return TruthTable.from_bit_array(outer.bits()[outer_idx])


def iterate(t: TruthTable, k: int) -> TruthTable:
    """k-fold self-composition: result_1 = t, result_k = compose(t, result_{k-1})."""
    if k < 1:
        raise InputError(f"iteration count must be positive, got {k}")
    if t.n**k > MAX_VARS:
        raise CapacityError(f"iterating a {t.n}-variable function {k} times needs {t.n ** k} variables")
    result = t
    for _ in range(k - 1):
        result = compose(t, result)
    return result


def _paper_f_bits() -> np.ndarray:
    # x0*(x1 - x2)^2 + (1 - x0)*(x2 - x3)^2 on bits, for all 16 inputs at once
    idx = np.arange(16)
    x0, x1, x2, x3 = ((idx >> i) & 1 for i in range(4))
    return np.where(x0 == 1, x1 ^ x2, x2 ^ x3)


def builtin(name: str, n: int) -> TruthTable:
    """Named function families: parity, and, or, majority (n odd), paper_f (n=4)."""
    _check_vars(n)
    if name in ("majority", "maj"):
        if n % 2 == 0:
            raise InputError("majority needs an odd variable count")
        return TruthTable.from_bit_array(2 * popcounts(n) > n)
    if name == "parity":
        return TruthTable.from_bit_array(popcounts(n) & 1)
    if name == "and":
        return TruthTable(n, 1 << ((1 << n) - 1))
    if name == "or":
        return TruthTable(n, ((1 << (1 << n)) - 1) & ~1)
    if name == "paper_f":
        if n != 4:
            raise InputError("paper_f is a fixed 4-variable function")
        return TruthTable.from_bit_array(_paper_f_bits())
    raise InputError(f"unknown builtin {name!r}")


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def random_table(n: int, seed: int) -> TruthTable:
    """2^n i.i.d. uniform bits from a splitmix64 stream.

    Pure 64-bit integer mixing, so identical (n, seed) gives identical tables
    on every platform and run.
    """
    _check_vars(n)
    state = seed & _MASK64
    nbits = 1 << n
    chunks = bytearray()
    for _ in range((nbits + 63) // 64):
        state, word = _splitmix64(state)
        chunks += word.to_bytes(8, "little")
    packed = int.from_bytes(chunks, "little") & ((1 << nbits) - 1)
    return TruthTable(n, packed)


# On-disk format: {"version": 1, "n": <int>, "bits": "<hex>"} where the hex
# string is the packed LSB-first bit integer, zero-padded to ceil(2^n / 4)
# digits. Unused high bits of the top nibble must be zero.


def _hex_width(n: int) -> int:
    return ((1 << n) + 3) // 4


def write_table(t: TruthTable, path) -> None:
    doc = {"version": 1, "n": t.n, "bits": format(t.packed, "x").zfill(_hex_width(t.n))}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def read_table(path) -> TruthTable:
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read table file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise InputError(f"table file {path} missing version 1 marker")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"table file {path} has bad variable count {n!r}")
    _check_vars(n)
    hexbits = doc.get("bits")
    if not isinstance(hexbits, str) or len(hexbits) != _hex_width(n):
        raise InputError(
            f"table file {path}: bits field must be {_hex_width(n)} hex digits for n={n}"
        )
    # int(s, 16) alone would also take a 0x prefix, a sign, _ separators, spaces and non-ASCII digits
    if not re.fullmatch("[0-9a-fA-F]*", hexbits):
        raise InputError(f"table file {path}: bits field has non-hex characters")
    packed = int(hexbits, 16)
    if packed >= 1 << (1 << n):
        raise InputError(f"table file {path}: unused bits of the last nibble must be zero")
    return TruthTable(n, packed)


def table_id(t: TruthTable) -> str:
    """Short stable identifier used in reports and counterexamples."""
    return f"n{t.n}:{format(t.packed, 'x').zfill(_hex_width(t.n))}"


__all__ = [
    "TruthTable",
    "builtin",
    "complement",
    "compose",
    "iterate",
    "permute_variables",
    "random_table",
    "read_table",
    "table_id",
    "write_table",
]
