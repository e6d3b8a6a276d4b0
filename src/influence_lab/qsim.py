"""Query-model simulator tracked in the Fourier picture.

A T-query black-box algorithm, run against every oracle x at once, is a map
phi(x) living in the register space. Written over the character basis it is
phi(x) = sum_s coeff_s * (-1)^(s.x) where each coeff_s is a vector, and only
masks of weight <= T appear. This module evolves those coefficients
directly, held as two arrays: the masks in strictly ascending order, and a
(masks x register dimension) matrix whose row j is the coefficient at mask j.

  - a Unitary (a dense oracle-independent step) acts on every coefficient
    row alike, one matrix product for all of them;
  - a Permutation (a classical register move) only relabels basis states,
    so it is one column scatter of the coefficient rows;
  - a Query conjugates the answer coordinate into the Hadamard basis, leaves
    the answer-plus component where it is, and moves the answer-minus
    component at index i from mask s to mask s XOR e_i (phase kickback is
    mask transport in this picture).

Register layout: an index register with one basis state per oracle bit, a
2-dimensional answer register, and a work register of dimension W, ordered
index-major then answer then work. The computational-basis query gate is
|i, a, w> -> |i, a XOR x_i, w>.

The characters (-1)^(s.x) are real, so when every step is real every
coefficient row is a real vector. The rows therefore start in float64, and
the first Unitary with a complex matrix casts them to complex128; every
function works in the dtype it finds in state.coeffs.

Over all oracles at once, phi is one inverse Walsh-Hadamard transform of the
coefficient rows along the mask axis: oracle_states gives every phi(x)
that way, and the acceptance profile and the gap check read from it.

reconstruct (one oracle, summed mask by mask) and simulate_direct (one
oracle, plain computational basis) are the per-oracle references: the verify
suite and the tests check the batched states against both for every oracle.
The pair-enumeration references for the displacement statistic and the gap
check live in oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import _require_odd
from .errors import CapacityError, ConsistencyError, InputError
from .fourier import _butterfly_in_place
from .truthtable import TruthTable

NORM_TOL = 1e-9
_PRUNE_SQ = 1e-24  # squared-norm floor; drops exact-zero transport residue
_SQRT2 = math.sqrt(2.0)
# numpy divides a complex array by a real scalar as a * (1 / c), so scaling by
# this constant gives the same bits in float64 and in complex128
_INV_SQRT2 = 1.0 / _SQRT2

SERIAL_READ_MAX_VARS = 6  # work register holds all n bits read so far
GAP_CHECK_MAX_VARS = 5  # the scan indexes all 2^n (2^n - 1) / 2 oracle pairs at once
_BLOCK_BYTES = 64 << 20  # cap on one (2^n x columns) block of oracle states, in the state's dtype


@dataclass(frozen=True)
class RegisterLayout:
    n_index: int
    work_dim: int = 1

    def __post_init__(self):
        if self.n_index < 1 or self.work_dim < 1:
            raise InputError("layout needs at least one index state and work dimension 1")

    @property
    def dim(self) -> int:
        return self.n_index * 2 * self.work_dim

    def basis_index(self, i: int, a: int, w: int) -> int:
        if not (0 <= i < self.n_index and a in (0, 1) and 0 <= w < self.work_dim):
            raise InputError(f"basis label ({i},{a},{w}) outside layout")
        return (i * 2 + a) * self.work_dim + w


@dataclass(frozen=True)
class Unitary:
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("unitary must be a square matrix")
        defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if defect > NORM_TOL:
            raise InputError(f"matrix is not unitary (defect {defect:.3e})")


@dataclass(frozen=True)
class Permutation:
    """Classical step: basis state b goes to target[b]."""

    target: np.ndarray

    def __post_init__(self):
        t = self.target
        if t.ndim != 1 or t.dtype.kind not in "iu" or not np.array_equal(np.sort(t), np.arange(t.size)):
            raise InputError("permutation must be a bijection of range(dim)")


class Query:
    """Marker step: one oracle call."""

    def __repr__(self):
        return "Query()"


QUERY = Query()


@dataclass(frozen=True)
class Algorithm:
    layout: RegisterLayout
    steps: tuple
    accept: frozenset  # basis indices whose measurement means output 1

    def __post_init__(self):
        for s in self.steps:
            if isinstance(s, Unitary):
                if s.matrix.shape != (self.layout.dim, self.layout.dim):
                    raise InputError("unitary dimension does not match layout")
            elif isinstance(s, Permutation):
                if s.target.size != self.layout.dim:
                    raise InputError("permutation dimension does not match layout")
            elif not isinstance(s, Query):
                raise InputError(f"unknown step {s!r}")

    @property
    def queries(self) -> int:
        return sum(isinstance(s, Query) for s in self.steps)


class FourierState:
    """Coefficient row j of coeffs sits at masks[j]; masks ascend strictly.

    Also carries the query tally and the support size after every step.
    """

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self.masks = np.zeros(0, dtype=np.int64)
        self.coeffs = np.zeros((0, layout.dim))
        self.queries_applied = 0
        self.support_history: list[int] = []

    def norm_sq(self) -> float:
        return float(_row_norms_sq(self.coeffs).sum())

    def max_weight(self) -> int:
        return int(np.bitwise_count(self.masks).max(initial=0))


def _row_norms_sq(rows: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(rows):
        return np.sum(rows.real**2 + rows.imag**2, axis=1)
    return np.sum(rows**2, axis=1)


def initial_state(layout: RegisterLayout) -> FourierState:
    state = FourierState(layout)
    state.masks = np.zeros(1, dtype=np.int64)
    state.coeffs = np.zeros((1, layout.dim))
    state.coeffs[0, 0] = 1.0
    return state


def apply_unitary(state: FourierState, u: Unitary | Permutation) -> FourierState:
    """Coefficient-wise action, one GEMM over the coefficient rows.

    The support set never changes. Real rows and a real matrix take one real
    product; complex rows and a real matrix take one real product each for
    the real and imaginary parts; a complex matrix takes one complex product,
    casting real rows to complex128 first. A Permutation moves columns and
    does no arithmetic.
    """
    if isinstance(u, Permutation):
        if u.target.size != state.layout.dim:
            raise InputError("permutation dimension does not match layout")
        out = np.empty_like(state.coeffs)
        out[:, u.target] = state.coeffs
        state.coeffs = out
        return state
    if u.matrix.shape != (state.layout.dim, state.layout.dim):
        raise InputError("unitary dimension does not match layout")
    mt = u.matrix.T
    if np.iscomplexobj(mt) or not np.iscomplexobj(state.coeffs):
        state.coeffs = state.coeffs @ mt
    else:
        out = np.empty_like(state.coeffs)
        out.real = np.ascontiguousarray(state.coeffs.real) @ mt
        out.imag = np.ascontiguousarray(state.coeffs.imag) @ mt
        state.coeffs = out
    return state


def apply_query(state: FourierState) -> FourierState:
    """One oracle call: mask transport of the answer-minus components."""
    n, w = state.layout.n_index, state.layout.work_dim
    k = state.masks.size
    c = state.coeffs.reshape(k, n, 2, w)
    moved = state.masks[:, None] ^ (1 << np.arange(n, dtype=np.int64))  # s XOR e_i
    masks, slot = np.unique(np.concatenate([state.masks, moved.ravel()]), return_inverse=True)
    # split[j] is the coefficient at masks[j] in the answer Hadamard basis;
    # masks are unique, so each of its slots receives at most one term
    split = np.zeros((masks.size, n, 2, w), dtype=state.coeffs.dtype)
    split[:, :, 0][slot[:k]] = (c[:, :, 0] + c[:, :, 1]) * _INV_SQRT2
    split[:, :, 1][slot[k:].reshape(k, n), np.arange(n)] = (c[:, :, 0] - c[:, :, 1]) * _INV_SQRT2
    out = np.empty_like(split)
    out[:, :, 0] = (split[:, :, 0] + split[:, :, 1]) * _INV_SQRT2
    out[:, :, 1] = (split[:, :, 0] - split[:, :, 1]) * _INV_SQRT2
    out = out.reshape(masks.size, state.layout.dim)
    keep = _row_norms_sq(out) > _PRUNE_SQ
    state.masks = masks[keep]
    state.coeffs = out[keep]
    state.queries_applied += 1
    return state


def reconstruct(state: FourierState, x: int) -> np.ndarray:
    """The register-space state for oracle x: sum_s (-1)^(s.x) coeff_s."""
    total = np.zeros(state.layout.dim, dtype=np.complex128)
    for s, v in zip(state.masks.tolist(), state.coeffs):
        if bin(s & x).count("1") & 1:
            total -= v
        else:
            total += v
    return total


def _check_invariants(state: FourierState) -> None:
    if abs(state.norm_sq() - 1.0) > NORM_TOL:
        raise ConsistencyError(f"state norm drifted to {state.norm_sq()}")
    if state.max_weight() > state.queries_applied:
        raise ConsistencyError(
            f"support weight {state.max_weight()} exceeds query count {state.queries_applied}"
        )


def run(alg: Algorithm) -> FourierState:
    """Execute all steps; support-weight and norm invariants hold after each."""
    state = initial_state(alg.layout)
    state.support_history.append(state.masks.size)
    for step in alg.steps:
        if isinstance(step, Query):
            apply_query(state)
        else:
            apply_unitary(state, step)
        _check_invariants(state)
        state.support_history.append(state.masks.size)
    return state


def simulate_direct(alg: Algorithm, x: int) -> np.ndarray:
    """Per-oracle reference simulation in the plain computational basis."""
    layout = alg.layout
    i, a, w = _labels(layout)
    query = _relabel(layout, i, a ^ ((x >> i) & 1), w)  # |i, a, w> -> |i, a XOR x_i, w>
    v = np.zeros(layout.dim, dtype=np.complex128)
    v[0] = 1.0
    for step in alg.steps:
        if isinstance(step, Query):
            step = query
        if isinstance(step, Permutation):
            out = np.empty_like(v)
            out[step.target] = v
            v = out
        else:
            v = step.matrix @ v
    return v


def _labels(layout: RegisterLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, answer, work) label arrays of every basis index, in basis order."""
    b = np.arange(layout.dim, dtype=np.int64)
    w = layout.work_dim
    return b // (2 * w), (b // w) % 2, b % w


def _relabel(layout: RegisterLayout, i: np.ndarray, a: np.ndarray, w: np.ndarray) -> Permutation:
    """The step sending basis state b to the state labelled (i[b], a[b], w[b])."""
    return Permutation((i * 2 + a) * layout.work_dim + w)


class ErrorProfile(NamedTuple):
    per_oracle: np.ndarray  # error probability against f, indexed by oracle
    worst: float


def oracle_states(state: FourierState, columns=None) -> np.ndarray:
    """phi(x) for every oracle x at once: row x of the (2^n, columns) result.

    One inverse transform of the coefficient rows along the mask axis.
    columns selects basis indices (all of them by default).
    """
    cols = np.arange(state.layout.dim) if columns is None else np.asarray(columns, dtype=np.int64)
    dense = np.zeros((1 << state.layout.n_index, cols.size), dtype=state.coeffs.dtype)
    dense[state.masks] = state.coeffs[:, cols]
    return _butterfly_in_place(dense)


def acceptance_probabilities(state: FourierState, accept: frozenset) -> np.ndarray:
    """Pr[measured basis index is accepting] for every oracle, in order.

    Transforms only the accepting columns that are nonzero at some mask: phi(x)
    at column c is sum_s (-1)^(s.x) coeffs[s, c], so a column that is zero at
    every mask is zero at every oracle and adds nothing. deutsch_parity(12)
    transforms 2 of its 24 accepting columns, serial_read(random_table(6, 7))
    33 of 396, and grover all of them. The columns go a block at a time, so
    the working array stays near _BLOCK_BYTES whatever the oracle count.
    """
    size = 1 << state.layout.n_index
    cols = np.array(sorted(accept), dtype=np.int64)
    cols = cols[np.any(state.coeffs[:, cols] != 0, axis=0)]
    block = max(1, _BLOCK_BYTES // (state.coeffs.itemsize * size))
    probs = np.zeros(size)
    for lo in range(0, len(cols), block):
        probs += _row_norms_sq(oracle_states(state, cols[lo : lo + block]))
    return probs


def profile_state(state: FourierState, accept: frozenset, table: TruthTable) -> ErrorProfile:
    if table.n != state.layout.n_index:
        raise InputError(
            f"table has {table.n} variables, layout indexes {state.layout.n_index} oracle bits"
        )
    p1 = acceptance_probabilities(state, accept)
    f = table.bits().astype(np.float64)
    errors = np.where(f == 1.0, 1.0 - p1, p1)
    return ErrorProfile(errors, float(np.max(errors)))


def error_profile(alg: Algorithm, table: TruthTable) -> ErrorProfile:
    """Worst-case and per-oracle error of the algorithm at computing the table."""
    return profile_state(run(alg), alg.accept, table)


def displacement_statistic(state: FourierState, k: int) -> float:
    """Mean squared displacement under a random k-coordinate flip.

    Equals sum over masks of (2 - 2(1 - 2|s|/n)^k) * ||coeff_s||^2, which the
    verify suite checks against direct pair enumeration.
    """
    _require_odd(k)
    n = state.layout.n_index
    weights = 2.0 - 2.0 * (1.0 - 2.0 * np.bitwise_count(state.masks) / n) ** k
    return float(weights @ _row_norms_sq(state.coeffs))


class GapReport(NamedTuple):
    min_gap: float | None  # None when no differing pair exists
    threshold: float
    pairs_checked: int
    violated: bool


def gap_check(state: FourierState, table: TruthTable, eps: float) -> GapReport:
    """Scan pairs with f(x) != f(y): ||phi(x) - phi(y)||^2 must be >= 2 - 4 sqrt(eps)."""
    n = state.layout.n_index
    if table.n != n:
        raise InputError("table size does not match layout")
    if n > GAP_CHECK_MAX_VARS:
        raise CapacityError(f"full pair scan is capped at n={GAP_CHECK_MAX_VARS}")
    vecs = oracle_states(state)
    bits = table.bits()
    x, y = np.triu_indices(1 << n, k=1)
    differ = bits[x] != bits[y]
    gaps = _row_norms_sq(vecs[x[differ]] - vecs[y[differ]])
    min_gap = float(gaps.min()) if gaps.size else None
    threshold = 2 - 4 * math.sqrt(max(0.0, eps))
    violated = min_gap is not None and min_gap < threshold - NORM_TOL
    return GapReport(min_gap, threshold, int(gaps.size), violated)


# ---------------------------------------------------------------------------
# builtin algorithms


def _tensor3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def _index_pair_hadamard(n_index: int, lo: int) -> np.ndarray:
    """2D Hadamard on index states lo, lo+1; identity elsewhere."""
    m = np.eye(n_index)
    m[lo : lo + 2, lo : lo + 2] = _H2
    return m

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_MINUS_PREP = _H2 @ _X2  # |0> -> (|0> - |1>)/sqrt(2)


def serial_read(table: TruthTable) -> Algorithm:
    """n queries, zero error for any table: read everything, then decide.

    Reads bits 0..n-1 into the work register, one query per bit; acceptance
    is determined by evaluating the table on the work register.
    """
    n = table.n
    if n > SERIAL_READ_MAX_VARS:
        raise CapacityError(f"serial_read is capped at n={SERIAL_READ_MAX_VARS}")
    layout = RegisterLayout(n, 1 << n)
    i, a, w = _labels(layout)
    steps: list = []
    for t in range(n):
        if t > 0:  # move the index from t - 1 to t
            move = np.arange(n)
            move[[t - 1, t]] = t, t - 1
            steps.append(_relabel(layout, move[i], a, w))
        steps.append(QUERY)
        # swap the answer bit with work bit t
        steps.append(_relabel(layout, i, (w >> t) & 1, (w & ~(1 << t)) | (a << t)))
    accept = frozenset(np.flatnonzero(table.bits()[w]).tolist())
    return Algorithm(layout, tuple(steps), accept)


def deutsch_parity(n: int) -> Algorithm:
    """Exact parity of an n-bit oracle (n even) using n/2 queries.

    Queries index pairs in superposition. The running branch pair
    (|2j> + (-1)^c |2j+1>)/sqrt(2) carries the parity read so far in its
    relative sign; each query adds one even-indexed and one odd-indexed bit,
    the final in-pair interference turns the sign into a basis index, and a
    permutation copies that into the work bit.
    """
    if n < 2 or n % 2:
        raise InputError("deutsch_parity needs an even n >= 2")
    layout = RegisterLayout(n, 2)
    i, a, w = _labels(layout)
    pairs = n // 2
    steps: list = []
    prep = _tensor3(_index_pair_hadamard(n, 0), _MINUS_PREP, np.eye(2))
    steps.append(Unitary(prep))
    for j in range(pairs):
        steps.append(QUERY)
        if j + 1 < pairs:  # swap index pair j with pair j + 1
            pair_swap = np.arange(n)
            pair_swap[2 * j : 2 * j + 4] = pair_swap[[2 * j + 2, 2 * j + 3, 2 * j, 2 * j + 1]]
            steps.append(_relabel(layout, pair_swap[i], a, w))
    interfere = _index_pair_hadamard(n, n - 2)
    writeback = _relabel(layout, i, a, w ^ (i & 1))
    final = np.empty((layout.dim, layout.dim))
    final[writeback.target] = _tensor3(interfere, np.eye(2), np.eye(2))  # writeback after the interference
    steps.append(Unitary(final))
    accept = frozenset(np.flatnonzero(w == 1).tolist())
    return Algorithm(layout, tuple(steps), accept)


def grover(n: int, iterations: int) -> Algorithm:
    """Search iterations plus one verification query; accepts when answer=1."""
    if n < 2:
        raise InputError("grover needs n >= 2 oracle bits")
    if iterations < 0:
        raise InputError("iteration count must be nonnegative")
    layout = RegisterLayout(n, 1)
    _, a, _ = _labels(layout)
    uniform = np.full((n, 1), 1 / math.sqrt(n))
    # real orthogonal completion of column 0 = uniform
    prep_index, _ = np.linalg.qr(np.hstack([uniform, np.eye(n)[:, : n - 1]]))
    if prep_index[0, 0] < 0:
        prep_index = -prep_index
    steps: list = [Unitary(_tensor3(prep_index, _MINUS_PREP, np.eye(1)))]
    diffusion = 2.0 * (uniform @ uniform.T) - np.eye(n)
    diffusion_full = Unitary(_tensor3(diffusion, np.eye(2), np.eye(1)))
    for _ in range(iterations):
        steps.append(QUERY)
        steps.append(diffusion_full)
    # rotate the answer from |-> back to |0>, then one verifying query
    steps.append(Unitary(_tensor3(np.eye(n), _X2 @ _H2, np.eye(1))))
    steps.append(QUERY)
    accept = frozenset(np.flatnonzero(a == 1).tolist())
    return Algorithm(layout, tuple(steps), accept)


__all__ = [
    "Algorithm",
    "ErrorProfile",
    "FourierState",
    "GAP_CHECK_MAX_VARS",
    "GapReport",
    "Permutation",
    "QUERY",
    "Query",
    "RegisterLayout",
    "SERIAL_READ_MAX_VARS",
    "Unitary",
    "acceptance_probabilities",
    "apply_query",
    "apply_unitary",
    "deutsch_parity",
    "displacement_statistic",
    "error_profile",
    "gap_check",
    "grover",
    "initial_state",
    "oracle_states",
    "profile_state",
    "reconstruct",
    "run",
    "serial_read",
    "simulate_direct",
]
