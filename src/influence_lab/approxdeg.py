"""Approximate degree by minimax linear programming.

The approximation convention here is the 0/1 one: the target f takes values
in {0, 1} and a degree-d polynomial p approximates it with error eps when
|p(x) - f(x)| <= eps at every input. Degrees are unchanged by switching to
the sign convention, so exact_degree can come straight from the spectrum.

The range of p is not constrained: p may leave [0, 1]. For the 2-variable OR
at degree 1 the optimum is p = 1/4 + x0/2 + x1/2 with error 1/4, and it
reaches 5/4 at x = 11. This is the convention of the paper's degree bound in
bounds.degree_lb_influence, whose factor (1 + eps) is the largest value such
a p may take. The [0, 1]-bounded acceptance-probability variant (the
polynomials of Beals et al.) has larger minimax errors, 1/3 for that OR, and
is not what this module computes.

The LP per degree is the Chebyshev form: minimize t subject to
-t <= p(x) - f(x) <= t over all 2^n inputs, with deg p <= d. It is solved
in homogenized form. Below deg f the optimum t* is positive, so write
p = f + t v with |v(x)| <= 1 and s = 1/t, and maximize s. The bound rows
become the column bounds -1 <= v <= 1, and no row couples p to t. "deg p
<= d" becomes (H v)_S + s b_S = 0 for the m masks S of popcount > d, where
H is the character matrix and b = H f is exact (a sum of +-1 * {0, 1}). H
is never formed. It factors as H = B_{r-1} ... B_0, r = ceil(n/2)
butterfly stages of 4 nonzeros per row, each applying H_4 to two bits (the
last one H_2 to one bit when n is odd), and B_i^2 = 4 I. Every second
stage output y_i = B_{i-1} ... B_0 v, counting down from y_{r-1}, is a
block of 2^n free columns, tied to the one before it (y_j, or v = y_0) by
the rows B_{i-1} y_i - 4 B_j y_j = 0 when i = j + 2, or y_1 - B_0 v = 0.
The last stage, of width w = 2 (1 when n is odd), is kept only at the m
rows: (B_{r-1} y_{r-1})_S + s b_S = 0. So at every d the rows hold at most
8 floor(r/2) 2^n + (2^w + 1) m nonzeros: at most 8 per row in each of the
floor(r/2) held blocks of 2^n rows, and 2^w + 1 in each of the m last-stage
rows, against m 2^n for the product H_{>d}; when m = 0 there are no rows.
On random_table(n,3) (2-core host, one BLAS thread, fresh process) one solve
takes 0.63 s and 130 MiB at n = 12, d = 1 and 41 s and 188 MiB at d = 4;
the dense H_{>d} block took 160 s and 439 MiB at n = 11, d = 5, against
12 s and 123 MiB factored.

HiGHS reports the LP unbounded exactly when d >= deg f; then t*_d = 0 and
f's own expansion cut to degree d is the answer. Otherwise t*_d = 1/s, and
the returned coefficients are one butterfly of p = f + v/s divided by 2^n,
zeroed at the masks of popcount > d, so the polynomial has degree <= d by
construction. A MultilinearPoly holds them dense over all 2^n masks, one
float64 vector, so its values() is one more butterfly. approx_degree is the
smallest d whose t*_d clears the threshold, found by walking up from the
last degree an exact spectral dual certificate rules out (approx_degree_scan).
Every returned polynomial is re-checked against all 2^n constraints, and
small instances are cross-validated in the tests against the exact rational
simplex in lp.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .bounds import minimax_error_floor
from .errors import CapacityError, InputError, SolverError
from .fourier import butterfly, spectral_degree, wht
from .truthtable import TruthTable, popcounts

LP_MAX_VARS = 12  # at most 4*2^12 rows and 4*2^12 + 1 columns; refuse beyond rather than grind
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class MultilinearPoly:
    """Real polynomial in the character basis: p(x) = sum_s coeffs[s] (-1)^(s.x).

    coeffs is dense over all 2^n masks (float64), zero at every mask of
    popcount above degree, the layout of FourierSpectrum.sums.
    """

    n: int
    coeffs: np.ndarray
    degree: int  # declared bound; every nonzero coefficient obeys it

    def __post_init__(self):
        if self.coeffs.shape != (1 << self.n,):
            raise InputError(f"expected {1 << self.n} coefficients, got shape {self.coeffs.shape}")
        over = np.flatnonzero((popcounts(self.n) > self.degree) & (self.coeffs != 0))
        if over.size:
            raise InputError(f"mask {int(over[0]):#x} exceeds the declared degree {self.degree}")

    def values(self) -> np.ndarray:
        """p at every input, index convention shared with TruthTable."""
        # inverse character transform: value[x] = sum_s coeffs[s] * (-1)^(s.x)
        return butterfly(self.coeffs, np.float64)


def exact_degree(t: TruthTable) -> int:
    """Degree of the unique multilinear representation (= spectral degree)."""
    return spectral_degree(wht(t))


def _stage(lo: int, width: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The given rows of the butterfly stage applying H_{2^width} to bits lo..lo+width-1.

    Returned as (row position, column, +-1) triplets, 2^width per row; width 0
    is the identity.
    """
    span = np.arange(1 << width)
    group = (rows[:, None] >> lo) & span[-1]
    cols = (rows[:, None] & ~(span[-1] << lo)) | (span << lo)
    signs = 1.0 - 2.0 * (np.bitwise_count(group & span) & 1)
    return np.repeat(np.arange(rows.size), span.size), cols.ravel(), signs.ravel()


def _factored_kernel_rows(t: TruthTable, d: int) -> sparse.csr_array:
    """A_eq over the columns v, s, then the held stage outputs."""
    size = 1 << t.n
    high_masks = np.flatnonzero(popcounts(t.n) > d)
    if not high_masks.size:
        return sparse.csr_array((0, size + 1))
    stages = [(lo, min(2, t.n - lo)) for lo in range(0, t.n, 2)]  # B_0 .. B_{r-1}
    held = range(2 - (len(stages) - 1) % 2, len(stages), 2)  # y_{r-1}, y_{r-3}, ... ascending
    every = np.arange(size)
    triplets = []

    def put(row0: int, col0: int, scale: float, stage: tuple[int, int], rows: np.ndarray) -> None:
        pos, cols, signs = _stage(*stage, rows)
        triplets.append((row0 + pos, col0 + cols, scale * signs))

    prev, prev_col = 0, 0
    for block, i in enumerate(held):
        # left y_i = 2^width(left) B_prev y_prev, since left^2 = 2^width(left) I
        left = stages[i - 1] if i - prev == 2 else (0, 0)
        row0, col = block * size, size + 1 + block * size
        put(row0, prev_col, -float(1 << left[1]), stages[prev], every)
        put(row0, col, 1.0, left, every)
        prev, prev_col = i, col
    row0 = len(held) * size
    put(row0, prev_col, 1.0, stages[-1], high_masks)
    b = butterfly(t.bits(), np.float64)[high_masks]  # H f, exact: sums of +-1 * {0, 1} terms
    triplets.append((row0 + np.arange(high_masks.size), np.full(high_masks.size, size), b))
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    return sparse.csr_array((vals, (rows, cols)), shape=(row0 + high_masks.size, size + 1 + len(held) * size))


def _truncated(n: int, dense: np.ndarray, d: int) -> MultilinearPoly:
    """The polynomial with the coefficients of dense at masks of popcount <= d."""
    return MultilinearPoly(n, np.where(popcounts(n) <= d, dense, 0.0), d)


def max_abs_error(poly: MultilinearPoly, t: TruthTable) -> float:
    return float(np.max(np.abs(poly.values() - t.bits().astype(np.float64))))


def min_error_at_degree(t: TruthTable, d: int) -> tuple[float, MultilinearPoly]:
    """Minimax error t*_d and an optimal degree-<=d polynomial for the table.

    The solver's answer is never trusted blind: the polynomial is re-checked
    against every constraint and must achieve max error <= t* + 1e-9.
    """
    if t.n > LP_MAX_VARS:
        raise CapacityError(f"LP fits are capped at n={LP_MAX_VARS}")
    if not 0 <= d <= t.n:
        raise InputError(f"degree must be in 0..{t.n}, got {d}")
    size = 1 << t.n
    a_eq = _factored_kernel_rows(t, d)
    cost = np.zeros(a_eq.shape[1])
    cost[size] = -1.0  # maximize s
    res = linprog(
        cost,
        A_eq=a_eq,
        b_eq=np.zeros(a_eq.shape[0]),
        bounds=[(-1.0, 1.0)] * size + [(0.0, None)] + [(None, None)] * (cost.size - size - 1),
        method="highs",
        # below FEAS_TOL: at HiGHS's default 1e-7 a bound may be violated by
        # more than FEAS_TOL, and re-verification fails (maj(9) at d = 4)
        options={"primal_feasibility_tolerance": 1e-10},
    )
    f01 = t.bits().astype(np.float64)
    if res.status == 3:
        # s unbounded: t*_d = 0, which happens exactly when d >= deg f
        t_star, dense = 0.0, butterfly(f01, np.float64) / size
    elif res.success:
        t_star = float(1.0 / res.x[size])
        dense = butterfly(f01 + t_star * res.x[:size], np.float64) / size
    else:
        raise SolverError(f"LP solve failed at degree {d}: {res.message}")
    # the coefficients of p, cut to degree <= d, so the re-check sees a true degree-d polynomial
    poly = _truncated(t.n, dense, d)
    achieved = max_abs_error(poly, t)
    if achieved > t_star + FEAS_TOL:
        raise SolverError(
            f"LP result failed re-verification at degree {d}: "
            f"achieved {achieved}, reported {t_star}"
        )
    return t_star, poly


@dataclass
class DegreeScan:
    degree: int
    exact_degree: int
    errors: dict[int, float] = field(default_factory=dict)  # d -> t*_d for the degrees visited
    polynomials: dict[int, MultilinearPoly] = field(default_factory=dict)

    @property
    def polynomial(self) -> MultilinearPoly:
        return self.polynomials[self.degree]


def approx_degree_scan(t: TruthTable, eps: float) -> DegreeScan:
    """Smallest d with t*_d <= eps + 1e-9, by walking up from a certified floor.

    t*_d is nonincreasing in d (a lower degree bound only removes freedom).
    One spectrum gives deg f and, at each d < deg f, the exact dual
    certificate bounds.minimax_error_floor(spec, d) <= t*_d. The floor is
    1 + the largest d whose certificate is above the threshold: every degree
    below it is ruled out unsolved. The scan solves d = floor, floor + 1, ...
    until t*_d clears the threshold, then makes sure t*_{d-1} is held beside
    the answer d. errors and polynomials hold only the degrees visited.
    Known answers need no solve: for d >= deg f, t*_d = 0 and f's own
    expansion is optimal; where the certificate is exactly 1/2, t*_d = 1/2,
    since p = 1/2 attains it. That holds at d = 0 for every nonconstant f,
    and at every d < n for parity.
    """
    if not 0 <= eps < 0.5:
        raise InputError(f"error probability must be in [0, 0.5), got {eps}")
    spec = wht(t)
    deg = spectral_degree(spec)
    scan = DegreeScan(degree=deg, exact_degree=deg)
    threshold = eps + FEAS_TOL
    size = 1 << t.n
    # f's own 0/1 expansion, f = (1 - F)/2 for the sign view F; exact, since its coefficients are dyadic
    expansion = -spec.sums / (2 * size)
    expansion[0] += 0.5

    def solved(d: int) -> float:
        if d not in scan.errors:
            if d >= deg:
                known = 0.0, _truncated(t.n, expansion, d)
            elif minimax_error_floor(spec, d) == Fraction(1, 2):
                half = np.zeros(size)
                half[0] = 0.5  # p = 1/2
                known = 0.5, MultilinearPoly(t.n, half, d)
            else:
                known = min_error_at_degree(t, d)
            scan.errors[d], scan.polynomials[d] = known
        return scan.errors[d]

    # 1 + the largest degree whose certificate rules it out, compared exactly
    bound = Fraction(threshold)
    d = next((low + 1 for low in reversed(range(deg)) if minimax_error_floor(spec, low) > bound), 0)
    # ends by d = deg f at the latest, where t*_d = 0
    while solved(d) > threshold:
        d += 1
    scan.degree = d
    if d > 0:
        solved(d - 1)
    return scan


def approx_degree(t: TruthTable, eps: float) -> int:
    return approx_degree_scan(t, eps).degree


__all__ = [
    "DegreeScan",
    "MultilinearPoly",
    "approx_degree",
    "approx_degree_scan",
    "exact_degree",
    "max_abs_error",
    "min_error_at_degree",
]
