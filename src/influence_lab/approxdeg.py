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
<= d" is stated in whichever of two equivalent forms is smaller, with
k = #{S : |S| <= d}, m = 2^n - k and H the character matrix:
- kernel encoding (m <= k): the m rows H_{>d}^T v + s b = 0, one per mask S
  of popcount > d, where b = H_{>d}^T f is exact (a sum of +-1 * {0, 1});
- image encoding (otherwise): the 2^n rows v - H_{<=d} c' + s f = 0, with
  the k scaled coefficients c' as extra free variables.
The choice depends on (n, d) only. HiGHS reports the LP unbounded exactly
when d >= deg f; then t*_d = 0 and f's own expansion cut to degree d is the
answer. Otherwise t*_d = 1/s, and the returned coefficients are one
butterfly of p = f + v/s divided by 2^n, zeroed at the masks of popcount
> d, so the polynomial has degree <= d by construction. A MultilinearPoly
holds them dense over all 2^n masks, one float64 vector, so its values()
is one more butterfly. approx_degree is the smallest d whose t*_d clears
the threshold. Every returned polynomial is re-checked against all 2^n
constraints, and small instances are cross-validated in the tests against
the exact rational simplex in lp.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import CapacityError, ConsistencyError, InputError, SolverError
from .fourier import butterfly, spectral_degree, wht
from .truthtable import TruthTable, popcounts

LP_MAX_VARS = 12  # at most 2^12 rows and about 1.5*2^12 columns; refuse beyond rather than grind
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


def _character_matrix(n: int, masks: np.ndarray) -> np.ndarray:
    xs = np.arange(1 << n, dtype=np.uint64)
    overlap = np.bitwise_count(xs[:, None] & masks[None, :].astype(np.uint64))
    return np.where(overlap & 1, -1.0, 1.0)


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
    low = popcounts(t.n) <= d
    f01 = t.bits().astype(np.float64)
    f_hat = butterfly(f01, np.float64)  # H^T f, exact: sums of +-1 * {0, 1} terms

    # variables: v(x) at every input, then s = 1/t, so that p = f + v/s
    high_masks, low_masks = np.flatnonzero(~low), np.flatnonzero(low)
    if high_masks.size <= low_masks.size:
        # kernel encoding: H_{>d}^T v + s H_{>d}^T f = 0
        a_eq = np.hstack([_character_matrix(t.n, high_masks).T, f_hat[high_masks, None]])
    else:
        # image encoding: v - H_{<=d} c' + s f = 0, the scaled coefficients c' as extra free variables
        a_eq = sparse.hstack([sparse.identity(size), f01[:, None], -_character_matrix(t.n, low_masks)])
    cost = np.zeros(a_eq.shape[1])
    cost[size] = -1.0
    res = linprog(
        cost,
        A_eq=sparse.csr_array(a_eq),
        b_eq=np.zeros(a_eq.shape[0]),
        bounds=[(-1.0, 1.0)] * size + [(0.0, None)] + [(None, None)] * (cost.size - size - 1),
        method="highs",
        # below FEAS_TOL: at HiGHS's default 1e-7 a bound may be violated by
        # more than FEAS_TOL, and re-verification fails (maj(9) at d = 4)
        options={"primal_feasibility_tolerance": 1e-10},
    )
    if res.status == 3:
        # s unbounded: t*_d = 0, which happens exactly when d >= deg f
        t_star, dense = 0.0, f_hat / size
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
    errors: dict[int, float] = field(default_factory=dict)  # d -> t*_d for solved d
    polynomials: dict[int, MultilinearPoly] = field(default_factory=dict)

    @property
    def polynomial(self) -> MultilinearPoly:
        return self.polynomials[self.degree]


def approx_degree_scan(t: TruthTable, eps: float, max_degree: int | None = None) -> DegreeScan:
    """Smallest d with t*_d <= eps + 1e-9, binary-searched over d.

    t*_d is nonincreasing in d (a lower degree bound only removes freedom),
    which makes the threshold crossing monotone. Known answers need no
    solve: for d >= deg f, t*_d = 0 and f's own expansion is optimal; for
    smaller d, t*_d >= max_{|S| > d} |c_S| over f's coefficients c, since
    each character chi_S is a dual certificate. The search runs between the
    last degree that bound rules out and the exact degree (or max_degree),
    and the report always holds t*_{d-1} beside the answer d.
    """
    if not 0 <= eps < 0.5:
        raise InputError(f"error probability must be in [0, 0.5), got {eps}")
    deg = exact_degree(t)
    hi = deg if max_degree is None else min(max_degree, t.n)
    scan = DegreeScan(degree=hi, exact_degree=deg)
    threshold = eps + FEAS_TOL
    # f's own 0/1 expansion; exact, since its coefficients are dyadic
    expansion = butterfly(t.bits(), np.float64) / (1 << t.n)

    def solved(d: int) -> float:
        if d not in scan.errors:
            if d >= deg:
                scan.errors[d], scan.polynomials[d] = 0.0, _truncated(t.n, expansion, d)
            else:
                scan.errors[d], scan.polynomials[d] = min_error_at_degree(t, d)
        return scan.errors[d]

    if solved(hi) > threshold:
        raise SolverError(
            f"no polynomial of degree <= {hi} reaches error {eps}"
            + (" (max_degree cap)" if max_degree is not None else "")
        )
    # t*_d >= |c_S| for every |S| > d, so every d below the largest |S| with
    # |c_S| > threshold is ruled out unsolved
    lo = min(hi, int(popcounts(t.n)[np.abs(expansion) > threshold].max(initial=0)))
    # invariant: solved(hi) <= threshold; answer in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if solved(mid) <= threshold:
            hi = mid
        else:
            lo = mid + 1
    scan.degree = hi
    if hi > 0:
        solved(hi - 1)
    return scan


def approx_degree(t: TruthTable, eps: float) -> int:
    return approx_degree_scan(t, eps).degree


def mean_square_flip(poly: MultilinearPoly) -> float:
    """E over (x, i) of |p(x) - p(x flip i)|^2, checked against its spectral form.

    The spectral identity is 4 * sum_s c_s^2 |s|/n; enumeration and identity
    must agree to 1e-9 or the polynomial evaluation is broken.
    """
    n = poly.n
    vals = poly.values()
    total = 0.0
    for i in range(n):
        view = vals.reshape(-1, 2, 1 << i)
        diff = view[:, 0, :] - view[:, 1, :]
        total += 2.0 * float(np.sum(diff * diff))
    enumerated = total / (n * (1 << n))
    spectral = 4.0 * float(poly.coeffs**2 @ popcounts(n)) / n
    if abs(enumerated - spectral) > 1e-9:
        raise ConsistencyError(
            f"flip statistic disagrees: enumeration {enumerated} vs spectral {spectral}"
        )
    return enumerated


__all__ = [
    "DegreeScan",
    "MultilinearPoly",
    "approx_degree",
    "approx_degree_scan",
    "exact_degree",
    "max_abs_error",
    "mean_square_flip",
    "min_error_at_degree",
]
