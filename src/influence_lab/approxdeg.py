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
-t <= p(x) - f(x) <= t over all 2^n inputs, with p written in the character
basis over masks of popcount <= d. One solve yields the minimax error t*_d,
and approx_degree is the smallest d whose t*_d clears the threshold. Solved
with scipy's HiGHS; every returned polynomial is re-checked against all 2^n
constraints, and small instances are cross-validated in the tests against
the exact rational simplex in lp.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ._util import popcounts
from .errors import CapacityError, ConsistencyError, InputError, SolverError
from .fourier import butterfly, spectral_degree, wht
from .truthtable import TruthTable

LP_MAX_VARS = 12  # 2*2^12 constraints; refuse beyond rather than grind
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class MultilinearPoly:
    """Real polynomial in the character basis: p(x) = sum_s c_s (-1)^(s.x)."""

    n: int
    coeffs: dict[int, float]
    degree: int  # declared bound; every stored mask obeys it

    def __post_init__(self):
        for s in self.coeffs:
            if bin(s).count("1") > self.degree:
                raise InputError(f"mask {s:#x} exceeds the declared degree {self.degree}")

    def values(self) -> np.ndarray:
        """p at every input, index convention shared with TruthTable."""
        dense = np.zeros(1 << self.n)
        dense[list(self.coeffs)] = list(self.coeffs.values())
        # inverse character transform: value[x] = sum_s dense[s] * (-1)^(s.x)
        return butterfly(dense, np.float64)


def exact_degree(t: TruthTable) -> int:
    """Degree of the unique multilinear representation (= spectral degree)."""
    return spectral_degree(wht(t))


def _character_matrix(n: int, masks: np.ndarray) -> np.ndarray:
    xs = np.arange(1 << n, dtype=np.uint64)
    overlap = np.bitwise_count(xs[:, None] & masks[None, :].astype(np.uint64))
    return np.where(overlap & 1, -1.0, 1.0)


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
    masks = np.nonzero(popcounts(t.n) <= d)[0]
    chars = _character_matrix(t.n, masks)
    size = 1 << t.n
    k = masks.shape[0]
    f01 = t.bits().astype(np.float64)

    # variables: c_0..c_{k-1}, t ; rows: chars.c - t <= f and -chars.c - t <= -f
    a_ub = np.zeros((2 * size, k + 1))
    a_ub[:size, :k] = chars
    a_ub[size:, :k] = -chars
    a_ub[:, k] = -1.0
    b_ub = np.concatenate([f01, -f01])
    cost = np.zeros(k + 1)
    cost[k] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * k + [(0, None)],
        method="highs",
    )
    if not res.success:
        raise SolverError(f"LP solve failed at degree {d}: {res.message}")
    coeffs = {int(s): float(c) for s, c in zip(masks, res.x[:k]) if c != 0.0}
    poly = MultilinearPoly(t.n, coeffs, d)
    t_star = float(res.fun)
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
    errors: dict[int, float] = field(default_factory=dict)  # d -> t*_d for solved d
    polynomials: dict[int, MultilinearPoly] = field(default_factory=dict)

    @property
    def polynomial(self) -> MultilinearPoly:
        return self.polynomials[self.degree]


def approx_degree_scan(t: TruthTable, eps: float, max_degree: int | None = None) -> DegreeScan:
    """Smallest d with t*_d <= eps + 1e-9, binary-searched over d.

    t*_d is nonincreasing in d (a lower degree bound only removes freedom),
    which makes the threshold crossing monotone. The scan starts from the
    exact degree as a known-zero upper end.
    """
    if not 0 <= eps < 0.5:
        raise InputError(f"error probability must be in [0, 0.5), got {eps}")
    hi = exact_degree(t) if max_degree is None else min(max_degree, t.n)
    scan = DegreeScan(degree=hi)
    threshold = eps + FEAS_TOL

    def solved(d: int) -> float:
        if d not in scan.errors:
            t_star, poly = min_error_at_degree(t, d)
            scan.errors[d] = t_star
            scan.polynomials[d] = poly
        return scan.errors[d]

    if solved(hi) > threshold:
        raise SolverError(
            f"no polynomial of degree <= {hi} reaches error {eps}"
            + (" (max_degree cap)" if max_degree is not None else "")
        )
    lo = 0
    # invariant: solved(hi) <= threshold; answer in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if solved(mid) <= threshold:
            hi = mid
        else:
            lo = mid + 1
    scan.degree = hi
    solved(hi)
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
    spectral = 4.0 * sum(
        c * c * bin(s).count("1") for s, c in poly.coeffs.items()
    ) / n
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
