"""Closed-form query and degree lower bounds.

Conventions shared by every function here:
  - f is given by its level weights: weights[j] = A_j = sum over masks s of
    popcount j of sums[s]^2, as FourierSpectrum.weight_profile() returns them,
    for j = 0..n. So n = len(weights) - 1, and sum(weights) = 4^n (Parseval)
    is the common denominator. rho_f, the k-flip probabilities and the
    spectral bounds read these n + 1 numbers alone; query_lb_influence and
    degree_lb_influence take rho_f and n, the other closed forms scalars, and
    minimax_error_floor, needing the coefficients above a degree, the spectrum.
  - eps is the allowed error probability of the algorithm or polynomial.
  - Bounds that go nonpositive are clamped to 0 and flagged vacuous instead
    of raising, since large eps legitimately drains them.
  - The query bound is the paper's, from a single random flip (k = 1):
    query_lb_influence_best holds the proof that no odd k beats it.
  - Elsewhere k is the number of independently chosen coordinates XORed into
    the random flip of the flip probability and the displacement bounds; it
    must be odd.

flip_prob_spectral and oracles.flip_prob_bruteforce are two routes to the
same probability Pr[f(x) != f(x ^ e_{i_1} ^ .. ^ e_{i_k})]; the verify suite
and tests hold them against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .fourier import FourierSpectrum, butterfly
from .truthtable import popcounts


class BoundValue(NamedTuple):
    value: float
    vacuous: bool


def _require_odd(k: int) -> None:
    if k < 1 or k % 2 == 0:
        raise InputError(f"k must be a positive odd integer, got {k}")


def _require_eps(eps: float, upper: float = 1.0) -> None:
    if not 0 <= eps < upper:
        raise InputError(f"error probability must be in [0, {upper}), got {eps}")


def correlation_decay(weights: Sequence[int], k: int) -> Fraction:
    """sum_s coeff_s^2 * (1 - 2|s|/n)^k, exactly."""
    _require_odd(k)
    n = len(weights) - 1
    num = sum(a * (n - 2 * j) ** k for j, a in enumerate(weights))
    return Fraction(num, sum(weights) * n**k)


def flip_prob_spectral(weights: Sequence[int], k: int) -> Fraction:
    """Pr[f(x) != f(x + e_{i_1} + .. + e_{i_k})] from the level weights, exactly.

    At k=1 this is the average influence rho_f = sum_j j A_j / (n 4^n).
    """
    return (1 - correlation_decay(weights, k)) / 2


def minimax_error_floor(spec: FourierSpectrum, d: int) -> Fraction:
    """Exact lower bound on t*_d, the minimax error of degree-<=d polynomials on the 0/1 view.

    Let g = 2^n F_{>d}, the part of the sign view F above degree d, in
    integers. psi = -g is orthogonal to every polynomial of degree <= d, and
    <f, psi> = sum g^2 / (2 * 2^n) for f = (1 - F)/2. So by weak duality
    every such p has max |p - f| >= <f, psi> / ||psi||_1
    = sum g^2 / (2 * 2^n * sum |g|). It is 0 when g = 0 (d >= deg f) and
    exactly 1/2 at d = 0 for nonconstant f.
    """
    if not 0 <= d <= spec.n:
        raise InputError(f"degree must be in 0..{spec.n}, got {d}")
    g = butterfly(np.where(popcounts(spec.n) > d, spec.sums, 0))
    l1 = int(np.abs(g).sum())  # below 2^51 at n = 20, since |g| <= 2^n (1 + 2^(n/2))
    if not l1:
        return Fraction(0)
    # sum g^2 = 2^n sum_{|S| > d} sums[S]^2 by Parseval, exact in Python integers
    return Fraction(sum(spec.weight_profile()[d + 1 :]), 2 * l1)


def query_lb_influence(rho: float, n: int, eps: float) -> BoundValue:
    """Queries >= (1 - 2 sqrt(eps))/2 * rho * n; vacuous once eps >= 1/4."""
    _require_eps(eps)
    raw = (1 - 2 * math.sqrt(eps)) / 2 * float(rho) * n
    return BoundValue(max(0.0, raw), eps >= 0.25 or raw < 0)


def query_lb_influence_best(weights: Sequence[int], eps: float) -> tuple[int, BoundValue]:
    """The best odd k and its bound: k = 1 and the paper's query_lb_influence.

    A random k-flip gives queries >= n/2 * (1 - radicand_k^(1/k)), with
    radicand_k = (1 + 2 sqrt(eps))/2 + (1 - 2 sqrt(eps))/2 * correlation_decay(weights, k).
    No odd k beats k = 1. For eps < 1/4 the radicand at odd k is E[X^k], where
    X = 1 with probability (1 + 2 sqrt(eps))/2 and X = 1 - 2j/n with
    probability (1 - 2 sqrt(eps))/2 * A_j/4^n. The mass at 1 is at least the
    mass below 0, so each negative value y can be paired with an equal mass at
    1 and the pair moved to (1 + y)/2. The move keeps E[X] and does not raise
    E[X^k], since y^k >= y on [-1, 0] and t^k <= t on [0, 1]. On [0, 1] Jensen
    gives E[X^k] >= E[X]^k, so radicand_k^(1/k) >= radicand_1. From eps = 1/4
    on every k is vacuous.
    """
    return 1, query_lb_influence(float(flip_prob_spectral(weights, 1)), len(weights) - 1, eps)


def query_lb_block_sensitivity(bs: float) -> float:
    """Queries >= sqrt(BS)/4 at error probability 1/3."""
    if bs < 0:
        raise InputError("block sensitivity must be nonnegative")
    return math.sqrt(bs) / 4


def query_lb_degree(d: float) -> float:
    """Queries >= d/2 where d is the approximating-polynomial degree."""
    if d < 0:
        raise InputError("degree must be nonnegative")
    return d / 2


def degree_lb_block_sensitivity(bs: float) -> float:
    """Approximating degree >= sqrt(BS/6)."""
    if bs < 0:
        raise InputError("block sensitivity must be nonnegative")
    return math.sqrt(bs / 6)


def degree_lb_influence(rho: float, n: int, eps: float) -> float:
    """Approximating degree >= 1/4 (1 - 3 eps/(1+eps))^2 * rho * n, eps < 1/2."""
    _require_eps(eps, upper=0.5)
    return 0.25 * (1 - 3 * eps / (1 + eps)) ** 2 * float(rho) * n


def displacement_lower_bound(weights: Sequence[int], eps: float, k: int) -> float:
    """Lower bound on the mean squared state displacement under a random k-flip."""
    if eps < 0 or eps > 1:
        raise InputError(f"error probability must be in [0, 1], got {eps}")
    return max(0.0, (2 - 4 * math.sqrt(eps)) * float(flip_prob_spectral(weights, k)))


def displacement_upper_bound(t_queries: int, n: int, k: int) -> float:
    """Upper bound 2 - 2(1 - 2T/n)^k on the same displacement."""
    _require_odd(k)
    if not 0 <= t_queries <= n:
        raise InputError(f"query count must be in 0..{n}, got {t_queries}")
    return 2 - 2 * (1 - 2 * (t_queries / n)) ** k


@dataclass(frozen=True)
class BoundReport:
    eps: float
    query_influence: BoundValue
    query_block_sensitivity: float | None
    query_degree: float | None
    degree_influence: float
    degree_block_sensitivity: float | None


def bound_report(
    weights: Sequence[int],
    eps: float,
    block_sensitivity: int | None = None,
    approx_degree: int | None = None,
) -> BoundReport:
    n, rho = len(weights) - 1, float(flip_prob_spectral(weights, 1))
    return BoundReport(
        eps=eps,
        query_influence=query_lb_influence_best(weights, eps)[1],
        query_block_sensitivity=(
            None if block_sensitivity is None else query_lb_block_sensitivity(block_sensitivity)
        ),
        query_degree=None if approx_degree is None else query_lb_degree(approx_degree),
        degree_influence=degree_lb_influence(rho, n, eps) if eps < 0.5 else 0.0,
        degree_block_sensitivity=(
            None if block_sensitivity is None else degree_lb_block_sensitivity(block_sensitivity)
        ),
    )


__all__ = [
    "BoundReport",
    "BoundValue",
    "bound_report",
    "correlation_decay",
    "degree_lb_block_sensitivity",
    "degree_lb_influence",
    "displacement_lower_bound",
    "displacement_upper_bound",
    "flip_prob_spectral",
    "minimax_error_floor",
    "query_lb_block_sensitivity",
    "query_lb_degree",
    "query_lb_influence",
    "query_lb_influence_best",
]
