from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from influence_lab import approxdeg, measures
from influence_lab.approxdeg import (
    FEAS_TOL,
    MultilinearPoly,
    approx_degree,
    approx_degree_scan,
    exact_degree,
    max_abs_error,
    min_error_at_degree,
)
from influence_lab.bounds import minimax_error_floor
from influence_lab.errors import CapacityError, InputError, SolverError
from influence_lab.fourier import wht
from influence_lab.lp import minimax_fit_exact, solve_min_exact
from influence_lab.oracles import mean_square_flip
from influence_lab.truthtable import TruthTable, builtin, popcounts, random_table

OR2 = builtin("or", 2)
PAPER_F = builtin("paper_f", 4)


def monomial_degree_oracle(t: TruthTable) -> int:
    """Degree via the monomial basis: Moebius transform of the 0/1 values."""
    coeffs = [int(b) for b in t.bits()]
    for i in range(t.n):
        step = 1 << i
        for base in range(0, t.size, step << 1):
            for j in range(base, base + step):
                coeffs[j + step] -= coeffs[j]
    return max(
        (bin(s).count("1") for s in range(t.size) if coeffs[s] != 0), default=0
    )


def dense_chebyshev_reference(t: TruthTable, d: int) -> float:
    """t*_d from the definition: minimize t over c_S (|S| <= d) and t, with
    -t <= sum_S c_S (-1)^(S.x) - f(x) <= t at every x; dense rows, scipy linprog."""
    xs = np.arange(t.size)
    masks = [s for s in range(t.size) if bin(s).count("1") <= d]
    chars = np.array([[(-1.0) ** bin(x & s).count("1") for s in masks] for x in xs])
    f = t.bits().astype(np.float64)
    ones = np.ones((t.size, 1))
    res = linprog(
        np.r_[np.zeros(len(masks)), 1.0],
        A_ub=np.block([[chars, -ones], [-chars, -ones]]),
        b_ub=np.r_[f, -f],
        bounds=[(None, None)] * len(masks) + [(0.0, None)],
        method="highs",
    )
    assert res.success, res.message
    return float(res.x[-1])


# --- exact reference solver ---------------------------------------------


def test_solve_min_exact_basic():
    # min -x1 - x2 subject to x1 + x2 <= 1
    value, y = solve_min_exact(
        [Fraction(-1), Fraction(-1)], [[Fraction(1), Fraction(1)]], [Fraction(1)]
    )
    assert value == -1
    assert sum(y) == 1


def test_solve_min_exact_infeasible():
    # x1 <= -1 with x1 >= 0 has no solution
    with pytest.raises(SolverError):
        solve_min_exact([Fraction(1)], [[Fraction(1)]], [Fraction(-1)])


def test_solve_min_exact_unbounded():
    with pytest.raises(SolverError):
        solve_min_exact([Fraction(-1)], [[Fraction(0)]], [Fraction(1)])


def test_solve_min_exact_phase1_case():
    # min x1 subject to -x1 <= -2  (i.e. x1 >= 2)
    value, y = solve_min_exact([Fraction(1)], [[Fraction(-1)]], [Fraction(-2)])
    assert value == 2
    assert y[0] == 2


def test_exact_minimax_or2():
    t_star, coeffs = minimax_fit_exact(OR2, 1)
    assert t_star == Fraction(1, 4)
    t0, _ = minimax_fit_exact(OR2, 0)
    assert t0 == Fraction(1, 2)
    t2, _ = minimax_fit_exact(OR2, 2)
    assert t2 == 0


def test_exact_minimax_degree_out_of_range():
    # a usage error (exit 2), as every other degree check raises, not a solver failure
    for d in (-1, 3):
        with pytest.raises(InputError, match=f"degree must be in 0..2, got {d}"):
            minimax_fit_exact(OR2, d)


def test_exact_minimax_parity2():
    t_star, _ = minimax_fit_exact(builtin("parity", 2), 1)
    assert t_star == Fraction(1, 2)


def test_exact_matches_scipy():
    # every d of n = 2..4: the factored kernel rows below n, no rows at all at d = n
    for n in (2, 3, 4):
        for seed in range(6):
            t = random_table(n, 1300 + seed)
            for d in range(n + 1):
                lp_t, _ = min_error_at_degree(t, d)
                exact_t, _ = minimax_fit_exact(t, d)
                assert lp_t == pytest.approx(float(exact_t), abs=1e-9)


# --- production route -----------------------------------------------------


def test_exact_degree_families():
    assert exact_degree(builtin("parity", 6)) == 6
    assert exact_degree(builtin("and", 5)) == 5
    assert exact_degree(TruthTable(3, 0)) == 0
    assert exact_degree(PAPER_F) == 3


def test_exact_degree_matches_monomial_oracle(small_corpus):
    for tables in small_corpus.values():
        for t in tables[:8]:
            assert exact_degree(t) == monomial_degree_oracle(t)


def test_min_error_interpolates_at_exact_degree():
    for t in (OR2, PAPER_F, builtin("parity", 3)):
        t_star, poly = min_error_at_degree(t, exact_degree(t))
        assert t_star <= 1e-9
        assert max_abs_error(poly, t) <= 1e-9


def test_exact_degree_shortcut_agrees_with_lp(small_corpus):
    # the scan answers d = deg f from f's own expansion; the LP must agree there
    for tables in small_corpus.values():
        for t in tables[:4]:
            deg = exact_degree(t)
            t_star, poly = min_error_at_degree(t, deg)
            known = approx_degree_scan(t, 0.0).polynomials[deg]
            assert t_star <= 1e-9
            assert poly.coeffs == pytest.approx(known.coeffs, abs=1e-9)


@pytest.fixture
def solves(monkeypatch):
    """The degrees a scan hands to min_error_at_degree, in order."""
    solved = []

    def counting(t, d):
        solved.append(d)
        return min_error_at_degree(t, d)

    monkeypatch.setattr(approxdeg, "min_error_at_degree", counting)
    return solved


def test_eps_zero_scan_solves_only_the_degree_below(solves):
    for seed in range(4):
        t = random_table(6, 2300 + seed)
        deg = exact_degree(t)
        solves.clear()
        scan = approx_degree_scan(t, 0.0)
        assert scan.degree == scan.exact_degree == deg
        assert solves == [deg - 1]
        assert scan.errors[deg] == 0.0 and scan.errors[deg - 1] > 0.0
        assert max_abs_error(scan.polynomial, t) == 0.0


def test_scan_walks_up_from_the_spectral_floor(solves):
    # random_table(9,2): the certificate at d = 4 is above 1/3, so d = 5 is
    # solved first, then d = 4 for the report
    scan = approx_degree_scan(random_table(9, 2), 0.3333)
    assert (scan.degree, solves, sorted(scan.errors)) == (5, [5, 4], [4, 5])
    solves.clear()
    scan = approx_degree_scan(builtin("maj", 7), 0.3333)
    assert (scan.degree, solves) == (3, [1, 2, 3])


def test_scan_knows_t0_without_highs(solves, monkeypatch):
    calls, solve = [], approxdeg.linprog

    def recording(*args, **kwargs):
        calls.append(kwargs["A_eq"].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(approxdeg, "linprog", recording)
    scan = approx_degree_scan(OR2, 1 / 3)
    assert (scan.degree, solves, len(calls)) == (1, [1], 1)
    assert scan.errors[0] == 0.5
    assert scan.polynomials[0].coeffs.tolist() == [0.5, 0.0, 0.0, 0.0]
    assert max_abs_error(scan.polynomials[0], OR2) == 0.5


def test_scan_knows_a_certificate_of_one_half(solves):
    # parity's certificate is exactly 1/2 at every d < n, so p = 1/2 is optimal there
    for n in (10, 12):
        t = builtin("parity", n)
        scan = approx_degree_scan(t, 1 / 3)
        assert (scan.degree, solves, scan.errors) == (n, [], {n - 1: 0.5, n: 0.0})
        below = scan.polynomials[n - 1]
        assert below.degree == n - 1 and np.flatnonzero(below.coeffs).tolist() == [0]
        assert max_abs_error(below, t) == 0.5


@pytest.fixture(scope="module")
def every_degree(corpus):
    """HiGHS's t*_d at every d < deg f, for the first 12 corpus tables of each n = 2..8."""
    return [
        (t, [min_error_at_degree(t, d)[0] for d in range(exact_degree(t))])
        for tables in corpus.values()
        for t in tables[:12]
    ]


def test_minimax_error_floor_below_highs(every_degree):
    for t, errors in every_degree:
        spec = wht(t)
        for d, t_star in enumerate(errors):
            assert float(minimax_error_floor(spec, d)) <= t_star + FEAS_TOL


def test_scan_matches_a_scan_of_every_degree(every_degree):
    for t, errors in every_degree:
        for eps in (0.1, 1 / 3):
            scan = approx_degree_scan(t, eps)
            d = next((d for d, t_star in enumerate(errors) if t_star <= eps + FEAS_TOL), len(errors))
            assert scan.degree == d
            if d:
                assert scan.errors[d - 1] == errors[d - 1]


def test_min_error_no_reverification_failure_at_n9():
    # the dense coefficient LP reported 0.2204435093 here while its polynomial
    # achieved 0.2204435113, and re-verification raised SolverError
    t = random_table(9, 2)
    t_star, poly = min_error_at_degree(t, 6)
    assert max_abs_error(poly, t) <= t_star + FEAS_TOL
    assert t_star == pytest.approx(0.2204435097, abs=1e-8)
    assert all(bin(s).count("1") <= 6 for s in np.flatnonzero(poly.coeffs).tolist())


def test_min_error_tightest_margins_at_n9():
    # random_table(9,2) at d = 5 has the smallest re-verification margin seen
    # (achieved - t* about 1.7e-10); random_table(9,5) at d = 4 once crashed
    t = random_table(9, 2)
    t_star, poly = min_error_at_degree(t, 5)
    assert t_star == pytest.approx(0.322181802405, abs=1e-9)
    assert max_abs_error(poly, t) <= t_star + FEAS_TOL
    t = random_table(9, 5)
    t_star, poly = min_error_at_degree(t, 4)
    assert t_star == pytest.approx(0.5, abs=1e-9)
    assert max_abs_error(poly, t) <= t_star + FEAS_TOL


def test_highs_unbounded_exactly_from_exact_degree(monkeypatch):
    # in the homogenized LP s = 1/t is unbounded when t*_d = 0, i.e. d >= deg f
    calls, solve = [], approxdeg.linprog

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append((kwargs["A_eq"].shape[0], res.status))
        return res

    monkeypatch.setattr(approxdeg, "linprog", recording)
    # paper_f (degree 3), x0 on 3 variables, x0 AND x1 on 4 variables
    for t in (PAPER_F, TruthTable(3, 0xAA), TruthTable(4, 0x8888)):
        deg = exact_degree(t)
        assert deg < t.n
        calls.clear()
        for d in (deg, t.n):
            t_star, poly = min_error_at_degree(t, d)
            assert t_star == 0.0 and max_abs_error(poly, t) <= FEAS_TOL
        t_star, _ = min_error_at_degree(t, deg - 1)
        assert t_star > 0.0
        # at d = n the kernel encoding has no rows at all
        assert [status for _, status in calls] == [3, 3, 0]
        assert calls[1][0] == 0


def test_factored_rows_match_dense_reference():
    # the one check of the optimum above n = 4: the production LP against the definition
    tables = [random_table(n, seed) for n in (7, 8) for seed in (2, 3)] + [builtin("maj", 7)]
    for t in tables:
        for d in range(exact_degree(t)):
            t_star, poly = min_error_at_degree(t, d)
            assert t_star == pytest.approx(dense_chebyshev_reference(t, d), abs=1e-9)
            assert max_abs_error(poly, t) <= t_star + FEAS_TOL


def test_factored_kernel_rows_stay_sparse(monkeypatch):
    # at most 8 nonzeros per row in each of the floor(r/2) held blocks of 2^n
    # rows, 2^w + 1 in each of the m last-stage rows (w = 2, or 1 for odd n)
    for t in (random_table(8, 3), random_table(10, 3)):
        r, w = (t.n + 1) // 2, 2 - t.n % 2
        for d in range(t.n + 1):
            m = int(np.count_nonzero(popcounts(t.n) > d))
            nnz = approxdeg._factored_kernel_rows(t, d).nnz
            assert nnz <= 8 * (r // 2) * t.size + ((1 << w) + 1) * m
    # the dense kernel block H_{>d} held m 2^n = 386 * 1024 nonzeros here
    sizes, solve = [], approxdeg.linprog

    def recording(*args, **kwargs):
        sizes.append(kwargs["A_eq"].nnz)
        return solve(*args, **kwargs)

    monkeypatch.setattr(approxdeg, "linprog", recording)
    t = random_table(10, 3)
    t_star, poly = min_error_at_degree(t, 5)
    assert max_abs_error(poly, t) <= t_star + FEAS_TOL
    assert sizes == [approxdeg._factored_kernel_rows(t, 5).nnz]


def test_min_error_maj9_within_solver_tolerance():
    # at HiGHS's default primal feasibility tolerance (1e-7) the returned p
    # missed the reported objective by 1.3e-9 and failed re-verification
    t = builtin("maj", 9)
    t_star, poly = min_error_at_degree(t, 4)
    assert max_abs_error(poly, t) <= t_star + FEAS_TOL
    assert t_star == pytest.approx(2 / 7, abs=1e-9)


def test_min_error_or2_degree1():
    # true minimax at degree 1 is 1/4 (see the exact solver above);
    # p = 1/4 + x0/2 + x1/2 equioscillates at +-1/4
    t_star, poly = min_error_at_degree(OR2, 1)
    assert t_star == pytest.approx(0.25, abs=1e-9)
    assert max_abs_error(poly, OR2) <= t_star + 1e-9


def test_min_error_monotone_in_degree():
    t = random_table(4, 41)
    errors = [min_error_at_degree(t, d)[0] for d in range(5)]
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi + 1e-12


def test_parity4_needs_full_degree():
    t3, _ = min_error_at_degree(builtin("parity", 4), 3)
    assert t3 > 1 / 3
    assert approx_degree(builtin("parity", 4), 1 / 3) == 4


def test_approx_degree_or2():
    assert approx_degree(OR2, 1 / 3) == 1


def test_approx_degree_eps_zero_is_exact_degree():
    for seed in range(4):
        t = random_table(5, 2100 + seed)
        assert approx_degree(t, 0.0) == exact_degree(t)


def test_approx_degree_paper_f():
    # the iterated-family degree claim at depth 1: a degree-2 fit stays far
    # from the function, so the 1/3-approximate degree is the full 3
    scan = approx_degree_scan(PAPER_F, 1 / 3)
    assert scan.degree == 3
    assert scan.errors[2] > 1 / 3


def test_polynomial_respects_degree_bound():
    _, poly = min_error_at_degree(random_table(4, 99), 2)
    assert all(bin(s).count("1") <= 2 for s in np.flatnonzero(poly.coeffs).tolist())
    with pytest.raises(InputError):
        MultilinearPoly(3, np.eye(8)[0b111], 2)
    with pytest.raises(InputError):
        MultilinearPoly(3, np.ones(4), 3)


def test_lp_capacity():
    with pytest.raises(CapacityError):
        min_error_at_degree(random_table(13, 0), 1)


def test_eps_range():
    with pytest.raises(InputError):
        approx_degree(OR2, 0.5)
    with pytest.raises(InputError):
        approx_degree(OR2, -0.1)


# --- flip statistic -------------------------------------------------------


def test_mean_square_flip_constant():
    assert mean_square_flip(MultilinearPoly(3, np.eye(8)[0] * 0.7, 0)) == 0.0


def test_mean_square_flip_single_character():
    # a lone character with mass c^2 at weight w gives 4 c^2 w / n
    for n, s in [(3, 0b101), (4, 0b1), (5, 0b11111)]:
        poly = MultilinearPoly(n, np.eye(1 << n)[s], n)
        w = bin(s).count("1")
        assert mean_square_flip(poly) == pytest.approx(4 * w / n, abs=1e-12)


def test_mean_square_flip_lp_poly_sandwich():
    # (1 - 2 eps)^2 rho <= E' <= 4 (1 + eps)^2 d / n for the returned fits,
    # and E' is its spectral form 4 sum_s c_s^2 |s| / n
    for seed in range(5):
        t = random_table(4, 3100 + seed)
        rho = float(measures.avg_influence(t))
        for d in range(5):
            t_star, poly = min_error_at_degree(t, d)
            eps = max_abs_error(poly, t)
            e_prime = mean_square_flip(poly)
            assert e_prime == pytest.approx(4 * float(poly.coeffs**2 @ popcounts(t.n)) / t.n, abs=1e-9)
            assert (1 - 2 * eps) ** 2 * rho - 1e-9 <= e_prime
            assert e_prime <= 4 * (1 + eps) ** 2 * d / t.n + 1e-9
