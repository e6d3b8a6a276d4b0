from fractions import Fraction

import numpy as np
import pytest

from influence_lab import approxdeg, measures
from influence_lab.approxdeg import (
    FEAS_TOL,
    MultilinearPoly,
    approx_degree,
    approx_degree_scan,
    exact_degree,
    max_abs_error,
    mean_square_flip,
    min_error_at_degree,
)
from influence_lab.errors import CapacityError, InputError, SolverError
from influence_lab.lp import minimax_fit_exact, solve_min_exact
from influence_lab.truthtable import TruthTable, builtin, random_table

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


def test_exact_minimax_parity2():
    t_star, _ = minimax_fit_exact(builtin("parity", 2), 1)
    assert t_star == Fraction(1, 2)


def test_exact_matches_scipy():
    # n = 2..4 reaches both LP encodings: image rows when 4k < m (n = 3, 4 at d = 0),
    # factored kernel rows otherwise (every other d, and n = 2 throughout)
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


def test_eps_zero_scan_solves_only_the_degree_below(monkeypatch):
    solved = []

    def counting(t, d):
        solved.append(d)
        return min_error_at_degree(t, d)

    monkeypatch.setattr(approxdeg, "min_error_at_degree", counting)
    for seed in range(4):
        t = random_table(6, 2300 + seed)
        deg = exact_degree(t)
        solved.clear()
        scan = approx_degree_scan(t, 0.0)
        assert scan.degree == scan.exact_degree == deg
        assert solved == [deg - 1]
        assert scan.errors[deg] == 0.0 and scan.errors[deg - 1] > 0.0
        assert max_abs_error(scan.polynomial, t) == 0.0


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


def test_image_and_factored_kernel_encodings_agree():
    # both encodings state the same LP; each is built and solved here whichever the rule picks
    tables = [random_table(n, seed) for n in (7, 8) for seed in (2, 3)] + [builtin("maj", 7)]
    for t in tables:
        for d in range(exact_degree(t)):
            image = approxdeg._solve(t, d, approxdeg._image_rows(t, d))
            factored = approxdeg._solve(t, d, approxdeg._factored_kernel_rows(t, d))
            assert image[0] == pytest.approx(factored[0], abs=1e-9)
            for t_star, poly in (image, factored):
                assert max_abs_error(poly, t) <= t_star + FEAS_TOL


def test_factored_kernel_rows_stay_sparse(monkeypatch):
    # the dense kernel block H_{>d} held m 2^n = 386 * 1024 nonzeros here; the
    # butterfly stages hold at most (4 ceil(n/2) + 1) 2^n
    sizes, solve = [], approxdeg.linprog

    def recording(*args, **kwargs):
        sizes.append(kwargs["A_eq"].nnz)
        return solve(*args, **kwargs)

    monkeypatch.setattr(approxdeg, "linprog", recording)
    t = random_table(10, 3)
    t_star, poly = min_error_at_degree(t, 5)
    assert max_abs_error(poly, t) <= t_star + FEAS_TOL
    assert len(sizes) == 1 and sizes[0] <= (4 * 5 + 1) << 10


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


def test_scan_respects_max_degree_cap():
    with pytest.raises(SolverError):
        approx_degree_scan(builtin("parity", 4), 0.0, max_degree=2)


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
    # (1 - 2 eps)^2 rho <= E' <= 4 (1 + eps)^2 d / n for the returned fits
    for seed in range(5):
        t = random_table(4, 3100 + seed)
        rho = float(measures.avg_influence(t))
        for d in range(5):
            t_star, poly = min_error_at_degree(t, d)
            eps = max_abs_error(poly, t)
            e_prime = mean_square_flip(poly)
            assert (1 - 2 * eps) ** 2 * rho - 1e-9 <= e_prime
            assert e_prime <= 4 * (1 + eps) ** 2 * d / t.n + 1e-9
