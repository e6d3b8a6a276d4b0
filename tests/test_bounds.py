import math
from fractions import Fraction

import pytest

from influence_lab import fourier, measures
from influence_lab.bounds import (
    bound_report,
    correlation_decay,
    degree_lb_block_sensitivity,
    degree_lb_influence,
    displacement_lower_bound,
    displacement_upper_bound,
    flip_prob_spectral,
    minimax_error_floor,
    query_lb_block_sensitivity,
    query_lb_degree,
    query_lb_influence,
    query_lb_influence_best,
    query_lb_influence_k,
)
from influence_lab.dsl import elaborate
from influence_lab.errors import CapacityError, InputError
from influence_lab.oracles import flip_prob_bruteforce
from influence_lab.truthtable import TruthTable, builtin, random_table

AND2 = TruthTable.from_bits([0, 0, 0, 1])


def test_flip_prob_routes_agree(small_corpus):
    for n in (2, 3, 4, 5):
        for t in small_corpus[n][:6]:
            weights = fourier.wht(t).weight_profile()
            for k in (1, 3, 5):
                assert flip_prob_spectral(weights, k) == flip_prob_bruteforce(t, k)


def test_flip_prob_parity_is_one():
    weights = fourier.wht(builtin("parity", 4)).weight_profile()
    for k in (1, 3, 5, 7, 9):
        assert flip_prob_spectral(weights, k) == 1
    assert flip_prob_bruteforce(builtin("parity", 4), 3) == 1


def test_flip_prob_k1_is_avg_influence(small_corpus):
    # the spectral rho every bound reads equals the counting rho of measures
    for tables in small_corpus.values():
        for t in tables:
            assert flip_prob_spectral(fourier.wht(t).weight_profile(), 1) == measures.avg_influence(t)


def test_flip_prob_k1_values():
    assert flip_prob_spectral(fourier.wht(builtin("parity", 5)).weight_profile(), 1) == 1
    assert flip_prob_spectral(fourier.wht(AND2).weight_profile(), 1) == Fraction(1, 2)
    assert flip_prob_spectral(fourier.wht(TruthTable(4, 0)).weight_profile(), 1) == 0


def test_flip_prob_k1_is_dyadic():
    rho = flip_prob_spectral(fourier.wht(random_table(5, 31)).weight_profile(), 1)
    # rho * n has a power-of-two denominator
    assert (rho * 5).denominator & ((rho * 5).denominator - 1) == 0


def test_flip_prob_and2():
    assert flip_prob_bruteforce(AND2, 1) == Fraction(1, 2)


def test_flip_prob_constant_zero():
    weights = fourier.wht(TruthTable(4, 0)).weight_profile()
    for k in (1, 3):
        assert flip_prob_spectral(weights, k) == 0


def test_flip_prob_rejects_even_k():
    weights = fourier.wht(AND2).weight_profile()
    for k in (0, 2, -1, 4):
        with pytest.raises(InputError):
            flip_prob_spectral(weights, k)
        with pytest.raises(InputError):
            flip_prob_bruteforce(AND2, k)


def test_flip_prob_capacity():
    with pytest.raises(CapacityError):
        flip_prob_bruteforce(random_table(16, 0), 5)


def test_query_lb_influence_parity():
    assert query_lb_influence(1.0, 8, 0.0) == (4.0, False)
    # random-function corollary shape: rho = 1/2 gives (1 - 2 sqrt(eps))/4 * n
    b = query_lb_influence(0.5, 8, 0.04)
    assert b.value == pytest.approx((1 - 2 * 0.2) / 4 * 8, abs=1e-12)
    assert query_lb_influence(0.0, 8, 0.0).value == 0.0


def test_query_lb_influence_vacuous():
    assert query_lb_influence(1.0, 4, 0.25).vacuous
    assert query_lb_influence(1.0, 4, 0.3) == (0.0, True)
    assert not query_lb_influence(1.0, 4, 0.2).vacuous


def test_query_lb_monotone_in_eps():
    for fn in (
        lambda e: query_lb_influence(0.7, 6, e).value,
        lambda e: degree_lb_influence(0.7, 6, e),
    ):
        values = [fn(e) for e in (0.0, 0.05, 0.1, 0.2, 0.3, 0.45)]
        assert values == sorted(values, reverse=True)


def test_query_lb_k1_reduces_to_influence_bound(small_corpus):
    for t in small_corpus[5][:8]:
        weights = fourier.wht(t).weight_profile()
        rho = float(measures.avg_influence(t))
        for eps in (0.0, 0.04, 1 / 3, 0.6):
            assert query_lb_influence_k(weights, eps, 1).value == pytest.approx(
                query_lb_influence(rho, t.n, eps).value, abs=1e-12
            )


def test_query_lb_k_parity_exact():
    for n in (2, 5, 8):
        weights = fourier.wht(builtin("parity", n)).weight_profile()
        for k in range(1, 16, 2):
            assert query_lb_influence_k(weights, 0.0, k).value == n / 2


def test_query_lb_k_constant():
    weights = fourier.wht(TruthTable(4, 0)).weight_profile()
    assert query_lb_influence_k(weights, 0.0, 3).value == 0.0


def test_influence_bounds_agree_on_vacuity(small_corpus):
    # both forms are 0 at eps >= 1/4, so both must flag it
    tables = [t for ts in small_corpus.values() for t in ts] + [TruthTable(4, 0)]
    for t in tables:
        weights = fourier.wht(t).weight_profile()
        rho = float(measures.avg_influence(t))
        for eps in (0.0, 0.1, 0.25, 1 / 3, 0.6):
            direct = query_lb_influence(rho, t.n, eps)
            assert query_lb_influence_k(weights, eps, 1).vacuous == direct.vacuous, (str(t), eps)
            assert query_lb_influence_best(weights, eps)[1].vacuous == direct.vacuous


def test_query_lb_k_rejects_even():
    weights = fourier.wht(AND2).weight_profile()
    with pytest.raises(InputError):
        query_lb_influence_k(weights, 0.0, 2)


def test_query_lb_best_picks_smallest_tie():
    weights = fourier.wht(builtin("parity", 4)).weight_profile()
    k_star, best = query_lb_influence_best(weights, 0.0)
    assert k_star == 1
    assert best.value == 2.0


def test_query_lb_best_is_exact_to_the_ulp():
    # (1 - 2 sqrt(0.1))/2 * rho * n for or(16), rho = 2^-15, is 8.97325361245908529...e-05 in
    # 50-digit Decimal; a route through 1 - radicand cancels when rho is this small
    weights = fourier.wht(builtin("or", 16)).weight_profile()
    exact = 8.973253612459085e-05
    assert abs(query_lb_influence_best(weights, 0.1)[1].value - exact) <= math.ulp(exact)


def test_no_odd_k_beats_k1(small_corpus):
    # the theorem query_lb_influence_best rests on
    tables = [t for ts in small_corpus.values() for t in ts]
    for n in range(1, 13):
        tables += [builtin("parity", n), builtin("and", n), builtin("or", n)]
        if n % 2:
            tables.append(builtin("maj", n))
    tables += [builtin("paper_f", 4), elaborate("compose(maj(3),paper_f)"), elaborate("iterate(paper_f,2)")]
    for t in tables:
        weights = fourier.wht(t).weight_profile()
        for eps in (0.0, 1e-6, 0.01, 0.1, 0.2, 0.2499):
            k1 = query_lb_influence_k(weights, eps, 1).value
            for k in range(3, 16, 2):
                assert query_lb_influence_k(weights, eps, k).value <= k1 + 1e-12, (str(t), eps, k)


def test_fixed_form_bounds():
    assert query_lb_block_sensitivity(9) == 0.75
    assert degree_lb_block_sensitivity(9) == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert query_lb_degree(0) == 0.0
    assert query_lb_degree(5) == 2.5
    # iterated family: BS = 3^k
    for k in (1, 2):
        assert degree_lb_block_sensitivity(3**k) == pytest.approx(
            math.sqrt(3**k / 6), abs=1e-15
        )
    with pytest.raises(InputError):
        query_lb_block_sensitivity(-1)


def test_degree_lb_influence_values():
    assert degree_lb_influence(1.0, 8, 1 / 3) == pytest.approx(8 / 64, abs=1e-12)
    assert degree_lb_influence(0.5, 8, 0.0) == 0.5 * 8 / 4
    assert degree_lb_influence(0.0, 8, 0.1) == 0.0
    with pytest.raises(InputError):
        degree_lb_influence(1.0, 8, 0.5)


def test_displacement_bounds_shapes():
    weights = fourier.wht(builtin("parity", 4)).weight_profile()
    assert displacement_lower_bound(weights, 0.25, 1) == 0.0  # 2 - 4 sqrt(1/4) = 0
    assert displacement_lower_bound(weights, 1.0, 1) == 0.0  # clamped when negative
    assert displacement_upper_bound(4, 4, 3) == 4.0  # (-1)^3
    assert displacement_upper_bound(2, 4, 1) == 2.0  # zero base
    with pytest.raises(InputError):
        displacement_lower_bound(weights, 1.5, 1)
    with pytest.raises(InputError):
        displacement_upper_bound(5, 4, 1)
    with pytest.raises(InputError):
        displacement_upper_bound(2, 4, 2)


def test_correlation_decay_parseval_link():
    # at k=1 the decay is 1 - 2 rho, an exact identity through Parseval
    for seed in range(5):
        t = random_table(4, 700 + seed)
        weights = fourier.wht(t).weight_profile()
        assert correlation_decay(weights, 1) == 1 - 2 * measures.avg_influence(t)


def test_bound_report_reads_the_counting_rho(small_corpus):
    # bound_report takes rho off the level weights; every reported value is the
    # one the counting rho of measures gives
    for tables in small_corpus.values():
        for t in tables:
            weights = fourier.wht(t).weight_profile()
            rho = float(measures.avg_influence(t))
            for eps in (0.0, 0.1, 1 / 3, 0.6):
                report = bound_report(weights, eps)
                assert report.query_influence == query_lb_influence(rho, t.n, eps)
                assert report.query_influence_best == report.query_influence
                assert report.degree_influence == (degree_lb_influence(rho, t.n, eps) if eps < 0.5 else 0.0)


def test_minimax_error_floor_known_values(small_corpus):
    # at d = 0 the certificate is exactly the 1/2 that p = 1/2 attains; from deg f on it is 0
    for tables in small_corpus.values():
        for t in tables:
            spec = fourier.wht(t)
            deg = fourier.spectral_degree(spec)
            assert minimax_error_floor(spec, 0) == (Fraction(1, 2) if deg else 0)
            assert all(minimax_error_floor(spec, d) == 0 for d in range(deg, t.n + 1))
            assert all(minimax_error_floor(spec, d) > 0 for d in range(deg))
    # OR_2 at d = 1: psi is the parity character, and the floor is the exact t*_1 = 1/4
    assert minimax_error_floor(fourier.wht(builtin("or", 2)), 1) == Fraction(1, 4)
    assert minimax_error_floor(fourier.wht(TruthTable(3, 0)), 0) == 0


def test_minimax_error_floor_equals_its_dual_sum():
    # <f, psi> / ||psi||_1 with psi = -2^n F_{>d}, summed directly over inputs
    for seed in range(4):
        t = random_table(5, 4100 + seed)
        spec = fourier.wht(t)
        f = [int(b) for b in t.bits()]
        for d in range(t.n + 1):
            high = [int(c) if bin(s).count("1") > d else 0 for s, c in enumerate(spec.sums)]
            psi = [-sum(c * (-1) ** bin(s & x).count("1") for s, c in enumerate(high)) for x in range(t.size)]
            l1 = sum(map(abs, psi))
            expect = Fraction(sum(fx * px for fx, px in zip(f, psi)), l1) if l1 else 0
            assert minimax_error_floor(spec, d) == expect


def test_minimax_error_floor_rejects_bad_degree():
    spec = fourier.wht(builtin("or", 2))
    for d in (-1, 3):
        with pytest.raises(InputError):
            minimax_error_floor(spec, d)
