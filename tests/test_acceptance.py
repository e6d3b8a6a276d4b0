"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values are either independent-oracle results computed in place
(direct summation, naive packing, exact rational LP), fixed family numbers
(average sensitivity 2.5^k and block sensitivity 3^k for the iterated
4-variable base function, n/2 for parity), or frozen hand-derived constants.
Runtime limits are asserted where the criterion states one.

Criterion 9's minimax value for the 2-variable OR at degree 1 is 1/4 for
the LP as defined (range of p not bounded) and 1/3 for the [0, 1]-bounded
acceptance-probability variant; the test asserts each against its own LP.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from influence_lab import approxdeg, bounds, fourier, lp, measures, oracles, qsim
from influence_lab.truthtable import builtin, iterate, popcounts, random_table


@contextmanager
def criterion(num, label, limit_seconds=None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} {label}: FAIL", file=sys.__stdout__, flush=True)
        raise
    elapsed = time.monotonic() - started
    note = f" ({elapsed:.1f}s)" if limit_seconds else ""
    print(f"ACCEPTANCE {num:>2} {label}: PASS{note}", file=sys.__stdout__, flush=True)
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"runtime {elapsed:.1f}s exceeds {limit_seconds}s"


def test_criterion_1_fourier_identities(corpus):
    with criterion(1, "fourier identities vs direct oracle", 10):
        for tables in corpus.values():
            for t in tables:
                spec = fourier.wht(t)
                assert np.array_equal(spec.sums, oracles.wht_direct(t))
                assert spec.parseval_sum() == 1
                assert fourier.inverse_wht(spec) == t


def test_criterion_2_influence_identities(corpus):
    with criterion(2, "influence equals spectral rho, avg sensitivity rho*n", 10):
        for tables in corpus.values():
            for t in tables:
                rho = measures.avg_influence(t)
                assert rho == bounds.flip_prob_spectral(fourier.wht(t).weight_profile(), 1)
                by_enum = Fraction(int(oracles.sensitivity_profile(t).sum()), t.size)
                assert measures.avg_sensitivity(t) == rho * t.n == by_enum


def test_criterion_3_flip_probability(corpus):
    with criterion(3, "flip probability spectral vs brute force", 60):
        for n in range(2, 7):
            for t in corpus[n]:
                weights = fourier.wht(t).weight_profile()
                for k in (1, 3, 5):
                    # exact rational equality, stronger than the 1e-12 tolerance
                    assert bounds.flip_prob_spectral(weights, k) == oracles.flip_prob_bruteforce(t, k)
        parity_weights = fourier.wht(builtin("parity", 5)).weight_profile()
        for k in range(1, 16, 2):
            assert bounds.flip_prob_spectral(parity_weights, k) == 1


def test_criterion_4_iterated_family():
    base = builtin("paper_f", 4)
    with criterion(4, "iterated family: avg sensitivity 2.5^k, block sensitivity 3^k", 600):
        assert measures.avg_sensitivity(base) == Fraction(5, 2)
        bs1 = measures.block_sensitivity(base)
        assert bs1.value == 3 and bs1.exact

        level2 = iterate(base, 2)
        t0 = time.monotonic()
        assert measures.avg_sensitivity(level2) == Fraction(25, 4)
        assert time.monotonic() - t0 < 1.0
        bs2 = measures.block_sensitivity(level2)
        assert bs2.value == 9 and bs2.exact


def test_criterion_5_bound_coherence(corpus):
    with criterion(5, "k=1 bound equals influence bound; parity n/2 at every odd k"):
        for tables in corpus.values():
            for t in tables:
                weights = fourier.wht(t).weight_profile()
                rho = float(measures.avg_influence(t))
                for eps in (0.0, 1 / 9, 1 / 3):
                    general = bounds.query_lb_influence_k(weights, eps, 1).value
                    main = bounds.query_lb_influence(rho, t.n, eps).value
                    assert abs(general - main) <= 1e-12
        for n in range(2, 9):
            weights = fourier.wht(builtin("parity", n)).weight_profile()
            for k in range(1, 16, 2):
                assert bounds.query_lb_influence_k(weights, 0.0, k).value == n / 2


def test_criterion_6_parity_tightness():
    with criterion(6, "parity algorithm meets the influence bound exactly", 60):
        for n in (2, 4, 8):
            alg = qsim.deutsch_parity(n)
            profile = qsim.error_profile(alg, builtin("parity", n))
            assert profile.worst <= 1e-9
            assert alg.queries == n // 2
            assert alg.queries == bounds.query_lb_influence(1.0, n, 0.0).value


def _builtins_for(n: int, seed: int):
    algs = [qsim.serial_read(random_table(n, seed)), qsim.grover(n, 1)]
    if n % 2 == 0:
        algs.append(qsim.deutsch_parity(n))
    return algs


def test_criterion_7_simulator_invariants():
    with criterion(7, "support growth, unit norm, direct-simulator agreement", 60):
        for n in (2, 3, 4):
            for alg in _builtins_for(n, 5150 + n):
                queries_seen = 0
                state = qsim.initial_state(alg.layout)
                for step in alg.steps:
                    if isinstance(step, qsim.Query):
                        qsim.apply_query(state)
                        queries_seen += 1
                    else:
                        qsim.apply_unitary(state, step)
                    assert state.max_weight() <= queries_seen
                    assert abs(state.norm_sq() - 1.0) <= 1e-9
                for x in range(1 << n):
                    delta = np.max(
                        np.abs(qsim.reconstruct(state, x) - qsim.simulate_direct(alg, x))
                    )
                    assert delta <= 1e-9


def test_criterion_8_displacement_sandwich():
    with criterion(8, "displacement sandwich and distinguishability gap", 300):
        for n in (2, 4, 6):
            tables = [random_table(n, 8800 + 31 * n + j) for j in range(20)]
            serial_state = qsim.run(qsim.serial_read(tables[0]))
            parity_state = qsim.run(qsim.deutsch_parity(n))
            runs = [
                (serial_state, lambda f: qsim.serial_read(f).accept, n),
                (parity_state, lambda f: qsim.deutsch_parity(f.n).accept, n // 2),
            ]
            for f in tables:
                weights = fourier.wht(f).weight_profile()
                for state, accept_of, queries in runs:
                    profile = qsim.profile_state(state, accept_of(f), f)
                    eps = min(profile.worst, 1.0)
                    for k in (1, 3):
                        e_val = qsim.displacement_statistic(state, k)
                        lower = bounds.displacement_lower_bound(weights, eps, k)
                        upper = bounds.displacement_upper_bound(queries, n, k)
                        assert lower - 1e-9 <= e_val <= upper + 1e-9
        # the 2 - 4 sqrt(eps) separation, full pair scan at n <= 5
        for n in (3, 5):
            f = random_table(n, 9900 + n)
            state = qsim.run(qsim.serial_read(f))
            assert not qsim.gap_check(state, f, 0.0).violated
        parity4 = builtin("parity", 4)
        state = qsim.run(qsim.deutsch_parity(4))
        assert not qsim.gap_check(state, parity4, 0.0).violated


_SCAN_CACHE: dict = {}


def _scan(t, eps: float):
    key = (t.n, t.packed, round(eps, 12))
    if key not in _SCAN_CACHE:
        _SCAN_CACHE[key] = approxdeg.approx_degree_scan(t, eps)
    return _SCAN_CACHE[key]


def test_criterion_9_approximate_degree(corpus):
    with criterion(9, "approximate degree by LP", 120):
        assert _scan(builtin("parity", 4), 1 / 3).degree == 4
        or2 = builtin("or", 2)
        assert _scan(or2, 1 / 3).degree == 1
        for tables in corpus.values():
            for t in tables:
                scan = _scan(t, 0.0)
                assert scan.degree == approxdeg.exact_degree(t)
                # re-verify the returned polynomial against every constraint
                for d, poly in scan.polynomials.items():
                    assert approxdeg.max_abs_error(poly, t) <= scan.errors[d] + 1e-9


def _or2_bounded_minimax_exact():
    """Exact degree-1 minimax error of OR_2 when p must also stay in [0, 1].

    Same Chebyshev LP as lp.minimax_fit_exact (c_s = u_s - v_s, then t),
    plus the rows p(x) <= 1 and -p(x) <= 0 of the acceptance-probability
    variant.
    """
    bits = builtin("or", 2).bits()
    masks = [0b00, 0b01, 0b10]
    costs = [Fraction(0)] * (2 * len(masks)) + [Fraction(1)]
    a_rows, b = [], []
    for x in range(4):
        chars = [Fraction((-1) ** bin(s & x).count("1")) for s in masks]
        p_row = chars + [-c for c in chars]
        neg_row = [-v for v in p_row]
        fx = Fraction(int(bits[x]))
        a_rows += [p_row + [Fraction(-1)], neg_row + [Fraction(-1)]]
        b += [fx, -fx]
        a_rows += [p_row + [Fraction(0)], neg_row + [Fraction(0)]]
        b += [Fraction(1), Fraction(0)]
    value, _ = lp.solve_min_exact(costs, a_rows, b)
    return value


def test_criterion_9_or2_minimax_value_as_stated():
    # The LP as defined in approxdeg (real p of degree <= 1, range not
    # bounded, 0/1 target) has minimax error 1/4 for OR_2: the primal
    # p = 1/4 + x0/2 + x1/2 misses by exactly +-1/4 at all four inputs, and
    # the dual psi(x) = (-1)^(x0+x1) is orthogonal to every character of
    # degree <= 1, so |<f,psi>| / ||psi||_1 = 1/4 bounds any such p from
    # below. The value 1/3 belongs to the [0, 1]-bounded acceptance-
    # probability variant (Beals et al.), checked here on its own LP.
    with criterion(9, "minimax value of the 2-variable OR at degree 1: 1/4, 1/3 if p in [0, 1]"):
        or2 = builtin("or", 2)
        t_star, poly = approxdeg.min_error_at_degree(or2, 1)
        assert abs(t_star - 0.25) <= approxdeg.FEAS_TOL
        assert abs(approxdeg.max_abs_error(poly, or2) - 0.25) <= approxdeg.FEAS_TOL

        exact, _ = lp.minimax_fit_exact(or2, 1)
        assert exact == Fraction(1, 4)

        f = [Fraction(int(b)) for b in or2.bits()]
        psi = [Fraction((-1) ** bin(x).count("1")) for x in range(4)]
        for s in (0b00, 0b01, 0b10):
            assert sum(psi[x] * (-1) ** bin(s & x).count("1") for x in range(4)) == 0
        dual_lower = abs(sum(fx * px for fx, px in zip(f, psi))) / sum(map(abs, psi))
        assert dual_lower == Fraction(1, 4)

        assert _or2_bounded_minimax_exact() == Fraction(1, 3)


def test_criterion_10_degree_bound_consistency(corpus):
    with criterion(10, "degree lower bounds and flip-energy sandwich", 600):
        for tables in corpus.values():
            for t in tables:
                rho = float(measures.avg_influence(t))
                bs = measures.block_sensitivity(t).value
                d_third = _scan(t, 1 / 3).degree
                d_zero = _scan(t, 0.0).degree
                for eps, d in ((0.0, d_zero), (1 / 3, d_third)):
                    assert d >= bounds.degree_lb_influence(rho, t.n, eps) - 1e-9
                assert d_third >= math.sqrt(bs / 6) - 1e-9
                for scan in (_scan(t, 0.0), _scan(t, 1 / 3)):
                    for d, poly in scan.polynomials.items():
                        eps_achieved = approxdeg.max_abs_error(poly, t)
                        e_prime = oracles.mean_square_flip(poly)
                        spectral = 4 * float(poly.coeffs**2 @ popcounts(t.n)) / t.n
                        assert abs(e_prime - spectral) <= 1e-9
                        assert (1 - 2 * eps_achieved) ** 2 * rho - 1e-9 <= e_prime
                        assert e_prime <= 4 * (1 + eps_achieved) ** 2 * d / t.n + 1e-9


def test_criterion_11_random_function_influence():
    with criterion(11, "random functions have average influence near 1/2", 5):
        rhos = [float(measures.avg_influence(random_table(10, seed))) for seed in range(50)]
        assert abs(sum(rhos) / len(rhos) - 0.5) < 0.05


def test_criterion_12_deterministic_reports():
    with criterion(12, "byte-identical analyze reports"):
        cmd = [
            sys.executable,
            "-m",
            "influence_lab.cli",
            "analyze",
            "--expr",
            "maj(x0, x1, x2)",
            "--approx-degree",
            "--dump-spectrum",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        json.loads(first.stdout)  # and it is valid JSON
