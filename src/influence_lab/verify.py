"""Oracle cross-check suites behind the CLI verify command.

Each suite replays the brute-force-vs-fast equivalences the package is built
on and returns one Check per equivalence, with a counterexample description
on failure. A check is a lazy search for counterexamples that stops at the
first one. Suites are seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds, fourier, lp, measures, oracles, qsim
from .truthtable import builtin, random_table, table_id


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    passed: bool
    counterexample: str | None = None


def _check(suite: str, name: str, counterexamples) -> Check:
    """The check passes when the search yields nothing; else it reports the first find."""
    found = next(iter(counterexamples), None)
    return Check(suite, name, found is None, found)


def _tables(n_max: int, seed: int, samples: int):
    for n in range(2, n_max + 1):
        for j in range(samples):
            yield random_table(n, seed + 1000 * n + j)


def _round_trips(t, spec) -> bool:
    try:
        return fourier.inverse_wht(spec) == t
    except Exception:
        return False


def suite_fourier(n_max: int, seed: int, samples: int) -> list[Check]:
    cases = [(t, fourier.wht(t)) for t in _tables(min(n_max, 8), seed, samples)]
    builtins = (f"{name}({n})" for name, n, ref in oracles.builtin_references() if builtin(name, n) != ref)
    transform = (table_id(t) for t, spec in cases if not np.array_equal(spec.sums, oracles.wht_direct(t)))
    parseval = (table_id(t) for t, spec in cases if spec.parseval_sum() != 1)
    roundtrip = (table_id(t) for t, spec in cases if not _round_trips(t, spec))
    return [
        _check("fourier", "builtins match pointwise tabulation", builtins),
        _check("fourier", "butterfly matches direct summation", transform),
        _check("fourier", "Parseval sum is exactly 1", parseval),
        _check("fourier", "inverse transform round-trips", roundtrip),
    ]


def _influence_mismatches(cases):
    for t, spec in cases:
        den = spec.denominator**2
        for i in range(t.n):
            mask_has_i = (np.arange(t.size) >> i) & 1 == 1
            num = int((spec.sums[mask_has_i].astype(object) ** 2).sum())
            if Fraction(num, den) != measures.influence(t, i):
                yield f"{table_id(t)} variable {i}"


def suite_measures(n_max: int, seed: int, samples: int) -> list[Check]:
    cases = [(t, fourier.wht(t)) for t in _tables(n_max, seed, samples)]
    rho = (table_id(t) for t, spec in cases if measures.avg_influence(t) != fourier.avg_influence(spec))
    avg_sens = (
        table_id(t)
        for t, _ in cases
        if Fraction(int(measures.sensitivity_profile(t).sum()), t.size) != measures.avg_sensitivity(t)
    )
    bs = (
        table_id(t)
        for t, _ in cases
        if t.n <= 6 and measures.block_sensitivity(t).value != oracles.block_sensitivity_naive(t)
    )
    return [
        _check("measures", "counting influence equals spectral influence", rho),
        _check("measures", "average sensitivity equals rho * n", avg_sens),
        _check("measures", "per-variable influence matches squared-mass identity", _influence_mismatches(cases)),
        _check("measures", "block sensitivity matches naive packing", bs),
    ]


def _flip_mismatches(cases):
    for t, spec in cases:
        if t.n <= 6:  # k=5 brute force is n^5 2^n evaluations
            for k in (1, 3, 5):
                if bounds.flip_prob_spectral(spec, k) != oracles.flip_prob_bruteforce(t, k):
                    yield f"{table_id(t)} k={k}"


def _reduction_mismatches(cases):
    for t, spec in cases:
        rho = measures.avg_influence(t)
        for eps in (0.0, 0.1, 1 / 3):
            lhs = bounds.query_lb_influence_k(spec, eps, 1).value
            rhs = bounds.query_lb_influence(float(rho), t.n, eps).value
            if abs(lhs - rhs) > 1e-12:
                yield f"{table_id(t)} eps={eps}"


def _parity_mismatches(n_max: int):
    for n in range(2, n_max + 1):
        spec = fourier.wht(builtin("parity", n))
        for k in (1, 3, 5, 7):
            if bounds.query_lb_influence_k(spec, 0.0, k).value != n / 2:
                yield f"n={n} k={k}"


def _floor_violations(n_max: int, seed: int, samples: int):
    # the exact simplex takes up to 0.5 s per degree at n = 4, so two tables per n
    tables = [(table_id(t), t) for t in _tables(min(n_max, 4), seed, min(samples, 2))]
    tables += [(f"{name}({n})", builtin(name, n)) for name, n, _ in oracles.builtin_references() if n <= 4]
    for label, t in tables:
        spec = fourier.wht(t)
        for d in range(fourier.spectral_degree(spec)):  # both are 0 from deg f on
            floor, (exact, _) = bounds.minimax_error_floor(spec, d), lp.minimax_fit_exact(t, d)
            if floor > exact:
                yield f"{label} d={d}: floor {floor} > t* {exact}"


def suite_bounds(n_max: int, seed: int, samples: int) -> list[Check]:
    cases = [(t, fourier.wht(t)) for t in _tables(n_max, seed, samples)]
    return [
        _check("bounds", "spectral flip probability equals brute force", _flip_mismatches(cases)),
        _check("bounds", "k=1 bound reduces to the influence bound", _reduction_mismatches(cases)),
        _check("bounds", "parity bound is exactly n/2 for every odd k", _parity_mismatches(n_max)),
        _check(
            "bounds",
            "spectral minimax floor never exceeds the exact minimax error",
            _floor_violations(n_max, seed, samples),
        ),
    ]


def _algorithms(n_max: int, seed: int, samples: int):
    # serial_read's steps depend on n alone and no qsim check reads the accept
    # set, so every table of one n repeats the same run: five per n suffice
    for t in _tables(min(n_max, 4), seed, min(samples, 5)):
        yield f"serial_read {table_id(t)}", qsim.serial_read(t)
    for n in range(2, min(n_max, 4) + 1):
        if n % 2 == 0:
            yield f"deutsch_parity n={n}", qsim.deutsch_parity(n)
        yield f"grover n={n}", qsim.grover(n, 1)


def _direct_mismatches(runs):
    for label, alg, state in runs:
        for x in range(1 << alg.layout.n_index):
            if np.max(np.abs(qsim.reconstruct(state, x) - qsim.simulate_direct(alg, x))) > 1e-9:
                yield f"{label} oracle x={x}"


def _batched_mismatches(runs):
    for label, alg, state in runs:
        batched = qsim.oracle_states(state)
        for x in range(1 << alg.layout.n_index):
            if np.max(np.abs(batched[x] - qsim.reconstruct(state, x))) > 1e-12:
                yield f"{label} oracle x={x}"


def _displacement_mismatches(runs):
    for label, _, state in runs:
        for k in (1, 3):
            if abs(qsim.displacement_statistic(state, k) - oracles.displacement_direct(state, k)) > 1e-9:
                yield f"{label} k={k}"


def suite_qsim(n_max: int, seed: int, samples: int) -> list[Check]:
    runs, failed = [], []
    for label, alg in _algorithms(n_max, seed, samples):
        try:
            runs.append((label, alg, qsim.run(alg)))  # run() itself asserts norm and support growth
        except Exception as exc:
            failed.append(f"{label}: {exc}")
    return [
        _check("qsim", "norm and support invariants hold on every run", failed),
        _check("qsim", "Fourier picture matches the direct simulator", _direct_mismatches(runs)),
        _check("qsim", "batched oracle states match per-oracle reconstruction", _batched_mismatches(runs)),
        _check("qsim", "displacement statistic matches pair enumeration", _displacement_mismatches(runs)),
    ]


_SUITES = {
    "fourier": suite_fourier,
    "measures": suite_measures,
    "bounds": suite_bounds,
    "qsim": suite_qsim,
}


def run_suites(which: str = "all", n_max: int = 6, seed: int = 1, samples: int = 20) -> list[Check]:
    if which != "all" and which not in _SUITES:
        raise ValueError(f"unknown suite {which!r}")
    names = list(_SUITES) if which == "all" else [which]
    return [c for name in names for c in _SUITES[name](n_max=n_max, seed=seed, samples=samples)]


__all__ = ["Check", "run_suites", "suite_bounds", "suite_fourier", "suite_measures", "suite_qsim"]
