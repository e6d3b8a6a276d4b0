"""Oracle cross-check suites behind the CLI verify command.

Each suite replays the brute-force-vs-fast equivalences the package is built
on and returns one Check per equivalence, with a counterexample description
on failure. Suites are seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds, fourier, measures, oracles, qsim
from .truthtable import builtin, random_table, table_id


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    passed: bool
    counterexample: str | None = None


def _tables(n_max: int, seed: int, samples: int, n_min: int = 2):
    for n in range(n_min, n_max + 1):
        for j in range(samples):
            yield random_table(n, seed + 1000 * n + j)


def suite_fourier(n_max: int = 6, seed: int = 1, samples: int = 20, corrupt: bool = False) -> list[Check]:
    checks = []
    bad_transform = None
    bad_parseval = None
    bad_roundtrip = None
    first = True
    for t in _tables(min(n_max, 8), seed, samples):
        spec = fourier.wht(t)
        sums = spec.sums
        if corrupt and first:
            sums = sums.copy()
            sums[0] += 2  # deliberate fault for exercising the failure path
            spec = fourier.FourierSpectrum(t.n, sums)
            first = False
        if bad_transform is None and not np.array_equal(sums, oracles.wht_direct(t)):
            bad_transform = table_id(t)
        if bad_parseval is None and spec.parseval_sum() != 1:
            bad_parseval = table_id(t)
        if bad_roundtrip is None:
            try:
                back = fourier.inverse_wht(spec)
                if back != t:
                    bad_roundtrip = table_id(t)
            except Exception:
                bad_roundtrip = table_id(t)
    bad_builtin = next(
        (f"{name}({n})" for name, n, ref in oracles.builtin_references() if builtin(name, n) != ref),
        None,
    )
    checks.append(Check("fourier", "builtins match pointwise tabulation", bad_builtin is None, bad_builtin))
    checks.append(Check("fourier", "butterfly matches direct summation", bad_transform is None, bad_transform))
    checks.append(Check("fourier", "Parseval sum is exactly 1", bad_parseval is None, bad_parseval))
    checks.append(Check("fourier", "inverse transform round-trips", bad_roundtrip is None, bad_roundtrip))
    return checks


def suite_measures(n_max: int = 6, seed: int = 2, samples: int = 20) -> list[Check]:
    checks = []
    bad_rho = None
    bad_avg_sens = None
    bad_influence = None
    bad_bs = None
    for t in _tables(n_max, seed, samples):
        spec = fourier.wht(t)
        if bad_rho is None and measures.avg_influence(t) != fourier.avg_influence(spec):
            bad_rho = table_id(t)
        if bad_avg_sens is None:
            by_definition = Fraction(int(measures.sensitivity_profile(t).sum()), t.size)
            if by_definition != measures.avg_sensitivity(t):
                bad_avg_sens = table_id(t)
        if bad_influence is None:
            den = spec.denominator**2
            for i in range(t.n):
                mask_has_i = (np.arange(t.size) >> i) & 1 == 1
                num = int((spec.sums[mask_has_i].astype(object) ** 2).sum())
                if Fraction(num, den) != measures.influence(t, i):
                    bad_influence = f"{table_id(t)} variable {i}"
                    break
        if bad_bs is None and t.n <= 6:
            fast = measures.block_sensitivity(t).value
            if fast != oracles.block_sensitivity_naive(t):
                bad_bs = table_id(t)
    checks.append(Check("measures", "counting influence equals spectral influence", bad_rho is None, bad_rho))
    checks.append(Check("measures", "average sensitivity equals rho * n", bad_avg_sens is None, bad_avg_sens))
    checks.append(Check("measures", "per-variable influence matches squared-mass identity", bad_influence is None, bad_influence))
    checks.append(Check("measures", "block sensitivity matches naive packing", bad_bs is None, bad_bs))
    return checks


def suite_bounds(n_max: int = 6, seed: int = 3, samples: int = 20) -> list[Check]:
    checks = []
    bad_flip = None
    bad_reduction = None
    bad_parity = None
    for t in _tables(n_max, seed, samples):
        spec = fourier.wht(t)
        if bad_flip is None and t.n <= 6:  # k=5 brute force is n^5 2^n evaluations
            for k in (1, 3, 5):
                if bounds.flip_prob_spectral(spec, k) != oracles.flip_prob_bruteforce(t, k):
                    bad_flip = f"{table_id(t)} k={k}"
                    break
        if bad_reduction is None:
            rho = measures.avg_influence(t)
            for eps in (0.0, 0.1, 1 / 3):
                lhs = bounds.query_lb_influence_k(spec, eps, 1).value
                rhs = bounds.query_lb_influence(float(rho), t.n, eps).value
                if abs(lhs - rhs) > 1e-12:
                    bad_reduction = f"{table_id(t)} eps={eps}"
                    break
    for n in range(2, n_max + 1):
        spec = fourier.wht(builtin("parity", n))
        for k in (1, 3, 5, 7):
            if bounds.query_lb_influence_k(spec, 0.0, k).value != n / 2:
                bad_parity = f"n={n} k={k}"
                break
    checks.append(Check("bounds", "spectral flip probability equals brute force", bad_flip is None, bad_flip))
    checks.append(Check("bounds", "k=1 bound reduces to the influence bound", bad_reduction is None, bad_reduction))
    checks.append(Check("bounds", "parity bound is exactly n/2 for every odd k", bad_parity is None, bad_parity))
    return checks


def suite_qsim(n_max: int = 4, seed: int = 4, samples: int = 5) -> list[Check]:
    checks = []
    bad_agree = None
    bad_batched = None
    bad_invariant = None
    bad_displacement = None

    def algorithms():
        for t in _tables(min(n_max, 4), seed, samples):
            yield f"serial_read {table_id(t)}", qsim.serial_read(t)
        for n in range(2, min(n_max, 4) + 1):
            if n % 2 == 0:
                yield f"deutsch_parity n={n}", qsim.deutsch_parity(n)
            yield f"grover n={n}", qsim.grover(n, 1)

    for label, alg in algorithms():
        try:
            state = qsim.run(alg)  # run() itself asserts norm and support growth
        except Exception as exc:
            bad_invariant = bad_invariant or f"{label}: {exc}"
            continue
        if bad_agree is None:
            for x in range(1 << alg.layout.n_index):
                direct = qsim.simulate_direct(alg, x)
                if np.max(np.abs(qsim.reconstruct(state, x) - direct)) > 1e-9:
                    bad_agree = f"{label} oracle x={x}"
                    break
        if bad_batched is None:
            batched = qsim.oracle_states(state)
            for x in range(1 << alg.layout.n_index):
                if np.max(np.abs(batched[x] - qsim.reconstruct(state, x))) > 1e-12:
                    bad_batched = f"{label} oracle x={x}"
                    break
        if bad_displacement is None:
            for k in (1, 3):
                fast = qsim.displacement_statistic(state, k)
                slow = oracles.displacement_direct(state, k)
                if abs(fast - slow) > 1e-9:
                    bad_displacement = f"{label} k={k}"
                    break
    checks.append(Check("qsim", "norm and support invariants hold on every run", bad_invariant is None, bad_invariant))
    checks.append(Check("qsim", "Fourier picture matches the direct simulator", bad_agree is None, bad_agree))
    checks.append(Check("qsim", "batched oracle states match per-oracle reconstruction", bad_batched is None, bad_batched))
    checks.append(Check("qsim", "displacement statistic matches pair enumeration", bad_displacement is None, bad_displacement))
    return checks


_SUITES = {
    "fourier": suite_fourier,
    "measures": suite_measures,
    "bounds": suite_bounds,
    "qsim": suite_qsim,
}


def run_suites(
    which: str = "all",
    n_max: int = 6,
    seed: int = 1,
    samples: int = 20,
    inject_fault: bool = False,
) -> list[Check]:
    if which != "all" and which not in _SUITES:
        raise ValueError(f"unknown suite {which!r}")
    names = list(_SUITES) if which == "all" else [which]
    checks: list[Check] = []
    for name in names:
        fn = _SUITES[name]
        kwargs = dict(n_max=n_max, seed=seed, samples=samples)
        if name == "fourier":
            kwargs["corrupt"] = inject_fault
        if name == "qsim":
            kwargs["samples"] = min(samples, 5)
        checks.extend(fn(**kwargs))
    return checks


__all__ = ["Check", "run_suites", "suite_bounds", "suite_fourier", "suite_measures", "suite_qsim"]
