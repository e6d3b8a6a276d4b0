"""Answer checks, run outside the timed region.

Each check compares a command's JSON report with a value from the
benchmark's own numpy route (reference.py) or a closed form, and raises
CheckFailed with the first disagreement.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import reference as ref

TOL = 1e-9
BS_CAP = 16  # the documented largest n for exact block sensitivity


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_analyze(report: dict, expect: dict) -> None:
    bits = expect["bits"]
    n = ref.variables(bits)
    m = report["measures"]
    influences = [Fraction(v) for v in m["influences"]]
    _expect(influences == ref.influences(bits), "influences disagree with bit counting")
    _expect(Fraction(m["rho"]) == sum(influences, Fraction(0)) / n, "rho is not the mean influence")
    _expect(m["max_sensitivity"] == ref.max_sensitivity(bits), "max sensitivity disagrees with bit counting")
    sums = ref.spectrum(bits)
    spec = report["spectrum"]
    _expect(spec["degree"] == ref.degree(sums), f"spectral degree {spec['degree']} != {ref.degree(sums)}")
    _expect(spec["nonzero_count"] == int(np.count_nonzero(sums)), "nonzero coefficient count disagrees")
    bs = m["block_sensitivity"]
    if n > BS_CAP:
        _expect(bs is None and bool(m["bs_skipped"]), f"block sensitivity should be refused at n = {n}")
    elif expect["bs"] is None:  # no closed form: s(f) <= bs(f) <= n must hold
        _expect(bs is not None and bs["exact"], "block sensitivity missing or not exact")
        _expect(m["max_sensitivity"] <= bs["value"] <= n, f"block sensitivity {bs['value']} out of range")
    else:
        _expect(bs is not None and bs["exact"], "block sensitivity missing or not exact")
        _expect(bs["value"] == expect["bs"], f"block sensitivity {bs['value']} != {expect['bs']}")
    if "rho" in expect:
        _expect(Fraction(m["rho"]) == expect["rho"], f"rho {m['rho']} != {expect['rho']}")
    if "degree" in expect:
        _expect(spec["degree"] == expect["degree"], f"degree {spec['degree']} != {expect['degree']}")


def check_approx(report: dict, expect: dict) -> None:
    bits, eps = expect["bits"], expect["eps"]
    n = ref.variables(bits)
    d = report["degree"]
    exact = ref.degree(ref.spectrum(bits))
    _expect(report["exact_degree"] == exact, f"exact degree {report['exact_degree']} != {exact}")
    _expect(0 <= d <= exact, f"approximate degree {d} exceeds the exact degree {exact}")
    dense = np.zeros(1 << n)
    pc = ref.popcounts(n)
    for entry in report["polynomial"]:
        _expect(pc[entry["s"]] <= d, f"polynomial term {entry['s']} exceeds degree {d}")
        dense[entry["s"]] = entry["c"]
    error = float(np.max(np.abs(ref.transform(dense) - bits)))
    _expect(error <= eps + TOL, f"polynomial misses f by {error} > eps {eps}")
    _expect(abs(error - report["achieved_error"]) <= TOL, "reported achieved error disagrees")
    errors = report["errors_by_degree"]
    _expect(errors[str(d)] <= eps + TOL, f"t*_{d} = {errors[str(d)]} is above eps")
    if d >= 1:
        _expect(errors[str(d - 1)] > eps, f"degree {d - 1} already reaches eps")
    if eps == 0:
        _expect(d == exact, f"zero-error degree {d} != exact degree {exact}")


def _grover_errors(n: int, iterations: int) -> np.ndarray:
    """Per-oracle error of grover against OR, by the per-oracle reference simulator."""
    from influence_lab import qsim

    alg = qsim.grover(n, iterations)
    accept = np.zeros(alg.layout.dim, dtype=bool)
    accept[list(alg.accept)] = True
    errors = np.empty(1 << n)
    for x in range(1 << n):
        v = qsim.simulate_direct(alg, x)
        p1 = float(np.sum(np.abs(v[accept]) ** 2))
        errors[x] = p1 if x == 0 else 1.0 - p1
    return errors


def check_simulate(report: dict, expect: dict) -> None:
    n = expect["n"]
    per_oracle = np.array(report["per_oracle_error"])
    _expect(per_oracle.shape == (1 << n,), "per-oracle errors do not cover every oracle")
    _expect(abs(report["worst_error"] - float(per_oracle.max())) <= TOL, "worst error is not the max")
    if expect["algorithm"] == "grover":
        direct = _grover_errors(n, expect["iterations"])
        gap = float(np.max(np.abs(direct - per_oracle)))
        _expect(gap <= TOL, f"per-oracle errors differ from simulate_direct by {gap}")
    else:
        _expect(report["worst_error"] < TOL, f"{expect['algorithm']} worst error {report['worst_error']}")


CHECKS = {"analyze": check_analyze, "approx": check_approx, "simulate": check_simulate}


def corrupt(kind: str, report: dict) -> None:
    """Falsify one answer in place; the fault-injection self-test uses this."""
    if kind == "analyze":
        report["measures"]["max_sensitivity"] += 1
    elif kind == "approx":
        report["polynomial"][0]["c"] += 1.0
    else:
        report["per_oracle_error"][0] += 0.5
