"""Command-line entry point.

Subcommands: analyze, approx-degree, simulate, verify. JSON reports are
versioned (top-level "schema": 1) and byte-deterministic for identical
invocations: keys are sorted, floats use repr, and wall-clock timings are
only included when --timing is passed since they would break determinism.
The text is that of json.dumps(report, indent=2, sort_keys=True), written by
_report_text, which formats each distinct float of a float list once: a
per-oracle error profile of 2^n floats holds only a few distinct values.

Exit codes: 0 success, 1 verification, solver or internal cross-check
failure, 2 usage error, 3 capacity refusal.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import approxdeg, bounds, dsl, fourier, measures, qsim
from .errors import CapacityError, ConsistencyError, InputError, SolverError
from .truthtable import TruthTable, builtin, read_table, table_id

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

_TOP_COEFFS = 8


class _Timer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.stages: dict[str, float] = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        if self.enabled:
            self.stages[name] = round((time.perf_counter() - t0) * 1000.0, 3)


def _load_table(args) -> tuple[TruthTable, dict]:
    if bool(args.expr) == bool(args.table):
        raise InputError("exactly one of --expr and --table is required")
    if args.expr:
        t = dsl.elaborate(args.expr)
        source = {"expr": args.expr}
    else:
        t = read_table(args.table)
        source = {"table_file": args.table}
    source["n"] = t.n
    source["table"] = table_id(t)
    return t, source


def _spectrum_section(spec, dump: bool) -> dict:
    section = {
        "degree": fourier.spectral_degree(spec),
        "nonzero_count": int(np.count_nonzero(spec.sums)),
        "top_coefficients": fourier.top_entries(spec, _TOP_COEFFS),
    }
    if dump:
        section["entries"] = fourier.nonzero_entries(spec)
    return section


def _measures_section(report: measures.MeasureReport) -> dict:
    bs = None
    if report.block_sensitivity is not None:
        r = report.block_sensitivity
        bs = {
            "value": r.value,
            "exact": r.exact,
            "witness_input": r.witness_input,
            "witness_blocks": list(r.witness_blocks),
        }
    return {
        "influences": [str(v) for v in report.influences],
        "rho": str(report.rho),
        "rho_float": float(report.rho),
        "avg_sensitivity": str(report.avg_sensitivity),
        "avg_sensitivity_float": float(report.avg_sensitivity),
        "max_sensitivity": report.max_sensitivity,
        "max_sensitivity_witness": report.max_sensitivity_witness,
        "block_sensitivity": bs,
        "bs_skipped": report.bs_skipped_reason,
    }


def _bounds_section(report: bounds.BoundReport) -> dict:
    return {
        "eps": report.eps,
        "query_influence": {
            "value": report.query_influence.value,
            "vacuous": report.query_influence.vacuous,
        },
        # schema 1 still repeats the k = 1 bound here; schema 2 drops it (ROADMAP item 2)
        "query_influence_best": {
            "k": 1,
            "value": report.query_influence.value,
            "vacuous": report.query_influence.vacuous,
        },
        "query_block_sensitivity": report.query_block_sensitivity,
        "query_degree": report.query_degree,
        "degree_influence": report.degree_influence,
        "degree_block_sensitivity": report.degree_block_sensitivity,
    }


def _scan_section(scan: approxdeg.DegreeScan, t: TruthTable) -> dict:
    coeffs = scan.polynomial.coeffs
    masks = np.flatnonzero(coeffs)  # ascending
    return {
        "degree": scan.degree,
        "errors_by_degree": {str(d): scan.errors[d] for d in sorted(scan.errors)},
        "polynomial": [{"s": s, "c": c} for s, c in zip(masks.tolist(), coeffs[masks].tolist())],
        "achieved_error": approxdeg.max_abs_error(scan.polynomial, t),
    }


def cmd_analyze(args) -> dict:
    if args.bs_budget is not None and not args.bs_budget >= 0:
        raise InputError(f"--bs-budget must be a nonnegative number of seconds, got {args.bs_budget}")
    timer = _Timer(args.timing)
    t, source = _load_table(args)
    with timer.stage("spectrum"):
        spec = fourier.wht(t)
        spectrum = _spectrum_section(spec, args.dump_spectrum)
    with timer.stage("measures"):
        mreport = measures.measure_report(
            t, spec, include_block_sensitivity=not args.no_bs, bs_budget_seconds=args.bs_budget
        )
    approx_section = None
    approx_d = None
    if args.approx_degree:
        with timer.stage("approx_degree"):
            scan = approxdeg.approx_degree_scan(t, args.eps)
            approx_d = scan.degree
            approx_section = _scan_section(scan, t)
    with timer.stage("bounds"):
        bs_value = (
            mreport.block_sensitivity.value
            if mreport.block_sensitivity is not None and mreport.block_sensitivity.exact
            else None
        )
        breport = bounds.bound_report(spec.weight_profile(), args.eps, bs_value, approx_d)
    report = {
        "schema": 1,
        "input": source,
        "measures": _measures_section(mreport),
        "spectrum": spectrum,
        "bounds": _bounds_section(breport),
        "approx_degree": approx_section,
        "timing_ms": timer.stages,
    }
    return report


def cmd_approx_degree(args) -> dict:
    timer = _Timer(args.timing)
    t, source = _load_table(args)
    with timer.stage("scan"):
        scan = approxdeg.approx_degree_scan(t, args.eps)
    report = {
        "schema": 1,
        "input": source,
        "eps": args.eps,
        **_scan_section(scan, t),
        "exact_degree": scan.exact_degree,
        "timing_ms": timer.stages,
    }
    return report


def _simulate_table(args, n: int) -> TruthTable:
    if args.expr or args.table:
        return _load_table(args)[0]
    if args.algorithm == "parity":
        return builtin("parity", n)
    if args.algorithm == "grover":
        return builtin("or", n)
    raise InputError("serial simulation needs --expr or --table for the target function")


def cmd_simulate(args) -> dict:
    timer = _Timer(args.timing)
    n = args.n
    table = _simulate_table(args, n)
    if table.n != n:
        raise InputError(f"function has {table.n} variables but --n is {n}")
    if args.algorithm == "serial":
        alg = qsim.serial_read(table)
    elif args.algorithm == "parity":
        alg = qsim.deutsch_parity(n)
    else:
        alg = qsim.grover(n, args.iterations)
    with timer.stage("run"):
        state = qsim.run(alg)
        profile = qsim.profile_state(state, alg.accept, table)
    # errors below the simulator's own tolerance are numerical zero; sqrt(eps)
    # in the bounds would otherwise amplify the float dust. Dust above 1 is
    # an error probability of 1.
    eps_measured = 0.0 if profile.worst < 1e-9 else min(profile.worst, 1.0)
    weights = fourier.wht(table).weight_profile()
    displacement = []
    for k in (1, 3):
        displacement.append(
            {
                "k": k,
                "value": qsim.displacement_statistic(state, k),
                "lower_bound": bounds.displacement_lower_bound(weights, eps_measured, k),
                # no mask weighs more than n, and 2 - 2(1 - 2T/n)^k grows with T
                # for odd k, so T >= n queries give the cap 4
                "upper_bound": bounds.displacement_upper_bound(min(alg.queries, n), n, k),
            }
        )
    gap = None
    if n <= qsim.GAP_CHECK_MAX_VARS:
        g = qsim.gap_check(state, table, eps_measured)
        gap = {
            "min": g.min_gap,
            "threshold": g.threshold,
            "pairs_checked": g.pairs_checked,
            "violated": g.violated,
        }
    rho = bounds.flip_prob_spectral(weights, 1)
    if eps_measured < 1.0:
        influence_bound = bounds.query_lb_influence(float(rho), n, eps_measured)
    else:
        influence_bound = bounds.BoundValue(0.0, True)  # the bound drains at eps = 1
    report = {
        "schema": 1,
        "algorithm": args.algorithm,
        "n": n,
        "input": {"table": table_id(table)},
        "queries": alg.queries,
        "worst_error": profile.worst,
        "eps_used_for_bounds": eps_measured,
        "per_oracle_error": profile.per_oracle.tolist(),
        "support_history": list(state.support_history),
        "displacement": displacement,
        "gap": gap,
        "influence_bound": {
            "value": influence_bound.value,
            "tight": abs(alg.queries - influence_bound.value) <= 1e-9,
        },
        "timing_ms": timer.stages,
    }
    return report


def _float_text(x: float) -> str:
    """json's text for a float: its repr, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _float_texts(values: list | tuple) -> list[str]:
    """_float_text of every value, each distinct one formatted once.

    Distinct by bit pattern: -0.0 == 0.0 (and they hash alike), yet their
    texts differ.
    """
    bits = np.array(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([_float_text(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _report_text(report) -> str:
    """The bytes of json.dumps(report, indent=2, sort_keys=True).

    Writes what a report holds: dicts with str keys, lists, tuples, str,
    None, bools, ints and floats; anything else raises TypeError. A list of
    floats only is written through _float_texts.
    """
    out: list[str] = []

    def put(value, newline: str) -> None:
        if isinstance(value, str):
            out.append(encode_basestring_ascii(value))
        elif value is None:
            out.append("null")
        elif value is True:
            out.append("true")
        elif value is False:
            out.append("false")
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, float):
            out.append(_float_text(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                out.append("[]")
                return
            inner = newline + "  "
            if set(map(type, value)) == {float}:
                out.append("[" + inner + ("," + inner).join(_float_texts(value)))
            else:
                for i, item in enumerate(value):
                    out.append(("," if i else "[") + inner)
                    put(item, inner)
            out.append(newline + "]")
        elif isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            inner = newline + "  "
            for i, (key, item) in enumerate(sorted(value.items())):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out.append(("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
                put(item, inner)
            out.append(newline + "}")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    put(report, "\n")
    return "".join(out)


def cmd_verify(args) -> int:
    from . import verify

    checks = verify.run_suites(which=args.suite, n_max=args.n_max, seed=args.seed, samples=args.samples)
    width = max(len(f"{c.suite}: {c.name}") for c in checks)
    failures = 0
    for c in checks:
        label = f"{c.suite}: {c.name}"
        status = "PASS" if c.passed else "FAIL"
        line = f"{label:<{width}}  {status}"
        if not c.passed:
            failures += 1
            line += f"  counterexample: {c.counterexample}"
        print(line)
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="influence-lab",
        description="Boolean function complexity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--timing", action="store_true", help="include wall-clock timings (breaks byte determinism)")

    def add_function_source(p):
        p.add_argument("--expr", help="expression in the function DSL")
        p.add_argument("--table", help="path to a truth-table JSON file")

    p = sub.add_parser("analyze", help="measures, spectrum, and lower bounds")
    add_function_source(p)
    p.add_argument(
        "--eps",
        type=float,
        default=1 / 3,
        help="allowed error probability (default 1/3); the influence query bound needs eps < 1/4, "
        "so at the default both influence query fields read 0.0 and are flagged vacuous",
    )
    p.add_argument("--no-bs", action="store_true", help="skip block sensitivity")
    p.add_argument("--bs-budget", type=float, default=None, help="block-sensitivity time budget in seconds")
    p.add_argument("--approx-degree", action="store_true", help="also run the LP degree scan")
    p.add_argument("--dump-spectrum", action="store_true", help="include every nonzero coefficient")
    add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("approx-degree", help="minimax approximate degree by LP")
    add_function_source(p)
    p.add_argument("--eps", type=float, default=1 / 3)
    add_common(p)
    p.set_defaults(fn=cmd_approx_degree)

    p = sub.add_parser("simulate", help="run a builtin query algorithm in the Fourier picture")
    p.add_argument("--algorithm", choices=("serial", "parity", "grover"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--iterations", type=int, default=1, help="grover iterations")
    add_function_source(p)
    add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run brute-force oracle cross-checks")
    p.add_argument("--suite", choices=("fourier", "measures", "bounds", "qsim", "all"), default="all")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        report = args.fn(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    sys.stdout.write(_report_text(report) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
