"""Repeat benchmark runs over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads approx_lp --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --trace-seed 1 --out perfbench/baseline.json

Runs run.py once per workload and seed, one run at a time, with the
BENCHMARK.json run length. The spread of a metric is the distance between
the first and third quartiles (statistics.quantiles, n=4) over its median;
a benchmark is steady when every spread is below a third of the metric's
bound. --out records the medians, quartiles, failures and the
traced per-layer numbers with the machine they were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=600, check=False, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = [line for line in lines if line.startswith(("failed command:", "wrong answer:"))]
    return json.loads(lines[-1]), failed


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def machine() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10, check=False).stdout
    except OSError:
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip()] = value.strip()
    return info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, help="also record one traced run with this seed")
    parser.add_argument("--out", help="write the record as JSON here")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.label, "machine": machine(), "run_seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, failed = run_once(workload, seed, args.seconds, False)
            runs.append((seed, result, failed))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()
            ) + f", failed {result['failed']}/{result['attempted']}", flush=True)
        entry = {
            "metrics": {k: summarize([r["metrics"][k]["value"] for _, r, _ in runs]) for k in bounds},
            "ops_failed": [{"seed": s, "failed": r["failed"], "attempted": r["attempted"]} for s, r, _ in runs],
            "failed_commands": sorted({line for _, _, f in runs for line in f}),
        }
        for k, summary in entry["metrics"].items():
            ok = summary["spread"] < bounds[k] / 3
            steady = steady and ok
            print(f"  {workload} {k}: median {summary['median']:.4g} q1 {summary['q1']:.4g} "
                  f"q3 {summary['q3']:.4g} spread {summary['spread']:.4f} bound {bounds[k]}"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
        if args.trace_seed is not None:
            result, _ = run_once(workload, args.trace_seed, args.seconds, True)
            entry["traced"] = {"seed": args.trace_seed, **{k: m["value"] for k, m in result["metrics"].items()}}
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
