"""influence-lab benchmark: time to answer of CLI commands, with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--fast]      # every workload, untraced then traced

Run from the repository root or anywhere else; the program is imported from
the src/ directory next to this one. Each pass runs the workload's commands
in a fresh interpreter (passrun.py), because every CLI call a user makes
starts a new process and pays the import and cold in-process caches. The
pass processes run one at a time, so the only concurrency is the program's
own thread pool; BLAS libraries are held to one thread.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the pass time
(the sum of each command's median time over the passes), the median import
time and the median peak memory of a pass. A run holds as many passes as fit
in --seconds, at least one; at the configured 40 seconds every workload fits
four or more. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics.
Either way every command's answer is checked outside the timed region. The
last line of output is one JSON object; the lines before it name every
metric with its unit, the failure fraction with its base and each failed
command. The exit code is nonzero when an answer is wrong or a command
crashed; a command that exits 1, the CLI's documented solver failure, is
counted in `failed` only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 9  # imports timed per untraced run at least: each pass's own, topped up by import-only interpreters
RUN_LIMIT_S = 150.0  # no pass starts that could end after this many seconds of the run
SOLVER_FAILURE = 1  # the CLI's exit code for a verification or solver failure
SETUP_CODE = "import time; t = time.perf_counter(); import influence_lab.cli; print(time.perf_counter() - t)"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_sample(timeout: float) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=child_env(), capture_output=True, text=True, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"importing influence_lab.cli failed:\n{proc.stderr}")
    return float(proc.stdout)


def run_pass(argvs: list[list[str]], trace: bool, workdir: Path, index: int, timeout: float) -> dict:
    spec, out = workdir / f"spec{index}.json", workdir / f"pass{index}.json"
    spec.write_text(json.dumps({"commands": argvs, "trace": trace}), encoding="utf-8")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), str(spec), str(out)],
        env=child_env(), capture_output=True, text=True, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    doc["process_s"] = time.monotonic() - start
    return doc


def evaluate(commands, passes: list[dict], inject_fault: bool) -> tuple[int, int, bool, list[str]]:
    """Check every answer of every pass: (attempted, failed, correct, notes)."""
    import checks

    attempted = failed = 0
    correct = True
    notes: list[str] = []
    verdicts: dict[tuple[int, str], str | None] = {}  # identical outputs are checked once
    for doc in passes:
        for i, (cmd, res) in enumerate(zip(commands, doc["commands"])):
            attempted += 1
            shown = " ".join(Path(a).name if a.startswith(str(WORK)) else a for a in cmd.argv)
            if res["code"] != 0:
                failed += 1
                correct = correct and res["code"] == SOLVER_FAILURE
                reason = (res["stderr"].strip().splitlines() or ["no message"])[-1]
                notes.append(f"failed command: exit {res['code']}: {shown}: {reason}")
                continue
            key = (i, res["stdout"])
            if key not in verdicts:
                try:
                    report = json.loads(res["stdout"])
                    if inject_fault and i == 0:
                        checks.corrupt(cmd.kind, report)
                    checks.CHECKS[cmd.kind](report, cmd.expect)
                    verdicts[key] = None
                except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                    verdicts[key] = f"{type(exc).__name__}: {exc}"
            if verdicts[key] is not None:
                failed += 1
                correct = False
                notes.append(f"wrong answer: {shown}: {verdicts[key]}")
    return attempted, failed, correct, notes


def pass_time(passes: list[dict]) -> float:
    """Time for one pass: the sum over commands of each command's median time.

    Slow spells of the shared host last seconds, so across three or more
    passes the per-command median drops the pass a spell happened to hit.
    With one pass it is that pass's time and with two their mean.
    """
    per_command = zip(*([c["seconds"] for c in d["commands"]] for d in passes))
    return sum(statistics.median(times) for times in per_command)


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    }


def measure(name: str, seed: int, seconds: float, trace: bool, fast: bool,
            inject_fault: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the lines that precede it."""
    import tracing
    import workloads

    units = metric_units()["per_layer" if trace else "end_to_end"]
    run_start = time.monotonic()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        commands = workloads.build(name, seed, workdir, fast)
        argvs = [c.argv for c in commands]
        setups = []  # import-only interpreters; each pass's own import counts too
        deadline = time.monotonic() + seconds
        untraced, traced = [], []
        while True:
            if not trace and len(setups) + len(untraced) < SETUP_SAMPLES:
                setups.append(setup_sample(60.0))
            want_trace = trace and len(traced) < len(untraced)
            remaining = RUN_LIMIT_S + 20.0 - (time.monotonic() - run_start)
            doc = run_pass(argvs, want_trace, workdir, len(untraced) + len(traced), max(remaining, 5.0))
            (traced if want_trace else untraced).append(doc)
            if trace and not traced:
                continue
            longest = max(d["process_s"] for d in untraced + traced)
            now = time.monotonic()
            if now + longest > deadline or now + longest - run_start > RUN_LIMIT_S:
                break
        if not trace:
            setups += [setup_sample(60.0) for _ in range(SETUP_SAMPLES - len(setups) - len(untraced))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    passes = untraced + traced
    attempted, failed, correct, notes = evaluate(commands, passes, inject_fault)
    wall = pass_time(untraced)
    if trace:
        per_pass = [tracing.layer_metrics(d["spans"]) for d in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_frac"] = pass_time(traced) / wall - 1.0
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups + [d["setup_s"] for d in passes]),
            "peak_rss_mib": statistics.median(d["peak_rss_mib"] for d in untraced),
        }
    mismatch = set(units) ^ set(values)
    if mismatch:
        raise BenchError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    lines = [
        f"workload {name} seed {seed} trace {int(trace)}: {len(untraced)} untraced and "
        f"{len(traced)} traced passes of {len(commands)} commands; untraced pass times "
        + " ".join(f"{d['wall_s']:.3f}" for d in untraced) + " s",
        *(f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()),
        f"ops_failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} commands)",
        *notes,
    ]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true", help="smaller n, same commands")
    parser.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "influence_lab" / "cli.py").is_file():
        print(f"error: no influence_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        runs = [(w, t) for w in workloads.NAMES for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    try:
        for name, trace in runs:
            result, lines = measure(name, args.seed, args.seconds, trace, args.fast, args.inject_fault)
            print("\n".join(lines), flush=True)
            results.append((name, result))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[0][1]
    else:
        summary = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": m for n, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
