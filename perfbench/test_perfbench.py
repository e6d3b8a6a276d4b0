"""Self-tests of the benchmark: python3 -m pytest perfbench

They use the fast mode (smaller n, same commands), so they take seconds.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from influence_lab import dsl, fourier, measures, truthtable  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.fixture
def workdir():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        (ROOT / ".bench_work").rmdir()


@pytest.mark.parametrize("n,seed", [(4, 0), (8, 2), (9, 2), (12, 77)])
def test_random_table_is_the_toolkits(n, seed):
    assert np.array_equal(ref.random_table(n, seed), truthtable.random_table(n, seed).bits())


def test_reference_routes_agree_with_the_program(workdir):
    pf = ref.paper_f()
    assert np.array_equal(ref.compose(pf, pf), dsl.elaborate("iterate(paper_f,2)").bits())
    maj3 = ref.majority(3)
    assert np.array_equal(ref.compose(maj3, pf), dsl.elaborate("compose(maj(3),paper_f)").bits())
    formula, bits = workloads.random_formula(np.random.default_rng(5), 10)
    assert np.array_equal(dsl.elaborate(formula).bits(), bits)
    table = ref.relabel(ref.random_table(9, 3), [3, 0, 8, 1, 7, 2, 6, 4, 5], True)
    ref.write_table(workdir / "t.json", table)
    read = truthtable.read_table(workdir / "t.json")
    assert np.array_equal(read.bits(), table)
    assert ref.influences(table) == list(measures.influences(read))
    assert ref.max_sensitivity(table) == measures.max_sensitivity(read).value
    assert ref.degree(ref.spectrum(table)) == fourier.spectral_degree(fourier.wht(read))


def test_fast_run_of_every_workload_is_correct():
    code, lines = run_bench("--fast", "--seconds", "0")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0
    for name in workloads.NAMES:
        for metric in ("wall_s", "setup_s", "peak_rss_mib", "measures.block_sensitivity_s"):
            assert f"{name}.{metric}" in result["metrics"]
    assert sum(line.startswith("ops_failed_frac") for line in lines) == 2 * len(workloads.NAMES)


@pytest.mark.parametrize("workload", ["analyze", "approx_lp", "simulate_mix"])
def test_a_corrupted_answer_is_counted(workload):
    code, lines = run_bench("--workload", workload, "--fast", "--seconds", "0", "--inject-fault")
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("wrong answer:") for line in lines)


def test_checkout_without_sources_fails_without_a_result(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("--workload", "approx_lp", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=workdir)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_checks_reject_wrong_answers():
    bits = ref.majority(3)
    report = {"degree": 1, "exact_degree": 3, "polynomial": [{"s": 0, "c": 0.5}],
              "achieved_error": 0.5, "errors_by_degree": {"0": 0.5, "1": 0.5, "3": 0.0}}
    with pytest.raises(checks.CheckFailed):
        checks.check_approx(report, {"bits": bits, "eps": 0.3333})


def test_tracer_keeps_every_span_under_thread_contention():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)

    def fan_out(workers: int, calls: int) -> None:
        threads = [threading.Thread(target=lambda: [leaf(i) for i in range(calls)]) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

    outer = tracer.wrap("outer", fan_out)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outer(8, 200)
    finally:
        sys.setswitchinterval(interval)
    spans = tracer.spans
    assert len(spans) == 1 + 8 * 200
    assert [s[0] for s in spans] == list(range(len(spans)))
    root = spans[0]
    assert root[1] == "outer" and root[4] is None
    assert all(s[4] == root[0] and s[5] == root[5] and s[3] >= s[2] for s in spans[1:])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [0, "cli.main", 0.0, 10.0, None, 1, {"code": 0}],
        [1, "qsim.reconstruct", 1.0, 3.0, 0, 1, None],
        [2, "qsim.reconstruct", 2.0, 5.0, 0, 1, None],  # overlaps span 1 on another thread
        [3, "truthtable.compose", 7.0, 8.0, 0, 1, None],
        [4, "truthtable.compose", 7.2, 7.5, 3, 1, None],  # nested: not counted again
    ]
    ix = tracing.SpanIndex(spans)
    assert ix.self_time("cli.main") == pytest.approx(5.0)
    assert ix.total("truthtable.compose") == pytest.approx(1.0)
    metrics = tracing.layer_metrics(spans)
    assert metrics["trace.top_coverage_min"] == pytest.approx(0.5)
    assert metrics["qsim.reconstruct_calls"] == 2
