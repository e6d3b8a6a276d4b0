import io
import json
import math
import sys

import pytest

from influence_lab import cli, fourier, oracles, qsim
from influence_lab.errors import ConsistencyError
from influence_lab.truthtable import builtin, random_table, write_table


def run_cli(*argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    assert code == 0, out
    return json.loads(out)


def test_analyze_schema_and_consistency():
    report = run_json("analyze", "--expr", "parity(8)", "--eps", "0")
    assert set(report) == {
        "schema",
        "input",
        "measures",
        "spectrum",
        "bounds",
        "approx_degree",
        "timing_ms",
    }
    assert report["schema"] == 1
    assert report["timing_ms"] == {}
    for argv, stages in (
        (("analyze", "--expr", "parity(8)", "--timing"), {"measures", "spectrum", "bounds"}),
        (("approx-degree", "--expr", "or(3)", "--timing"), {"scan"}),
    ):
        timing = run_json(*argv)["timing_ms"]
        assert set(timing) == stages
        assert all(isinstance(ms, float) and ms >= 0.0 for ms in timing.values())
    m, b = report["measures"], report["bounds"]
    assert m["rho"] == "1"
    assert b["query_influence"]["value"] == 4.0  # (1 - 0)/2 * 1 * 8
    # schema 1 repeats the one influence bound, here where it is not vacuous
    assert b["query_influence_best"] == {"k": 1, **b["query_influence"]}
    assert report["spectrum"]["degree"] == 8
    # internal cross-consistency
    assert m["avg_sensitivity_float"] == pytest.approx(
        m["rho_float"] * report["input"]["n"], abs=1e-12
    )
    eps = b["eps"]
    expected = max(0.0, (1 - 2 * math.sqrt(eps)) / 2 * m["rho_float"] * report["input"]["n"])
    assert b["query_influence"]["value"] == pytest.approx(expected, abs=1e-12)


def test_analyze_iterated_family():
    report = run_json("analyze", "--expr", "iterate(paper_f,2)")
    assert report["measures"]["avg_sensitivity_float"] == 6.25
    assert report["measures"]["block_sensitivity"]["value"] == 9
    assert report["measures"]["block_sensitivity"]["exact"] is True


def test_analyze_computes_the_spectrum_once(monkeypatch):
    # the block-sensitivity translation search reads the report's spectrum
    calls, wht = [], fourier.wht

    def counted(t):
        calls.append(t.n)
        return wht(t)

    monkeypatch.setattr(fourier, "wht", counted)
    report = run_json("analyze", "--expr", "compose(maj(3),paper_f)")
    assert calls == [12]
    assert report["measures"]["block_sensitivity"]["exact"] is True


def test_analyze_constant_zero():
    report = run_json("analyze", "--expr", "0")
    m = report["measures"]
    assert m["rho_float"] == 0.0
    assert m["avg_sensitivity_float"] == 0.0
    assert m["max_sensitivity"] == 0
    assert m["block_sensitivity"]["value"] == 0
    b = report["bounds"]
    # at the default eps = 1/3 >= 1/4 both influence bounds are 0 and flagged alike
    assert b["query_influence"] == {"vacuous": True, "value": 0.0}
    assert b["query_influence_best"] == {"k": 1, "vacuous": True, "value": 0.0}
    assert b["degree_influence"] == 0.0
    assert b["query_block_sensitivity"] == 0.0


def test_analyze_no_bs_flag():
    report = run_json("analyze", "--expr", "parity(4)", "--no-bs")
    assert report["measures"]["block_sensitivity"] is None
    assert report["measures"]["bs_skipped"] == "disabled"


def test_analyze_bs_autoskip_above_cap():
    report = run_json("analyze", "--expr", "parity(17)")
    assert report["measures"]["block_sensitivity"] is None
    assert "exceeds exact cap" in report["measures"]["bs_skipped"]


def test_analyze_dump_spectrum():
    report = run_json("analyze", "--expr", "parity(3)", "--dump-spectrum")
    assert report["spectrum"]["entries"] == [{"s": 7, "coeff_num": 8, "coeff_den": 8}]


def test_analyze_table_file(tmp_path):
    path = tmp_path / "t.json"
    write_table(builtin("majority", 3), path)
    report = run_json("analyze", "--table", str(path))
    assert report["input"]["table_file"] == str(path)
    assert report["measures"]["rho"] == "1/2"


def test_analyze_determinism_bytes():
    _, out1 = run_cli("analyze", "--expr", "maj(x0,x1,x2)", "--approx-degree")
    _, out2 = run_cli("analyze", "--expr", "maj(x0,x1,x2)", "--approx-degree")
    assert out1 == out2


def test_analyze_usage_errors():
    code, _ = run_cli("analyze", "--expr", "x0", "--table", "/nonexistent")
    assert code == 2
    code, _ = run_cli("analyze", "--expr", "x0 ^^ x1")
    assert code == 2
    code, _ = run_cli("analyze", "--table", "/nonexistent/file.json")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--expr", "x0", "--kmax", "3"),
        ("analyze", "--expr", "x0", "--format", "text"),
        ("simulate", "--algorithm", "parity", "--n", "4", "--no-gap-check"),
        ("analyze", "--expr", "x0", "--max-degree", "2"),
        ("approx-degree", "--expr", "x0", "--max-degree", "2"),
        ("simulate", "--algorithm", "parity", "--n", "4", "--k", "3"),
    ],
)
def test_unknown_option_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_negative_bs_budget_is_usage_error():
    code, _ = run_cli("analyze", "--expr", "maj(x0,x1,x2)", "--bs-budget", "-1")
    assert code == 2
    code, _ = run_cli("analyze", "--expr", "maj(x0,x1,x2)", "--bs-budget", "0")
    assert code == 0


def test_analyze_capacity_exit():
    code, _ = run_cli("analyze", "--expr", "parity(21)")
    assert code == 3


def test_bad_table_file_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version":1,"n":2,"bits":"zz"}')
    code, _ = run_cli("analyze", "--table", str(path))
    assert code == 2


def test_approx_degree_command():
    report = run_json("approx-degree", "--expr", "or(2)", "--eps", "0.3333333333")
    assert report["degree"] == 1
    assert report["achieved_error"] <= 1 / 3
    assert report["exact_degree"] == 2
    assert all(e["s"] in (0, 1, 2) for e in report["polynomial"])
    report = run_json("approx-degree", "--expr", "parity(4)")
    assert report["degree"] == 4


def test_approx_degree_random_9_variable_table(tmp_path):
    # exited 1 on a failed LP re-verification at degree 6
    path = tmp_path / "r9.json"
    write_table(random_table(9, 2), path)
    report = run_json("approx-degree", "--table", str(path), "--eps", "0.3333")
    assert report["degree"] == 5
    assert report["exact_degree"] == 9
    assert report["errors_by_degree"]["4"] > 0.3333 >= report["errors_by_degree"]["5"]


def test_simulate_parity_tightness():
    report = run_json("simulate", "--algorithm", "parity", "--n", "4")
    assert report["queries"] == 2
    assert report["worst_error"] < 1e-9
    assert report["influence_bound"]["tight"] is True
    assert report["gap"]["violated"] is False
    assert max(report["support_history"]) <= report["queries"] + 1


def test_simulate_serial_with_expr():
    report = run_json(
        "simulate", "--algorithm", "serial", "--n", "3", "--expr", "maj(x0,x1,x2)"
    )
    assert report["queries"] == 3
    assert report["worst_error"] < 1e-9
    assert len(report["per_oracle_error"]) == 8
    for entry in report["displacement"]:
        assert entry["lower_bound"] - 1e-9 <= entry["value"] <= entry["upper_bound"] + 1e-9


def test_simulate_grover():
    report = run_json(
        "simulate", "--algorithm", "grover", "--n", "4", "--iterations", "1"
    )
    assert report["queries"] == 2
    errors = report["per_oracle_error"]
    assert errors[0] < 1e-9
    for i in range(4):
        assert errors[1 << i] < 1e-9


def test_simulate_more_queries_than_variables():
    # 3 Grover iterations on 3 variables make 4 queries; the displacement cap is then 4
    report = run_json("simulate", "--algorithm", "grover", "--n", "3", "--iterations", "3")
    assert report["queries"] == 4
    assert [entry["k"] for entry in report["displacement"]] == [1, 3]
    for entry in report["displacement"]:
        assert entry["upper_bound"] == 4.0
        assert entry["value"] <= entry["upper_bound"]


def test_simulate_usage(tmp_path):
    path = tmp_path / "f.json"
    write_table(builtin("parity", 4), path)
    for argv in (
        ("--algorithm", "serial", "--n", "3"),  # serial needs a target function
        ("--algorithm", "parity", "--n", "4", "--expr", "parity(6)"),  # n mismatch
        ("--algorithm", "parity", "--n", "4", "--expr", "parity(4)", "--table", str(path)),  # two sources
    ):
        code, _ = run_cli("simulate", *argv)
        assert code == 2, argv


@pytest.mark.parametrize("algorithm, n", [("grover", "0"), ("parity", "-2")])
def test_simulate_variable_count_below_one_is_usage_error(algorithm, n):
    code, _ = run_cli("simulate", "--algorithm", algorithm, "--n", n)
    assert code == 2


@pytest.mark.parametrize("expr, exit_code", [("parity(0)", 2), ("parity(21)", 3)])
def test_analyze_variable_count_exit_codes(expr, exit_code):
    code, _ = run_cli("analyze", "--expr", expr)
    assert code == exit_code


@pytest.mark.parametrize("n, exit_code", [(0, 2), (21, 3), (True, 2)])
def test_table_file_variable_count_exit_codes(tmp_path, n, exit_code):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"version": 1, "n": n, "bits": "0"}))
    code, _ = run_cli("analyze", "--table", str(path))
    assert code == exit_code


@pytest.mark.parametrize("n, iterations", [(3, 1), (6, 2)])
def test_simulate_error_dust_above_one(n, iterations):
    # grover rejects the all-zero oracle, where NOR is 1, so its worst error
    # is 1 plus float dust; the bounds must see 1.0 rather than refuse it
    expr = "!(" + "|".join(f"x{i}" for i in range(n)) + ")"
    report = run_json(
        "simulate", "--algorithm", "grover", "--n", str(n), "--iterations", str(iterations), "--expr", expr
    )
    assert report["eps_used_for_bounds"] == 1.0
    assert report["influence_bound"]["value"] == 0.0
    assert all(entry["lower_bound"] == 0.0 for entry in report["displacement"])


VERIFY_LABELS = [
    "fourier: builtins match pointwise tabulation",
    "fourier: butterfly matches direct summation",
    "fourier: Parseval sum is exactly 1",
    "fourier: inverse transform round-trips",
    "measures: counting influence equals spectral influence",
    "measures: average sensitivity equals rho * n",
    "measures: per-variable influence matches squared-mass identity",
    "measures: max sensitivity and its witness match the unpacked profile",
    "measures: block sensitivity matches naive packing",
    "measures: symmetry classes match the brute-force transposition search",
    "measures: translation basis spans the brute-force translations",
    "bounds: spectral flip probability equals brute force",
    "bounds: parity's influence bound is exactly n/2",
    "bounds: spectral minimax floor never exceeds the exact minimax error",
    "qsim: norm and support invariants hold on every run",
    "qsim: Fourier picture matches the direct simulator",
    "qsim: batched oracle states match per-oracle reconstruction",
    "qsim: displacement statistic matches pair enumeration",
]


def test_verify_all_passes(capsys):
    code = cli.main(["verify", "--suite", "all", "--n-max", "4", "--samples", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    *lines, summary = out.strip().splitlines()
    assert [line.rsplit("  PASS", 1)[0].rstrip() for line in lines] == VERIFY_LABELS
    assert summary == "18/18 checks passed"


@pytest.mark.parametrize("flag, value", [("--n-max", "1"), ("--samples", "0")])
def test_verify_refuses_to_check_nothing(flag, value, capsys):
    # neither draws a random table; every check would pass on nothing
    code = cli.main(["verify", "--suite", "all", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert "checks passed" not in captured.out
    assert captured.err.startswith("error: verify needs")


def test_verify_qsim_suite_draws_samples_tables(monkeypatch):
    calls = []
    real = qsim.serial_read

    def counted(table):
        calls.append(table.n)
        return real(table)

    monkeypatch.setattr(qsim, "serial_read", counted)
    # samples tables per n for n = 2..4, the suite's cap of 5 per n above that
    for samples, per_n in ((3, 3), (8, 5)):
        calls.clear()
        assert cli.main(["verify", "--suite", "qsim", "--n-max", "6", "--samples", str(samples)]) == 0
        assert sorted(calls) == [n for n in (2, 3, 4) for _ in range(per_n)]


def test_verify_inject_fault_exits_nonzero(monkeypatch, capsys):
    real = oracles.wht_direct

    def corrupted(t):
        sums = real(t).copy()
        sums[0] += 2
        return sums

    monkeypatch.setattr(oracles, "wht_direct", corrupted)
    code = cli.main(["verify", "--suite", "fourier", "--n-max", "3", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out


def test_consistency_error_exits_with_failure(monkeypatch, capsys):
    def drifted(state):
        raise ConsistencyError("state norm drifted to 1.5")

    monkeypatch.setattr(qsim, "_check_invariants", drifted)
    code = cli.main(["simulate", "--algorithm", "parity", "--n", "4"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_FAIL == 1
    assert err.startswith("error: state norm drifted")
    assert "Traceback" not in err


NAN = float("nan")


@pytest.mark.parametrize(
    "value",
    [
        [0.0, -0.0],
        [-0.0, 0.0],
        [NAN, NAN],
        [math.inf, -math.inf, 0.5],
        -0.0,
        NAN,
        [],
        {},
        [[], {}, [[]]],
        {"a": {}, "b": [{}, []]},
        "café ≤ \U0001d400",
        ["quote \" backslash \\ tab \t nul \x00 newline \n"],
        [0.25, True, 0.5],
        [2**63, -(2**64) - 1, 0],
        (0.1, 0.2, (0.3, 0.1)),
        {"z": [0.1, 0.1, 1e300, 5e-324], "a": None, "m": [None, False, 1, "x", 1.5]},
    ],
)
def test_report_text_is_json_dumps(value):
    assert cli._report_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [[{1}], {"a": object()}, {1: 0.5}])
def test_report_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        cli._report_text(value)


def test_cli_reports_are_json_dumps_text(tmp_path):
    path = tmp_path / "t.json"
    write_table(random_table(5, 11), path)
    commands = [
        ("analyze", "--expr", "parity(8)", "--eps", "0"),
        ("analyze", "--expr", "maj(x0, x1, x2)", "--approx-degree", "--dump-spectrum"),
        ("analyze", "--expr", "paper_f(x0,x1,x2,x3)", "--eps", "0.1"),
        ("analyze", "--expr", "or(6)", "--no-bs"),
        ("analyze", "--expr", "compose(maj(3),paper_f)", "--eps", "0.01"),
        ("analyze", "--table", str(path), "--approx-degree", "--eps", "0.2"),
        ("analyze", "--expr", "and(5)", "--bs-budget", "0"),
        ("approx-degree", "--expr", "or(2)"),
        ("approx-degree", "--expr", "maj(5)", "--eps", "0"),
        ("approx-degree", "--expr", "parity(5)", "--eps", "0.1"),
        ("approx-degree", "--table", str(path), "--eps", "0.05"),
        ("approx-degree", "--expr", "maj(7)", "--eps", "0.3333"),
        ("simulate", "--algorithm", "grover", "--n", "5"),
        ("simulate", "--algorithm", "grover", "--n", "8", "--iterations", "2"),
        ("simulate", "--algorithm", "grover", "--n", "3", "--iterations", "0"),
        ("simulate", "--algorithm", "parity", "--n", "6"),
        ("simulate", "--algorithm", "parity", "--n", "10"),
        ("simulate", "--algorithm", "serial", "--n", "4", "--expr", "paper_f(x0,x1,x2,x3)"),
        ("simulate", "--algorithm", "serial", "--n", "5", "--table", str(path)),
        ("simulate", "--algorithm", "grover", "--n", "4", "--expr", "and(4)"),
    ]
    for argv in commands:
        code, out = run_cli(*argv)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
