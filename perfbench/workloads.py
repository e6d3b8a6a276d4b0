"""The three workloads: seeded inputs, the CLI commands, and what to expect.

Every input comes from the workload seed and the program sees only the
generated table files and expression strings. Where a workload must stay
equally expensive for every seed, the seed relabels fixed functions (variable
permutation, output complement, literal negation) instead of drawing new
ones: block sensitivity, influences as a multiset, spectral weights and LP
minimax errors are invariant under those, so the work and the expected
answers stay the same while the bytes the program reads change.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

NAMES = ("analyze", "approx_lp", "simulate_mix")

EPS = "0.3333"


@dataclass
class Command:
    argv: list[str]
    kind: str  # "analyze", "approx" or "simulate"; selects the answer check
    expect: dict


class _Inputs:
    """Seeded table files inside the run's work directory."""

    def __init__(self, seed: int, workdir: Path):
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.count = 0

    def relabeled(self, bits: np.ndarray) -> np.ndarray:
        perm = self.rng.permutation(ref.variables(bits))
        return ref.relabel(bits, perm, bool(self.rng.integers(2)))

    def table_file(self, bits: np.ndarray) -> str:
        self.count += 1
        path = self.workdir / f"table{self.count}.json"
        ref.write_table(path, bits)
        return str(path)


def _deep(inputs: _Inputs, fast: bool) -> list[Command]:
    """Low-sensitivity compositions whose exact block sensitivity needs branch and bound."""
    pf, maj3 = ref.paper_f(), ref.majority(3)
    if fast:
        functions = [(ref.compose(maj3, maj3), 4), (ref.compose(pf, maj3), 6)]
    else:
        functions = [(ref.compose(maj3, pf), 6), (ref.compose(pf, maj3), 6)]
    commands = []
    for bits, bs in functions:
        bits = inputs.relabeled(bits)
        commands.append(
            Command(["analyze", "--table", inputs.table_file(bits)], "analyze", {"bits": bits, "bs": bs})
        )
    return commands


# A fixed formula shape over 20 leaves. The seed assigns the variables to the
# leaves and negates some of them, so the cost stays put across seeds.
_FORMULA = (
    "(maj({0}, {1}, {2}) ^ ({3} & {4}) ^ ({5} | {6} | {7}))"
    " | (({8} ^ {9}) & maj({10}, {11} & {12}, {13}))"
    " | ({14} & {15} & !({16} ^ {17}))"
    " | parity({18}, {19})"
)
_FORMULA_LEAVES = 20


def _maj(a, b, c):
    return (a & b) | (a & c) | (b & c)


def _formula_bits(leaf: list[np.ndarray]) -> np.ndarray:
    """The same formula as _FORMULA, evaluated by numpy on leaf columns."""
    return (
        (_maj(leaf[0], leaf[1], leaf[2]) ^ (leaf[3] & leaf[4]) ^ (leaf[5] | leaf[6] | leaf[7]))
        | ((leaf[8] ^ leaf[9]) & _maj(leaf[10], leaf[11] & leaf[12], leaf[13]))
        | (leaf[14] & leaf[15] & (1 - (leaf[16] ^ leaf[17])))
        | (leaf[18] ^ leaf[19])
    ).astype(np.uint8)


def random_formula(rng: np.random.Generator, n: int) -> tuple[str, np.ndarray]:
    """A seeded instance of the formula shape on n variables, with its table.

    With n below the leaf count, leaves reuse variables (leaf k reads
    variable perm[k mod n]); every variable still appears.
    """
    perm = rng.permutation(n)
    negate = rng.integers(2, size=_FORMULA_LEAVES)
    x = np.arange(1 << n, dtype=np.int64)
    names, columns = [], []
    for k in range(_FORMULA_LEAVES):
        var = int(perm[k % n])
        column = (x >> var) & 1
        names.append(f"!x{var}" if negate[k] else f"x{var}")
        columns.append(1 - column if negate[k] else column)
    return _FORMULA.format(*names), _formula_bits(columns)


def _wide(inputs: _Inputs, fast: bool) -> list[Command]:
    """18-variable tables: block sensitivity is refused, the spectrum work dominates."""
    n = 10 if fast else 18
    table = ref.random_table(n, inputs.seed)
    formula, formula_bits = random_formula(inputs.rng, n)
    return [
        Command(["analyze", "--table", inputs.table_file(table)], "analyze", {"bits": table, "bs": None}),
        Command(
            ["analyze", "--expr", f"parity({n})"],
            "analyze",
            {"bits": ref.parity(n), "bs": n, "rho": 1, "degree": n},
        ),
        Command(["analyze", "--expr", formula], "analyze", {"bits": formula_bits, "bs": None}),
    ]


def approx_lp(inputs: _Inputs, fast: bool) -> list[Command]:
    """Minimax-LP approximate degree; nearly all the time is in approxdeg and HiGHS.

    The random tables are the toolkit's random_table(n, 2). The n = 8 ones
    are relabeled by the seed; the n = 9 one runs as given: it reproduces the
    LP re-verification failure, so that failure is counted on every seed.
    Relabeled n = 9 tables fail on some seeds only, and a failing command
    stops early, which would make the pass time depend on the seed.
    """
    small, large, odd = (5, 6, 5) if fast else (8, 9, 7)

    def approx(bits: np.ndarray, eps: str = EPS) -> Command:
        argv = ["approx-degree", "--eps", eps, "--table", inputs.table_file(bits)]
        return Command(argv, "approx", {"bits": bits, "eps": float(eps)})

    return [
        approx(inputs.relabeled(ref.random_table(small, 2))),
        approx(ref.random_table(large, 2)),
        Command(
            ["approx-degree", "--eps", EPS, "--expr", f"maj({odd})"],
            "approx",
            {"bits": ref.majority(odd), "eps": float(EPS)},
        ),
        approx(inputs.relabeled(ref.random_table(small, 2)), "0"),
    ]


def simulate_mix(inputs: _Inputs, fast: bool) -> list[Command]:
    """The Fourier-picture simulator in its two regimes: many oracles, and a wide register."""
    grover_n, iterations, parity_n, serial_n = (6, 2, 6, 4) if fast else (10, 3, 12, 6)
    gap_n = 4 if fast else 5
    serial_table = ref.random_table(serial_n, inputs.seed)
    return [
        Command(
            ["simulate", "--algorithm", "grover", "--n", str(grover_n), "--iterations", str(iterations)],
            "simulate",
            {"algorithm": "grover", "n": grover_n, "iterations": iterations},
        ),
        Command(
            ["simulate", "--algorithm", "parity", "--n", str(parity_n)],
            "simulate",
            {"algorithm": "parity", "n": parity_n},
        ),
        Command(
            ["simulate", "--algorithm", "serial", "--n", str(serial_n), "--table", inputs.table_file(serial_table)],
            "simulate",
            {"algorithm": "serial", "n": serial_n},
        ),
        Command(
            ["simulate", "--algorithm", "grover", "--n", str(gap_n)],
            "simulate",
            {"algorithm": "grover", "n": gap_n, "iterations": 1},
        ),
    ]


def analyze(inputs: _Inputs, fast: bool) -> list[Command]:
    """The analyze command where block sensitivity dominates, then where it is refused."""
    return _deep(inputs, fast) + _wide(inputs, fast)


_BUILDERS = {
    "analyze": analyze,
    "approx_lp": approx_lp,
    "simulate_mix": simulate_mix,
}


def build(name: str, seed: int, workdir: Path, fast: bool = False) -> list[Command]:
    """The workload's command list for this seed; table files go to workdir."""
    return _BUILDERS[name](_Inputs(seed, workdir), fast)
