import os
from pathlib import Path

import pytest

from influence_lab.truthtable import random_table

# CLI subprocesses (criterion 12) import the package from this checkout too,
# as pyproject's pythonpath setting makes the test process do
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

CORPUS_SEED = 20240501


def corpus_tables(n: int, count: int = 100):
    return [random_table(n, CORPUS_SEED + 1000 * n + j) for j in range(count)]


@pytest.fixture(scope="session")
def corpus():
    """The shared random corpus: 100 seeded tables per n in 2..8."""
    return {n: corpus_tables(n) for n in range(2, 9)}


@pytest.fixture(scope="session")
def small_corpus():
    """Thinned corpus for the more expensive per-table checks."""
    return {n: corpus_tables(n, 12) for n in range(2, 7)}
