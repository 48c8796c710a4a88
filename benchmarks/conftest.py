"""Shared infrastructure for the experiment benchmarks.

Every file in this directory regenerates one table or figure of the paper
(see DESIGN.md's experiment index) or, in ``bench_substrate_perf.py``,
asserts the kernels' speedup floors.  By default the harness runs a
reduced but representative configuration so ``pytest benchmarks/``
finishes in minutes; set ``REPRO_FULL=1`` to run the complete Table 1
roster and the full sweep grids.

Each benchmark prints its regenerated table (run with ``-s`` to see it
live) and also appends it to ``benchmarks/results.txt`` so the output
survives pytest's capture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_FILE = Path(__file__).parent / "results.txt"

ROSTER_FULL = [
    "bench", "fout", "p3", "p1", "exp", "test4",
    "ex1010", "exam", "t4", "random1", "random2", "random3",
]
ROSTER_FAST = ["bench", "fout", "p3", "p1", "exp", "test4", "exam", "t4", "random3"]


def full_mode() -> bool:
    """True when REPRO_FULL=1 requests the complete experiment grid."""
    return os.environ.get("REPRO_FULL", "0") == "1"


def roster() -> list[str]:
    """The benchmark roster for the current mode."""
    return ROSTER_FULL if full_mode() else ROSTER_FAST


def fractions() -> list[float]:
    """Ranking-fraction grid for the current mode."""
    if full_mode():
        return [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    return [0.0, 0.5, 1.0]


def emit(title: str, text: str) -> None:
    """Print a regenerated artefact and append it to the results file."""
    block = f"\n===== {title} =====\n{text}\n"
    print(block)
    with open(RESULTS_FILE, "a", encoding="utf-8") as handle:
        handle.write(block)


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Start each benchmark session with a clean results file."""
    if RESULTS_FILE.exists():
        RESULTS_FILE.unlink()
    yield
