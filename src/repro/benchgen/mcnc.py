"""Deterministic stand-ins for the paper's MCNC / synthetic benchmarks.

The paper evaluates on nine MCNC PLA benchmarks with explicitly defined DC
sets plus three 12-input synthetic functions (Table 1).  The original PLA
files are not redistributable here, so each benchmark is replaced by a
*seeded synthetic stand-in* generated to match every property Table 1
reports — input count, output count, %DC, ``E[C^f]`` (via the on/off
balance) and the measured complexity factor ``C^f``.  All of the paper's
analyses are driven by exactly these quantities, so the stand-ins exercise
the same regimes; see DESIGN.md for the substitution rationale.

Stand-ins are generated lazily and cached per process (generation anneals
``C^f`` and takes a moment for the 12-input entries).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.spec import FunctionSpec
from .synthetic import generate_spec

_CACHE_VERSION = 1
"""Bump to invalidate on-disk stand-ins after generator changes."""

_TOLERANCE = 0.015
"""Acceptable per-output ``|C^f - target|`` of a stand-in (also part of
its disk-cache file name)."""

__all__ = ["BenchmarkInfo", "TABLE1", "benchmark_names", "mcnc_benchmark"]


@dataclass(frozen=True)
class BenchmarkInfo:
    """One row of Table 1.

    Attributes:
        name: benchmark name as printed in the paper.
        num_inputs / num_outputs: interface shape.
        dc_percent: %DC column (fraction of minterms in the DC set).
        expected_cf: the ``E[C^f]`` column.
        cf: the measured ``C^f`` column (generation target).
        seed: deterministic generation seed.
    """

    name: str
    num_inputs: int
    num_outputs: int
    dc_percent: float
    expected_cf: float
    cf: float
    seed: int


TABLE1: tuple[BenchmarkInfo, ...] = (
    BenchmarkInfo("bench", 6, 8, 68.9, 0.533, 0.540, 101),
    BenchmarkInfo("fout", 6, 10, 41.4, 0.351, 0.338, 102),
    BenchmarkInfo("p3", 8, 14, 79.6, 0.671, 0.805, 103),
    BenchmarkInfo("p1", 8, 18, 77.7, 0.641, 0.788, 104),
    BenchmarkInfo("exp", 8, 18, 77.2, 0.644, 0.788, 105),
    BenchmarkInfo("test4", 8, 30, 71.5, 0.560, 0.557, 106),
    BenchmarkInfo("ex1010", 10, 10, 70.3, 0.540, 0.539, 107),
    BenchmarkInfo("exam", 10, 10, 86.8, 0.768, 0.802, 108),
    BenchmarkInfo("t4", 12, 8, 43.9, 0.477, 0.867, 109),
    BenchmarkInfo("random1", 12, 12, 68.6, 0.520, 0.490, 110),
    BenchmarkInfo("random2", 12, 12, 68.6, 0.520, 0.667, 111),
    BenchmarkInfo("random3", 12, 12, 68.6, 0.520, 0.826, 112),
)
"""The Table 1 benchmark roster (published properties + stand-in seeds)."""

_CACHE: dict[str, FunctionSpec] = {}


def benchmark_names() -> list[str]:
    """All Table 1 benchmark names, in paper order."""
    return [info.name for info in TABLE1]


def benchmark_info(name: str) -> BenchmarkInfo:
    """The Table 1 row for *name*.

    Raises:
        KeyError: for unknown benchmark names.
    """
    for info in TABLE1:
        if info.name == name:
            return info
    raise KeyError(f"unknown benchmark {name!r}; known: {benchmark_names()}")


def _cache_dir() -> Path:
    """On-disk cache directory (override with ``REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    path = Path(root) if root else Path.home() / ".cache" / "repro-benchgen"
    path.mkdir(parents=True, exist_ok=True)
    return path


def mcnc_benchmark(name: str) -> FunctionSpec:
    """The (cached) synthetic stand-in for Table 1 benchmark *name*.

    Generation is deterministic per name; results are memoised in-process
    and on disk (the 12-input entries take a few seconds to anneal).
    """
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    info = benchmark_info(name)
    disk = _cache_dir() / f"{name}-v{_CACHE_VERSION}-t{_TOLERANCE:g}.npz"
    if disk.exists():
        phases = np.load(disk)["phases"]
        spec = FunctionSpec(phases, name=name)
    else:
        spec = generate_spec(
            info.name,
            info.num_inputs,
            info.num_outputs,
            target_cf=info.cf,
            dc_fraction=info.dc_percent / 100.0,
            expected_cf=info.expected_cf,
            seed=info.seed,
            tolerance=_TOLERANCE,
        )
        np.savez_compressed(disk, phases=spec.phases)
    _CACHE[name] = spec
    return spec
