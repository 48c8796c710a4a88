"""IRREDUNDANT: drop cubes covered by the rest of the cover plus the DC set.

A cube ``c`` is redundant when ``(F \\ c) + D`` contains it, which reduces
to a tautology check of the cofactor.  Cubes are examined from most- to
least-specific (most literals first), so small special-case cubes are
discarded before the large primes they hide under.

For word-sized input spaces the check runs bit-parallel over dense
per-cube minterm tables (one coverage counter per minterm, decremented as
cubes die); larger spaces fall back to the recursive tautology test.
"""

from __future__ import annotations

import numpy as np

from .cube import FREE, Cover, _use_dense, cube_tables
from .unate import _is_tautology

__all__ = ["irredundant"]


def _dense_irredundant(cubes: np.ndarray, dont_care: Cover, num_inputs: int) -> np.ndarray:
    """Sequential redundancy elimination on dense minterm tables.

    Semantically identical to the cofactor-tautology loop: cube ``i`` dies
    iff every one of its minterms is either a don't care or covered by
    another still-alive cube.
    """
    tables = cube_tables(cubes, num_inputs)
    dc_table = dont_care.table()
    coverage = tables.sum(axis=0, dtype=np.int64)
    alive = np.ones(len(cubes), dtype=bool)
    for i in range(len(cubes)):
        table = tables[i]
        if np.all(~table | dc_table | (coverage > 1)):
            alive[i] = False
            coverage -= table
    return alive


def irredundant(cover: Cover, dont_care: Cover) -> Cover:
    """Return an irredundant subset of *cover* w.r.t. the DC cover."""
    cubes = cover.cubes
    if cubes.shape[0] <= 1:
        return cover
    order = np.argsort(-np.count_nonzero(cubes != FREE, axis=1), kind="stable")
    cubes = cubes[order]
    num_inputs = cover.num_inputs
    if _use_dense(len(cubes), num_inputs):
        alive = _dense_irredundant(cubes, dont_care, num_inputs)
        return Cover(cubes[alive], num_inputs)
    alive = np.ones(len(cubes), dtype=bool)
    for i in range(len(cubes)):
        rest = np.vstack([cubes[alive & (np.arange(len(cubes)) != i)], dont_care.cubes])
        rest_cover = Cover(rest, num_inputs)
        if _is_tautology(rest_cover.cofactor(cubes[i]).cubes):
            alive[i] = False
    return Cover(cubes[alive], num_inputs)
