"""REDUCE: shrink each cube to the smallest cube still needed.

For each cube ``c`` (largest first), the part of ``c`` not covered by the
rest of the cover plus the DC set is what ``c`` uniquely contributes; ``c``
is replaced by the smallest cube containing that part:

    c_new = c  AND  supercube( complement( cofactor(F \\ c + D, c) ) )

Reducing un-primes the cover on purpose — the following EXPAND can then
escape the local minimum by growing the cubes in a different direction.

For word-sized input spaces the unique part is computed bit-parallel on
dense minterm tables (a per-minterm coverage counter updated as cubes
shrink), which is exactly equivalent to the cofactor/complement recursion:
the supercube of the unique minterm set binds a variable iff every cube of
the complement cover binds it to the same value.
"""

from __future__ import annotations

import numpy as np

from .cube import FREE, V0, V1, Cover, _use_dense, cube_tables, supercube
from .unate import _complement

__all__ = ["reduce_cover"]


def _minterm_supercube(table: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Smallest cube containing the minterms flagged by *table*.

    Args:
        table: boolean minterm membership, length ``2**n``.
        bits: precomputed ``(2**n, n)`` minterm-bit matrix.
    """
    member = bits[table]
    cube = np.full(bits.shape[1], FREE, dtype=np.uint8)
    cube[~member.any(axis=0)] = V0
    cube[member.all(axis=0)] = V1
    return cube


def _minterm_bits(num_inputs: int) -> np.ndarray:
    idx = np.arange(1 << num_inputs, dtype=np.int64)
    return ((idx[:, None] >> np.arange(num_inputs)[None, :]) & 1).astype(bool)


def _dense_reduce(cubes: np.ndarray, dont_care: Cover, num_inputs: int) -> tuple[np.ndarray, np.ndarray]:
    """Sequential maximal reduction on dense minterm tables.

    Returns ``(cubes, alive)`` — the reduced rows and the survivor mask.
    """
    tables = cube_tables(cubes, num_inputs)
    dc_table = dont_care.table()
    bits = _minterm_bits(num_inputs)
    coverage = tables.sum(axis=0, dtype=np.int64)
    alive = np.ones(len(cubes), dtype=bool)
    cubes = cubes.copy()
    for i in range(len(cubes)):
        table = tables[i]
        unique = table & ~dc_table & (coverage - table <= 0)
        if not unique.any():
            alive[i] = False
            coverage -= table
            continue
        new_cube = _minterm_supercube(unique, bits)
        if np.array_equal(new_cube, cubes[i]):
            continue
        cubes[i] = new_cube
        new_table = cube_tables(new_cube.reshape(1, -1), num_inputs)[0]
        coverage += new_table.astype(np.int64) - table.astype(np.int64)
        tables[i] = new_table
    return cubes, alive


def max_reduce(cover: Cover, dont_care: Cover) -> np.ndarray:
    """Maximally reduce every cube *independently* of the others.

    Unlike :func:`reduce_cover` the reductions do not interact: each cube
    is shrunk against the original cover.  Cubes that contribute nothing
    are returned unchanged (the caller decides their fate).  This is the
    kernel of ESPRESSO's LAST_GASP.
    """
    cubes = cover.cubes
    k = cubes.shape[0]
    num_inputs = cover.num_inputs
    if _use_dense(k, num_inputs):
        tables = cube_tables(cubes, num_inputs)
        dc_table = dont_care.table()
        coverage = tables.sum(axis=0, dtype=np.int64)
        # unique[i, m]: only cube i covers care-minterm m.
        unique = tables & ~dc_table[None, :] & ((coverage[None, :] - tables) <= 0)
        bits = _minterm_bits(num_inputs)
        counts = unique.astype(np.int64) @ bits.astype(np.int64)
        totals = unique.sum(axis=1)
        reduced = cubes.copy()
        nonempty = totals > 0
        all_one = counts == totals[:, None]
        all_zero = counts == 0
        rows = np.full(cubes.shape, FREE, dtype=np.uint8)
        rows[all_zero] = V0
        rows[all_one] = V1
        reduced[nonempty] = rows[nonempty]
        return reduced
    return np.vstack(
        [_max_reduce_one_recursive(cover, i, dont_care) for i in range(k)]
    )


def _max_reduce_one_recursive(cover: Cover, index: int, dont_care: Cover) -> np.ndarray:
    """Cofactor/complement fallback for one independent maximal reduction."""
    rest = Cover(
        np.vstack([np.delete(cover.cubes, index, axis=0), dont_care.cubes]),
        cover.num_inputs,
    )
    others = rest.cofactor(cover.cubes[index])
    unique_part = _complement(others.cubes, cover.num_inputs)
    if unique_part.shape[0] == 0:
        return cover.cubes[index]
    shrink = supercube(unique_part)
    merged = cover.cubes[index].copy()
    bound = shrink != FREE
    merged[bound] = shrink[bound]
    return merged


def reduce_cover(cover: Cover, dont_care: Cover) -> Cover:
    """Return the maximally reduced version of *cover* (order-dependent)."""
    cubes = cover.cubes.copy()
    if cubes.shape[0] == 0:
        return cover
    num_vars = cover.num_inputs
    order = np.argsort(np.count_nonzero(cubes != FREE, axis=1), kind="stable")
    cubes = cubes[order]
    if _use_dense(len(cubes), num_vars):
        reduced, alive = _dense_reduce(cubes, dont_care, num_vars)
        return Cover(reduced[alive], num_vars)
    alive = np.ones(len(cubes), dtype=bool)
    for i in range(len(cubes)):
        rest_rows = np.vstack(
            [cubes[alive & (np.arange(len(cubes)) != i)], dont_care.cubes]
        )
        rest = Cover(rest_rows, num_vars)
        others = rest.cofactor(cubes[i])
        unique_part = _complement(others.cubes, num_vars)
        if unique_part.shape[0] == 0:
            # Fully covered by the rest: the cube contributes nothing.
            alive[i] = False
            continue
        shrink = supercube(unique_part)
        merged = cubes[i].copy()
        bound = shrink != FREE
        merged[bound] = shrink[bound]
        cubes[i] = merged
    return Cover(cubes[alive], num_vars)
