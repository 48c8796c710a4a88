"""EXPAND: grow every cube of the cover into a prime implicant.

Each cube is expanded literal by literal against the off-set cover ``R``: a
literal may be raised (set FREE) when the raised cube still intersects no
off-set cube.  The raising order follows the classic column-count heuristic
(raise the literal that conflicts with the fewest off-set cubes first, so
the cube keeps the most freedom), and cubes made redundant by an expanded
prime are dropped on the fly.

Both steps work on per-column row bitsets (:attr:`Cover.bitsets`): the
off-cubes a literal keeps away are one int, so a literal's conflict count
is a popcount, and the cover rows an expanded prime contains are an AND
over its literals.
"""

from __future__ import annotations

import numpy as np

from .cube import FREE, V0, Cover, column_bitsets, int_bits

__all__ = ["expand"]


def _raise_literals(cube: list[int], off: Cover) -> list[tuple[int, int]]:
    """The ``(variable, value)`` literals a cube keeps when expanded to a
    prime against *off*, in variable order.

    Args:
        cube: the cube's literal codes.
        off: the off-set cover.

    A literal is raisable when no off-cube is kept away by that literal
    alone; among the raisable ones, the one in the fewest conflicts is
    raised first, the lowest variable on ties.  A literal found not
    raisable never becomes raisable (its lone off-cube stays kept away by
    it alone), so one pass in (conflicts, variable) order makes the same
    choices as re-scanning after every raise.

    Raises:
        ValueError: when the cube meets an off-cube.
    """
    zeros, ones = off.bitsets
    # The off-cubes each literal keeps away: those bound the other way.
    blocks = [(ones[j] if value == V0 else zeros[j], j, value)
              for j, value in enumerate(cube) if value != FREE]
    blocked, single = _blocked(blocks)
    if blocked != (1 << off.num_cubes) - 1:
        raise ValueError("cube intersects the off-set; cover is inconsistent")
    kept = blocks
    for candidate in sorted(blocks, key=lambda block: block[0].bit_count()):
        if candidate[0] & single:
            continue
        kept = [block for block in kept if block is not candidate]
        _, single = _blocked(kept)
    return [(j, value) for _, j, value in kept]


def _blocked(blocks: list[tuple[int, int, int]]) -> tuple[int, int]:
    """The off-cubes kept away by any of *blocks*, and by exactly one."""
    once = twice = 0
    for rows, _, _ in blocks:
        twice |= once & rows
        once |= rows
    return once, once & ~twice


def _expand_cube(cube: np.ndarray, off: Cover) -> np.ndarray:
    """Expand one cube to a prime against the off-set cover."""
    prime = np.full(cube.shape[0], FREE, dtype=np.uint8)
    for j, value in _raise_literals(cube.tolist(), off):
        prime[j] = value
    return prime


def expand(cover: Cover, off: Cover) -> Cover:
    """Expand every cube of *cover* to a prime and drop covered cubes.

    Args:
        cover: current on-cover (must be disjoint from *off*).
        off: the off-set cover of the function.

    Returns:
        A prime cover of the same function region.
    """
    if cover.num_cubes == 0:
        return cover
    # Process small cubes first: they gain the most and are the likeliest
    # to swallow their siblings.
    order = np.argsort(-np.count_nonzero(cover.cubes != FREE, axis=1), kind="stable")
    cubes = cover.cubes[order]
    zeros, ones = column_bitsets(cubes)
    alive = (1 << len(cubes)) - 1
    expanded: list[int] = []  # rows expanded, in order
    kept: list[int] = []  # per expanded row, the variables its prime binds
    for i, cube in enumerate(cubes.tolist()):
        if not alive >> i & 1:
            continue
        # Later rows the prime contains agree with each of its literals.
        covered = alive >> (i + 1) << (i + 1)
        bound = 0
        for j, value in _raise_literals(cube, off):
            covered &= ones[j] if value else zeros[j]
            bound |= 1 << j
        alive &= ~covered
        expanded.append(i)
        kept.append(bound)
    primes = np.where(int_bits(kept, cover.num_inputs), cubes[expanded], FREE)
    return Cover(primes, cover.num_inputs).single_cube_containment()
