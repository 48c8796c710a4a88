"""Unate-recursive-paradigm operators: tautology and complement.

These are the classic Brayton et al. recursive procedures underlying
ESPRESSO.  Both recurse by Shannon expansion about the *most binate*
variable, with unate shortcuts at the leaves:

* a cover containing an all-FREE cube is a tautology / has empty complement;
* a cover that is *unate* in a variable can drop the half that cannot help
  cover the opposite polarity (tautology), and single cubes complement by
  De Morgan.

Small subproblems (few active variables) fall through to dense truth-table
evaluation, which is both simple and fast at this scale.
"""

from __future__ import annotations

import numpy as np

from .cube import FREE, V0, V1, Cover

__all__ = ["is_tautology", "complement", "cover_contains_cube", "covers_cover"]

_DENSE_LIMIT = 8
"""Tautology falls back to dense evaluation at or below this many active
variables."""

_COMPLEMENT_LEAF_VARS = 6
"""Complement by truth table at or below this many active variables.

Do not change it: the leaf size fixes which off-set cubes, in which
order, ``complement`` returns, and EXPAND picks the literals it raises
from per-column conflict counts against that cube array, so another
value changes the covers and every paper number."""


def _dense_covered(cubes: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Truth table of the cover over its active variables (packed kernel).

    Minterm ``m`` (bit ``pos`` = value of ``active[pos]``) is covered iff
    some cube's ``(mask, value)`` word pair satisfies
    ``(m ^ value) & mask == 0`` — one whole-row bitwise op per cube block,
    no per-variable Python loop.  The few active variables fit one word,
    so a dot product with the bit weights packs them.
    """
    k = len(active)
    size = 1 << k
    sub = cubes[:, active]
    weights = np.int64(1) << np.arange(k, dtype=np.int64)
    masks = (sub != FREE) @ weights
    values = (sub == V1) @ weights
    idx = np.arange(size, dtype=np.int64)
    covered = np.zeros(size, dtype=bool)
    chunk = max(1, 4_000_000 // max(1, size))
    for start in range(0, cubes.shape[0], chunk):
        mask_block = masks[start : start + chunk, None]
        value_block = values[start : start + chunk, None]
        covered |= np.any(((idx[None, :] ^ value_block) & mask_block) == 0, axis=0)
        if covered.all():
            break
    return covered


def _most_binate_var(count0: np.ndarray, count1: np.ndarray) -> int | None:
    """The variable with both polarities present maximising min(#0s, #1s).

    Args:
        count0, count1: per-variable counts of V0 and V1 literals.

    Returns None when the cover is unate (no variable has both polarities).
    """
    binate = (count0 > 0) & (count1 > 0)
    if not np.any(binate):
        return None
    score = np.where(binate, np.minimum(count0, count1) + count0 + count1, -1)
    return int(np.argmax(score))


def _dense_tautology(cubes: np.ndarray, active: np.ndarray) -> bool:
    """Exhaustively evaluate the cover over its active variables."""
    return bool(_dense_covered(cubes, active).all())


def is_tautology(cover: Cover) -> bool:
    """True when the cover evaluates to 1 on every minterm."""
    return _is_tautology(cover.cubes)


def _is_tautology(cubes: np.ndarray) -> bool:
    if cubes.shape[0] == 0:
        return False
    free_rows = np.all(cubes == FREE, axis=1)
    if np.any(free_rows):
        return True
    # Quick necessary condition: a cover of k cubes over v active variables
    # covers at most k * 2**(v - min_literals) minterms.
    literals = np.count_nonzero(cubes != FREE, axis=1)
    if float(np.sum(np.exp2(-literals.astype(np.float64)))) < 1.0:
        return False
    # Unate reduction: if some variable appears in only one polarity, cubes
    # bound to that polarity cannot cover the other half-space alone; the
    # cover is a tautology iff the FREE-at-var subcover is.
    count0 = np.count_nonzero(cubes == V0, axis=0)
    count1 = np.count_nonzero(cubes == V1, axis=0)
    pos_unate = np.flatnonzero((count1 > 0) & (count0 == 0))
    neg_unate = np.flatnonzero((count0 > 0) & (count1 == 0))
    if pos_unate.size or neg_unate.size:
        unate_vars = np.concatenate([pos_unate, neg_unate])
        keep = ~np.any(cubes[:, unate_vars] != FREE, axis=1)
        return _is_tautology(cubes[keep])
    active = np.flatnonzero(count0 + count1)
    if len(active) <= _DENSE_LIMIT:
        return _dense_tautology(cubes, active)
    var = _most_binate_var(count0, count1)
    assert var is not None  # unate covers were handled above
    return _is_tautology(_var_cofactor(cubes, var, V1)) and _is_tautology(
        _var_cofactor(cubes, var, V0)
    )


def _var_cofactor(cubes: np.ndarray, var: int, value: int) -> np.ndarray:
    keep = (cubes[:, var] == FREE) | (cubes[:, var] == value)
    rows = cubes[keep].copy()
    rows[:, var] = FREE
    return rows


def _cube_complement(cube: np.ndarray) -> np.ndarray:
    """De Morgan complement of a single cube (one row per bound literal)."""
    bound = np.flatnonzero(cube != FREE)
    rows = np.full((len(bound), len(cube)), FREE, dtype=np.uint8)
    rows[np.arange(len(bound)), bound] = V1 - cube[bound]
    return rows


def _dense_complement(cubes: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Complement by truth-table enumeration over the active variables.

    Off-minterms of the active subspace become fully bound cubes over the
    active variables (FREE elsewhere), in minterm order.
    """
    off = np.flatnonzero(~_dense_covered(cubes, active))
    rows = np.full((len(off), cubes.shape[1]), FREE, dtype=np.uint8)
    rows[:, active] = (off[:, None] >> np.arange(len(active))) & 1
    return rows


def _merge_shannon(var: int, comp0: np.ndarray, comp1: np.ndarray) -> np.ndarray:
    """Assemble ``x'·comp0 + x·comp1``, merging cubes equal up to *var*.

    Rows keep the order of their first occurrence in ``comp0`` then
    ``comp1``; a row found in both halves no longer depends on *var*.
    """
    rows = np.vstack([comp0, comp1])
    if rows.shape[0] == 0:
        return rows
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    split = comp0.shape[0]
    in0 = np.zeros(len(first), dtype=bool)
    in0[inverse[:split]] = True
    in1 = np.zeros(len(first), dtype=bool)
    in1[inverse[split:]] = True
    order = np.argsort(first)
    merged = rows[first[order]]
    merged[:, var] = np.where(in1, np.where(in0, FREE, V1), V0)[order]
    return merged


def complement(cover: Cover) -> Cover:
    """The complement of *cover* as a new cover."""
    return Cover(_complement(cover.cubes, cover.num_inputs), cover.num_inputs)


def _complement(cubes: np.ndarray, num_vars: int) -> np.ndarray:
    if cubes.shape[0] == 0:
        return np.full((1, num_vars), FREE, dtype=np.uint8)
    bound = cubes != FREE
    if not bound.any(axis=1).all():
        return np.empty((0, num_vars), dtype=np.uint8)
    if cubes.shape[0] == 1:
        return _cube_complement(cubes[0])
    count_bound = bound.sum(axis=0)
    active = np.flatnonzero(count_bound)
    if len(active) <= _COMPLEMENT_LEAF_VARS:
        return _dense_complement(cubes, active)
    count1 = (cubes == V1).sum(axis=0)
    var = _most_binate_var(count_bound - count1, count1)
    if var is None:
        # Unate cover: split about the most frequently bound variable.
        var = int(np.argmax(count_bound))
    column = cubes[:, var]
    halves = []
    for value in (V0, V1):
        rows = cubes[~bound[:, var] | (column == value)]
        rows[:, var] = FREE
        halves.append(_complement(rows, num_vars))
    return _merge_shannon(var, *halves)


def cover_contains_cube(cover: Cover, cube: np.ndarray) -> bool:
    """True when every minterm of *cube* is covered by *cover*.

    Implemented as the classic containment-to-tautology reduction:
    ``cube <= cover  iff  cofactor(cover, cube)`` is a tautology.
    """
    return _is_tautology(cover.cofactor(cube).cubes)


def covers_cover(outer: Cover, inner: Cover) -> bool:
    """True when *outer* covers every cube of *inner*."""
    return all(cover_contains_cube(outer, cube) for cube in inner.cubes)
