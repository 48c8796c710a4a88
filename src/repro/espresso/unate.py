"""Unate-recursive-paradigm operators: tautology and complement.

These are the classic Brayton et al. recursive procedures underlying
ESPRESSO.  Both recurse by Shannon expansion about the *most binate*
variable, with unate shortcuts at the leaves:

* a cover containing an all-FREE cube is a tautology / has empty complement;
* a cover that is *unate* in a variable can drop the half that cannot help
  cover the opposite polarity (tautology), and single cubes complement by
  De Morgan.

Small subproblems (few active variables) fall through to dense truth-table
evaluation, which is both simple and fast at this scale.  The complement
recursion runs on per-column row bitsets (:func:`~repro.espresso.cube.column_bitsets`)
rather than on cube arrays.
"""

from __future__ import annotations

import numpy as np

from .cube import FREE, V0, V1, Cover, column_bitsets, int_bits

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


def complement(cover: Cover) -> Cover:
    """The complement of *cover* as a new cover."""
    return Cover(_complement(cover.cubes, cover.num_inputs), cover.num_inputs)


def _complement(cubes: np.ndarray, num_vars: int) -> np.ndarray:
    """Complement of a cube array, as a cube array.

    The recursion works on per-column row bitsets (see
    :func:`~repro.espresso.cube.column_bitsets`): a subproblem is an int of
    live rows, a per-variable count is one AND and a popcount, and a
    cofactor is one AND.  Result cubes are ints too, bit ``j`` set when
    variable ``j`` is bound and bit ``num_vars + j`` when it is bound to 1,
    so the Shannon merge is a set lookup.  The decisions (shortcuts, leaf
    size, split variable, merge order) are fixed: EXPAND reads the
    returned rows in order.
    """
    if cubes.shape[0] == 0:
        return np.full((1, num_vars), FREE, dtype=np.uint8)
    zeros, ones = column_bitsets(cubes)
    codes = _complement_rows((1 << cubes.shape[0]) - 1, range(num_vars),
                             zeros, ones, num_vars)
    if not codes:
        return np.empty((0, num_vars), dtype=np.uint8)
    bits = int_bits(codes, 2 * num_vars)
    return np.where(bits[:, :num_vars], bits[:, num_vars:], FREE).astype(np.uint8)


def _complement_rows(alive: int, columns, zeros: list[int], ones: list[int],
                     num_vars: int) -> list[int]:
    """Cube codes of the complement of the rows in *alive*.

    Args:
        alive: bitset of the subproblem's rows.
        columns: ascending variables not yet split on.
        zeros, ones: per variable, the rows bound to 0 and to 1.
        num_vars: offset of the value bits in a cube code.
    """
    if not alive:
        return [0]
    live = []  # (variable, its rows bound to 0, its rows bound to 1)
    seen = 0
    for j in columns:
        c0 = zeros[j] & alive
        c1 = ones[j] & alive
        if c0 or c1:
            live.append((j, c0, c1))
            seen |= c0 | c1
    if seen != alive:
        return []  # some row binds no live variable: a tautology
    if not alive & (alive - 1):
        # One cube: De Morgan, one cube per bound literal in variable order.
        return [(1 << j) | (1 << (num_vars + j) if c0 else 0) for j, c0, _ in live]
    if len(live) <= _COMPLEMENT_LEAF_VARS:
        return _leaf_complement(alive, live, num_vars)
    var, best = -1, -1
    for j, c0, c1 in live:
        if c0 and c1:
            n0, n1 = c0.bit_count(), c1.bit_count()
            score = (n0 if n0 < n1 else n1) + n0 + n1
            if score > best:
                var, best = j, score
    if var < 0:
        # Unate cover: split about the first most frequently bound variable.
        for j, c0, c1 in live:
            score = (c0 | c1).bit_count()
            if score > best:
                var, best = j, score
    rest = [j for j, _, _ in live if j != var]
    comp0 = _complement_rows(alive & ~ones[var], rest, zeros, ones, num_vars)
    comp1 = _complement_rows(alive & ~zeros[var], rest, zeros, ones, num_vars)
    # x'*comp0 + x*comp1: rows keep their first-occurrence order, and a row
    # found in both halves no longer depends on x.
    bit0 = 1 << var
    bit1 = bit0 | (1 << (num_vars + var))
    in0 = set(comp0)
    in1 = set(comp1)
    merged = [code if code in in1 else code | bit0 for code in comp0]
    merged += [code | bit1 for code in comp1 if code not in in0]
    return merged


def _leaf_complement(alive: int, live: list[tuple[int, int, int]],
                     num_vars: int) -> list[int]:
    """Off-minterms of a subproblem over at most six live variables.

    Emitted in minterm order, bit ``p`` of the minterm being the value of
    ``live[p]``'s variable, as fully bound cubes over the live variables.
    The minterm splits into a low half (the first three variables) and a
    high half; each half tabulates, per assignment, the rows it does not
    contradict and its value bits, and a minterm is off when no row
    survives both halves.
    """
    mask = 0
    for j, _, _ in live:
        mask |= 1 << j
    low_rows, low_codes = _half_table(live[:3], alive, num_vars)
    high_rows, high_codes = _half_table(live[3:], alive, num_vars)
    return [
        mask | high_code | low_code
        for high, high_code in zip(high_rows, high_codes)
        for low, low_code in zip(low_rows, low_codes)
        if not high & low
    ]


def _half_table(live: list[tuple[int, int, int]], alive: int,
                num_vars: int) -> tuple[list[int], list[int]]:
    """Per assignment of *live*'s variables (bit ``p`` = value of the
    ``p``-th): the rows of *alive* it does not contradict, and its value
    bits."""
    table = [alive]
    codes = [0]
    for j, c0, c1 in live:
        not_one, not_zero = alive ^ c1, alive ^ c0
        value = 1 << (num_vars + j)
        table = [row & not_one for row in table] + [row & not_zero for row in table]
        codes = codes + [code | value for code in codes]
    return table, codes


def cover_contains_cube(cover: Cover, cube: np.ndarray) -> bool:
    """True when every minterm of *cube* is covered by *cover*.

    Implemented as the classic containment-to-tautology reduction:
    ``cube <= cover  iff  cofactor(cover, cube)`` is a tautology.
    """
    return _is_tautology(cover.cofactor(cube).cubes)


def covers_cover(outer: Cover, inner: Cover) -> bool:
    """True when *outer* covers every cube of *inner*."""
    return all(cover_contains_cube(outer, cube) for cube in inner.cubes)
