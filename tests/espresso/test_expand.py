"""EXPAND checked prime for prime, in order, against a reference copy of
the earlier conflict-matrix implementation.

The reference scans a ``(off-cubes, variables)`` conflict matrix after
every raise; the implementation under test works on per-column row
bitsets.  Both must raise the same literals in the same order (lowest
static conflict count, lowest variable on ties), so ESPRESSO's covers stay
the same.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.espresso import espresso
from repro.espresso.cube import FREE, Cover
from repro.espresso.expand import _expand_cube, expand
from repro.espresso.reduce_ import max_reduce, reduce_cover
from repro.espresso.unate import complement

# -------------------------------------------------------- reference EXPAND


def ref_expand_cube(cube: np.ndarray, off: np.ndarray) -> np.ndarray:
    cube = cube.copy()
    num_vars = cube.shape[0]
    if off.shape[0] == 0:
        return np.full(num_vars, FREE, dtype=np.uint8)
    conflicts = (cube != FREE) & (off != FREE) & (off != cube)
    blocking = conflicts.sum(axis=1)
    if np.any(blocking == 0):
        raise ValueError("cube intersects the off-set; cover is inconsistent")
    bound = cube != FREE
    weights = conflicts.sum(axis=0)
    while np.any(bound):
        single = blocking == 1
        if np.any(single):
            critical = np.any(conflicts[single], axis=0)
            raisable = np.flatnonzero(bound & ~critical)
        else:
            raisable = np.flatnonzero(bound)
        if raisable.size == 0:
            break
        best = int(raisable[np.argmin(weights[raisable])])
        cube[best] = FREE
        bound[best] = False
        blocking -= conflicts[:, best]
        conflicts[:, best] = False
        weights[best] = 0
    return cube


def ref_expand(cover: Cover, off: Cover) -> Cover:
    if cover.num_cubes == 0:
        return cover
    order = np.argsort(-np.count_nonzero(cover.cubes != FREE, axis=1), kind="stable")
    cubes = cover.cubes[order]
    alive = np.ones(len(cubes), dtype=bool)
    result: list[np.ndarray] = []
    for i in range(len(cubes)):
        if not alive[i]:
            continue
        prime = ref_expand_cube(cubes[i], off.cubes)
        result.append(prime)
        rest = cubes[i + 1 :]
        covered = np.all((prime == FREE) | (prime == rest), axis=1)
        alive[i + 1 :] &= ~covered
    return Cover(np.vstack(result), cover.num_inputs).single_cube_containment()


def ref_misses(cube: np.ndarray, off: np.ndarray) -> bool:
    """True when every off-cube conflicts with *cube* somewhere."""
    conflicts = (cube != FREE) & (off != FREE) & (off != cube)
    return bool(conflicts.any(axis=1).all())


# ------------------------------------------------------------------ inputs


@st.composite
def expand_problems(draw):
    """``(on_cover, dc_cover, off_cover)`` over 1..10 inputs; the on-cover
    holds minterms, or merged (reduced prime) cubes."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phase = rng.choice(3, size=1 << n, p=draw(st.sampled_from(
        [(0.4, 0.4, 0.2), (0.2, 0.6, 0.2), (0.6, 0.2, 0.2), (0.3, 0.3, 0.4)]
    )))
    on = Cover.from_minterms(n, np.flatnonzero(phase == 1))
    dc = Cover.from_minterms(n, np.flatnonzero(phase == 2))
    if draw(st.booleans()) and on.num_cubes:
        on = reduce_cover(espresso(on, dc), dc)
    return on, dc, complement(on.union(dc))


class TestExpandMatchesReference:
    @given(expand_problems())
    @settings(max_examples=120, deadline=None)
    def test_expand_matches_reference(self, problem):
        on, _, off = problem
        assert np.array_equal(expand(on, off).cubes, ref_expand(on, off).cubes)

    @given(expand_problems())
    @settings(max_examples=60, deadline=None)
    def test_supercube_rows_match_reference(self, problem):
        """LAST_GASP expands pairwise supercubes of maximally reduced
        cubes that miss the off-set."""
        on, dc, off = problem
        primes = espresso(on, dc)
        if primes.num_cubes < 2:
            return
        reduced = max_reduce(primes, dc)
        for i in range(len(reduced)):
            for j in range(i + 1, len(reduced)):
                row = np.where(reduced[i] == reduced[j], reduced[i], FREE)
                row = row.astype(np.uint8)
                if ref_misses(row, off.cubes):
                    want = ref_expand_cube(row, off.cubes)
                    assert np.array_equal(_expand_cube(row, off), want)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cube_meeting_off_set_raises(self, n):
        rng = np.random.default_rng(n)
        phase = rng.integers(0, 2, size=1 << n)
        phase[0] = 0  # minterm 0 is off
        off = complement(Cover.from_minterms(n, np.flatnonzero(phase == 1)))
        for row in (np.zeros(n, dtype=np.uint8), np.full(n, FREE, dtype=np.uint8)):
            with pytest.raises(ValueError, match="intersects the off-set"):
                ref_expand_cube(row, off.cubes)
            with pytest.raises(ValueError, match="intersects the off-set"):
                _expand_cube(row, off)
            with pytest.raises(ValueError, match="intersects the off-set"):
                expand(Cover(row[None, :], n), off)

    def test_empty_off_set_frees_every_literal(self):
        cover = Cover.from_strings(["01-", "110"])
        off = Cover.empty(3)
        assert expand(cover, off).cube_strings() == ["---"]
        assert ref_expand(cover, off).cube_strings() == ["---"]
