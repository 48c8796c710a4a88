"""Randomized equivalence tests for the bit-parallel packed kernels.

Every packed kernel is checked against a straightforward dense reference
implementation (the pre-packing per-literal loops) on seeded random covers
across n in 1..10 (0..10 for ``evaluate``), plus the empty and universe
edge cases.
"""

import numpy as np
import pytest

from repro.espresso.cube import (
    FREE,
    Cover,
    cube_contains,
    cube_tables,
    cubes_intersect,
    pack_cubes,
    unpack_cubes,
)

# ----------------------------------------------------------------- references


def ref_cube_contains(outer: np.ndarray, inner: np.ndarray) -> bool:
    return bool(np.all((outer == FREE) | (outer == inner)))


def ref_cubes_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    return not bool(np.any((a != FREE) & (b != FREE) & (a != b)))


def ref_evaluate(cover: Cover) -> np.ndarray:
    n = cover.num_inputs
    size = 1 << n
    result = np.zeros(size, dtype=bool)
    idx = np.arange(size, dtype=np.int64)
    for cube in cover.cubes:
        match = np.ones(size, dtype=bool)
        for j in range(n):
            if cube[j] != FREE:
                match &= ((idx >> j) & 1) == cube[j]
        result |= match
    return result


def ref_covers_minterm(cover: Cover, minterm: int) -> bool:
    for cube in cover.cubes:
        hit = True
        for j in range(cover.num_inputs):
            if cube[j] != FREE and int((minterm >> j) & 1) != cube[j]:
                hit = False
                break
        if hit:
            return True
    return False


def ref_cofactor(cover: Cover, cube: np.ndarray) -> Cover:
    if cover.num_cubes == 0:
        return Cover.empty(cover.num_inputs)
    bound = cube != FREE
    conflict = (cover.cubes != FREE) & bound & (cover.cubes != cube)
    keep = ~np.any(conflict, axis=1)
    rows = cover.cubes[keep].copy()
    rows[:, bound] = FREE
    return Cover(rows, cover.num_inputs)


def ref_single_cube_containment(cover: Cover) -> Cover:
    k = cover.num_cubes
    if k <= 1:
        return cover
    cubes = cover.cubes
    contains = np.all(
        (cubes[:, None, :] == FREE) | (cubes[:, None, :] == cubes[None, :, :]),
        axis=2,
    )
    np.fill_diagonal(contains, False)
    keep = np.ones(k, dtype=bool)
    for i in range(k):
        for j in np.flatnonzero(contains[:, i]):
            if not keep[j]:
                continue
            if contains[i, j] and i < j:
                continue
            keep[i] = False
            break
    return Cover(cubes[keep], cover.num_inputs)


def random_cover(rng: np.random.Generator, n: int, k: int) -> Cover:
    cubes = rng.choice(
        np.array([0, 1, 2], dtype=np.uint8), size=(k, n), p=[0.3, 0.3, 0.4]
    )
    return Cover(cubes, n)


# ---------------------------------------------------------------------- tests


@pytest.mark.parametrize("n", range(1, 11))
def test_pack_unpack_roundtrip(n):
    rng = np.random.default_rng(100 + n)
    cover = random_cover(rng, n, 17)
    masks, values = pack_cubes(cover.cubes)
    assert masks.dtype == np.uint64 and values.dtype == np.uint64
    assert np.array_equal(unpack_cubes(masks, values, n), cover.cubes)


@pytest.mark.parametrize("n", range(0, 11))
def test_evaluate_matches_reference(n):
    rng = np.random.default_rng(200 + n)
    covers = [random_cover(rng, n, k) for k in (0, 1, 2, 7, 23)]
    # Rows binding every input take the by-index path of evaluate(); mix
    # them with other rows and repeat some minterms.
    minterms = rng.integers(0, 1 << n, size=(1 << n) // 2 + 3)
    covers += [
        Cover.from_minterms(n, np.unique(minterms)),
        Cover.from_minterms(n, range(1 << n)),
        Cover.from_minterms(n, minterms).union(random_cover(rng, n, 6)),
        random_cover(rng, n, 4).union(Cover.from_minterms(n, minterms[:3])),
    ]
    for cover in covers:
        want = ref_evaluate(cover)
        assert np.array_equal(cover.evaluate(), want)
        table = cover.table()
        assert not table.flags.writeable
        assert np.array_equal(table, want)


def test_evaluate_empty_and_universe():
    for n in range(1, 11):
        empty = Cover.empty(n)
        assert not empty.evaluate().any()
        assert not empty.covers_minterm(0)
        universe = Cover.universe(n)
        assert universe.evaluate().all()
        assert universe.covers_minterm((1 << n) - 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_covers_minterm_matches_reference(n):
    rng = np.random.default_rng(300 + n)
    cover = random_cover(rng, n, 9)
    for minterm in rng.integers(0, 1 << n, size=32):
        minterm = int(minterm)
        assert cover.covers_minterm(minterm) == ref_covers_minterm(cover, minterm)


@pytest.mark.parametrize("n", range(1, 11))
def test_cube_predicates_match_reference(n):
    rng = np.random.default_rng(400 + n)
    cubes = random_cover(rng, n, 40).cubes
    for _ in range(60):
        a = cubes[rng.integers(len(cubes))]
        b = cubes[rng.integers(len(cubes))]
        assert cube_contains(a, b) == ref_cube_contains(a, b)
        assert cubes_intersect(a, b) == ref_cubes_intersect(a, b)
    free = np.full(n, FREE, dtype=np.uint8)
    assert cube_contains(free, cubes[0])
    assert cubes_intersect(free, cubes[0])


@pytest.mark.parametrize("n", range(1, 11))
def test_cofactor_matches_reference(n):
    rng = np.random.default_rng(500 + n)
    cover = random_cover(rng, n, 13)
    for _ in range(10):
        cube = rng.choice(np.array([0, 1, 2], dtype=np.uint8), size=n, p=[0.25, 0.25, 0.5])
        got = cover.cofactor(cube)
        want = ref_cofactor(cover, cube)
        assert np.array_equal(got.cubes, want.cubes)


@pytest.mark.parametrize("n", range(1, 11))
def test_single_cube_containment_matches_reference(n):
    rng = np.random.default_rng(600 + n)
    for k in (0, 1, 2, 5, 21):
        cover = random_cover(rng, n, k)
        got = cover.single_cube_containment()
        want = ref_single_cube_containment(cover)
        assert np.array_equal(got.cubes, want.cubes)


@pytest.mark.parametrize("n", range(1, 11))
def test_cube_tables_match_per_cube_evaluate(n):
    rng = np.random.default_rng(700 + n)
    cover = random_cover(rng, n, 8)
    tables = cube_tables(cover.cubes, n)
    for i in range(cover.num_cubes):
        single = Cover(cover.cubes[i : i + 1], n)
        assert np.array_equal(tables[i], ref_evaluate(single))


def test_packed_wide_cover_crosses_word_boundary():
    # 70 inputs exercises the multi-word mask/value path.
    n = 70
    rng = np.random.default_rng(42)
    cover = random_cover(rng, n, 12)
    masks, values = pack_cubes(cover.cubes)
    assert masks.shape == (12, 2)
    assert np.array_equal(unpack_cubes(masks, values, n), cover.cubes)
    for _ in range(40):
        a = cover.cubes[rng.integers(12)]
        b = cover.cubes[rng.integers(12)]
        assert cube_contains(a, b) == ref_cube_contains(a, b)
        assert cubes_intersect(a, b) == ref_cubes_intersect(a, b)


# ----------------------------------------------------------- input validation


def test_from_minterms_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Cover.from_minterms(3, [0, 8])
    with pytest.raises(ValueError, match="out of range"):
        Cover.from_minterms(3, [-1])
    cover = Cover.from_minterms(3, [0, 7])
    assert cover.num_cubes == 2


def test_from_strings_rejects_bad_literals():
    with pytest.raises(ValueError, match="invalid literal character"):
        Cover.from_strings(["01x"])
    with pytest.raises(ValueError, match="wrong width"):
        Cover.from_strings(["01", "011"])
    with pytest.raises(ValueError, match="at least one"):
        Cover.from_strings([])
    cover = Cover.from_strings(["01-", "2-1"])
    assert cover.num_cubes == 2
