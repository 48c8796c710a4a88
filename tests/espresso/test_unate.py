"""Property tests for tautology and complement via the URP.

``complement`` is also checked cube for cube, in order, against a
reference copy of the earlier recursion (per-call scans, a per-row dict
merge and ``pack_cubes`` leaves): EXPAND reads the off-set cube array, so
a faster complement must return exactly the same rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.espresso.cube import FREE, V0, V1, Cover, pack_cubes
from repro.espresso.unate import (
    _complement,
    complement,
    cover_contains_cube,
    covers_cover,
    is_tautology,
)

# ------------------------------------------------------ reference complement


def ref_dense_covered(cubes: np.ndarray, active: np.ndarray) -> np.ndarray:
    size = 1 << len(active)
    masks, values = pack_cubes(cubes[:, active])
    idx = np.arange(size, dtype=np.uint64)
    return np.any(
        ((idx[None, :] ^ values[:, 0][:, None]) & masks[:, 0][:, None]) == 0, axis=0
    )


def ref_most_binate_var(cubes: np.ndarray) -> int | None:
    count0 = np.count_nonzero(cubes == V0, axis=0)
    count1 = np.count_nonzero(cubes == V1, axis=0)
    binate = (count0 > 0) & (count1 > 0)
    if not np.any(binate):
        return None
    score = np.where(binate, np.minimum(count0, count1) + count0 + count1, -1)
    return int(np.argmax(score))


def ref_var_cofactor(cubes: np.ndarray, var: int, value: int) -> np.ndarray:
    keep = (cubes[:, var] == FREE) | (cubes[:, var] == value)
    rows = cubes[keep].copy()
    rows[:, var] = FREE
    return rows


def ref_cube_complement(cube: np.ndarray) -> np.ndarray:
    bound = np.flatnonzero(cube != FREE)
    rows = np.full((len(bound), len(cube)), FREE, dtype=np.uint8)
    for row, var in enumerate(bound):
        rows[row, var] = V1 - cube[var]
    return rows


def ref_dense_complement(cubes: np.ndarray, active: np.ndarray) -> np.ndarray:
    k = len(active)
    off = np.flatnonzero(~ref_dense_covered(cubes, active))
    rows = np.full((len(off), cubes.shape[1]), FREE, dtype=np.uint8)
    if len(off):
        bits = (off[:, None] >> np.arange(k)[None, :]) & 1
        rows[:, active] = bits.astype(np.uint8)
    return rows


def ref_merge_shannon(
    num_vars: int, var: int, comp0: np.ndarray, comp1: np.ndarray
) -> np.ndarray:
    if comp0.shape[0] == 0 and comp1.shape[0] == 0:
        return np.empty((0, num_vars), dtype=np.uint8)
    seen: dict[bytes, tuple[int, int]] = {}
    rows: list[np.ndarray] = []
    for value, part in ((V0, comp0), (V1, comp1)):
        for cube in part:
            key = cube.tobytes()
            prev = seen.get(key)
            if prev is not None:
                prev_value, prev_index = prev
                if prev_value != value:
                    rows[prev_index][var] = FREE
                continue
            merged = cube.copy()
            merged[var] = value
            seen[key] = (value, len(rows))
            rows.append(merged)
    return np.vstack(rows) if rows else np.empty((0, num_vars), dtype=np.uint8)


def ref_complement(cubes: np.ndarray, num_vars: int) -> np.ndarray:
    if cubes.shape[0] == 0:
        return np.full((1, num_vars), FREE, dtype=np.uint8)
    if np.any(np.all(cubes == FREE, axis=1)):
        return np.empty((0, num_vars), dtype=np.uint8)
    if cubes.shape[0] == 1:
        return ref_cube_complement(cubes[0])
    active = np.flatnonzero(np.any(cubes != FREE, axis=0))
    if len(active) <= 6:
        return ref_dense_complement(cubes, active)
    var = ref_most_binate_var(cubes)
    if var is None:
        var = int(np.argmax(np.count_nonzero(cubes != FREE, axis=0)))
    comp0 = ref_complement(ref_var_cofactor(cubes, var, V0), num_vars)
    comp1 = ref_complement(ref_var_cofactor(cubes, var, V1), num_vars)
    return ref_merge_shannon(num_vars, var, comp0, comp1)


COVER_KINDS = ("random", "minterms", "minterms+cubes", "unate", "single", "free_row")


@st.composite
def complement_inputs(draw) -> np.ndarray:
    """A cube array over 1..13 inputs of one of :data:`COVER_KINDS`,
    optionally with duplicated rows."""
    n = draw(st.integers(1, 13))
    kind = draw(st.sampled_from(COVER_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 40))
    if kind == "single":
        cubes = rng.integers(0, 3, size=(1, n))
    elif kind.startswith("minterms"):
        density = draw(st.floats(0.05, 0.95))
        cubes = Cover.from_minterms(n, np.flatnonzero(rng.random(1 << n) < density)).cubes
        if kind == "minterms+cubes":
            cubes = np.vstack([cubes, rng.integers(0, 3, size=(k, n))])
    elif kind == "unate":
        polarity = rng.integers(0, 2, size=n)
        cubes = np.where(rng.random((k, n)) < 0.4, polarity, FREE)
    else:
        cubes = rng.choice([V0, V1, FREE], size=(k, n), p=[0.3, 0.3, 0.4])
    cubes = cubes.astype(np.uint8)
    if kind == "free_row":
        cubes = np.insert(cubes, int(rng.integers(0, len(cubes) + 1)), FREE, axis=0)
    if len(cubes) and draw(st.booleans()):
        repeats = rng.integers(0, len(cubes), size=int(rng.integers(1, len(cubes) + 1)))
        cubes = np.insert(cubes, rng.integers(0, len(cubes) + 1, size=len(repeats)),
                          cubes[repeats], axis=0)
    return cubes


def random_cover(rng: np.random.Generator, num_inputs: int, num_cubes: int) -> Cover:
    cubes = rng.choice(
        np.array([0, 1, 2], dtype=np.uint8),
        size=(num_cubes, num_inputs),
        p=[0.25, 0.25, 0.5],
    )
    return Cover(cubes, num_inputs)


class TestTautology:
    def test_empty_cover(self):
        assert not is_tautology(Cover.empty(3))

    def test_universe(self):
        assert is_tautology(Cover.universe(3))

    def test_x_plus_not_x(self):
        assert is_tautology(Cover.from_strings(["1--", "0--"]))

    def test_single_literal_not_tautology(self):
        assert not is_tautology(Cover.from_strings(["1--"]))

    def test_all_minterms(self):
        cover = Cover.from_minterms(3, range(8))
        assert is_tautology(cover)
        assert not is_tautology(Cover.from_minterms(3, range(7)))

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, 24))
        cover = random_cover(rng, n, k)
        assert is_tautology(cover) == bool(cover.evaluate().all())


class TestComplement:
    def test_empty(self):
        comp = complement(Cover.empty(3))
        assert comp.evaluate().all()

    def test_universe(self):
        comp = complement(Cover.universe(3))
        assert not comp.evaluate().any()

    def test_single_cube(self):
        comp = complement(Cover.from_strings(["01-"]))
        expected = ~Cover.from_strings(["01-"]).evaluate()
        np.testing.assert_array_equal(comp.evaluate(), expected)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_complement_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        k = int(rng.integers(0, 20))
        cover = random_cover(rng, n, k)
        comp = complement(cover)
        np.testing.assert_array_equal(comp.evaluate(), ~cover.evaluate())

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_double_complement_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        cover = random_cover(rng, 7, 10)
        twice = complement(complement(cover))
        np.testing.assert_array_equal(twice.evaluate(), cover.evaluate())


class TestComplementMatchesReference:
    """Same cubes, same order as the reference recursion."""

    @given(complement_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, cubes):
        n = cubes.shape[1]
        want = ref_complement(cubes, n)
        assert np.array_equal(_complement(cubes, n), want)
        assert np.array_equal(complement(Cover(cubes, n)).cubes, want)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_edge_cases_match_reference(self, n):
        rng = np.random.default_rng(n)
        free = np.full((1, n), FREE, dtype=np.uint8)
        minterms = Cover.from_minterms(n, range(0, 1 << n, 3)).cubes
        half = Cover.from_minterms(n, np.flatnonzero(rng.random(1 << n) < 0.5)).cubes
        cases = [
            np.empty((0, n), dtype=np.uint8),
            free,
            np.vstack([minterms, free]),
            rng.integers(0, 2, size=(1, n)).astype(np.uint8),
            np.vstack([minterms, minterms[::-1]]),
            Cover.from_minterms(n, range(1 << n)).cubes,
            half,
            np.vstack([half, rng.integers(0, 3, size=(8, n)).astype(np.uint8)]),
        ]
        for cubes in cases:
            assert np.array_equal(_complement(cubes, n), ref_complement(cubes, n))

    @pytest.mark.parametrize("n", [31, 32, 63, 64, 65, 70])
    def test_wide_covers_match_reference(self, n):
        """Variables at and beyond 31, 32, 63 and 64 bits.  Literals come
        from a pool of at most 14 variables, so the reference stays fast."""
        rng = np.random.default_rng(n)
        edges = [j for j in (0, 30, 31, 32, 62, 63, 64, n - 1) if j < n]
        for _ in range(25):
            pool = np.union1d(edges, rng.choice(n, size=6, replace=False))
            k = int(rng.integers(2, 13))
            cubes = np.full((k, n), FREE, dtype=np.uint8)
            for row in cubes:
                size = int(rng.integers(1, min(10, len(pool)) + 1))
                columns = rng.choice(pool, size=size, replace=False)
                row[columns] = rng.integers(0, 2, size=size)
            want = ref_complement(cubes, n)
            assert np.array_equal(_complement(cubes, n), want)
            assert np.array_equal(_complement(cubes[:1], n), ref_complement(cubes[:1], n))


class TestContainment:
    def test_cover_contains_cube(self):
        cover = Cover.from_strings(["1--", "01-"])
        assert cover_contains_cube(cover, Cover.from_strings(["11-"]).cubes[0])
        assert cover_contains_cube(cover, Cover.from_strings(["01-"]).cubes[0])
        assert not cover_contains_cube(cover, Cover.from_strings(["0--"]).cubes[0])

    def test_covers_cover(self):
        big = Cover.from_strings(["1--", "0--"])
        small = Cover.from_strings(["-01", "11-"])
        assert covers_cover(big, small)
        assert not covers_cover(small, big)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_containment_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        cover = random_cover(rng, n, int(rng.integers(1, 10)))
        probe = random_cover(rng, n, 1)
        dense = bool(np.all(cover.evaluate()[probe.evaluate()]))
        assert cover_contains_cube(cover, probe.cubes[0]) == dense
