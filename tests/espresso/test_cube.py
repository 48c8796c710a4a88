"""Tests for cubes and covers."""

import numpy as np
import pytest

from repro.espresso.cube import (
    Cover,
    cube_contains,
    cube_string,
    cubes_intersect,
    supercube,
)


def cube(text: str) -> np.ndarray:
    return Cover.from_strings([text]).cubes[0]


class TestCubeOps:
    def test_cube_string_round_trip(self):
        assert cube_string(cube("01-")) == "01-"

    def test_containment(self):
        assert cube_contains(cube("-1-"), cube("01-"))
        assert cube_contains(cube("01-"), cube("011"))
        assert not cube_contains(cube("01-"), cube("-1-"))
        assert cube_contains(cube("---"), cube("000"))

    def test_intersects(self):
        assert cubes_intersect(cube("0--"), cube("--1"))
        assert not cubes_intersect(cube("01-"), cube("00-"))

    def test_supercube(self):
        cubes = Cover.from_strings(["001", "011"]).cubes
        assert cube_string(supercube(cubes)) == "0-1"
        assert cube_string(supercube(Cover.from_strings(["111"]).cubes)) == "111"

    def test_supercube_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            supercube(np.empty((0, 3), dtype=np.uint8))


class TestCoverConstruction:
    def test_empty_and_universe(self):
        empty = Cover.empty(4)
        universe = Cover.universe(4)
        assert empty.num_cubes == 0
        assert not empty
        assert universe.num_cubes == 1
        assert universe.evaluate().all()

    def test_zero_input_covers(self):
        """Over no inputs a cube is the constant 1: a (k, 0) array keeps its
        k cubes, and only a cover with no rows is the constant 0."""
        from repro.espresso.unate import is_tautology
        from repro.synth.kernels import LiteralCoder, cubes_to_cover

        universe = Cover.universe(0)
        assert universe.num_cubes == 1
        assert is_tautology(universe)
        assert universe.evaluate().tolist() == [True]
        assert Cover.from_minterms(0, [0]).evaluate().tolist() == [True]
        assert cubes_to_cover(frozenset({0}), [], LiteralCoder()).num_cubes == 1
        empty = Cover.empty(0)
        assert empty.num_cubes == 0
        assert not is_tautology(empty)
        assert empty.evaluate().tolist() == [False]
        assert Cover([], 3).cubes.shape == (0, 3)

    def test_from_minterms(self):
        cover = Cover.from_minterms(3, [0, 5])
        assert cover.cube_strings() == ["000", "101"]

    def test_from_minterms_accepts_arrays_and_iterables(self):
        want = ["000", "110", "011"]
        for minterms in (
            np.array([0, 3, 6], dtype=np.int64),
            np.array([0, 3, 6], dtype=np.uint8),
            range(0, 8, 3),
            {0, 3, 6},
        ):
            assert Cover.from_minterms(3, minterms).cube_strings() == want
        assert Cover.from_minterms(3, np.array([], dtype=np.int64)).num_cubes == 0

    def test_from_minterms_range_check(self):
        for minterms in (np.array([1, 8]), np.array([-1, 2]), [8], iter([-1])):
            with pytest.raises(ValueError, match="out of range for 3 inputs"):
                Cover.from_minterms(3, minterms)

    def test_from_strings_validation(self):
        with pytest.raises(ValueError, match="width"):
            Cover.from_strings(["01", "011"])
        with pytest.raises(ValueError, match="at least one"):
            Cover.from_strings([])

    def test_bad_codes_rejected(self):
        with pytest.raises(ValueError, match="literal code"):
            Cover(np.full((1, 2), 7, dtype=np.uint8), 2)


class TestCoverQueries:
    def test_cost(self):
        cover = Cover.from_strings(["01-", "1--"])
        assert cover.num_cubes == 2
        assert cover.num_literals == 3
        assert cover.cost() == (2, 3)

    def test_evaluate(self):
        cover = Cover.from_strings(["1--"])  # x0
        table = cover.evaluate()
        idx = np.arange(8)
        np.testing.assert_array_equal(table, (idx & 1) == 1)

    def test_covers_minterm(self):
        cover = Cover.from_strings(["01-"])
        assert cover.covers_minterm(0b010)
        assert cover.covers_minterm(0b110)
        assert not cover.covers_minterm(0b011)

    def test_minterms(self):
        cover = Cover.from_strings(["01-"])
        assert list(cover.minterms()) == [0b010, 0b110]


class TestCoverOps:
    def test_union(self):
        a = Cover.from_strings(["000"])
        b = Cover.from_strings(["111"])
        assert a.union(b).num_cubes == 2

    def test_union_width_mismatch(self):
        with pytest.raises(ValueError, match="different input counts"):
            Cover.empty(2).union(Cover.empty(3))

    def test_cofactor(self):
        cover = Cover.from_strings(["01-", "1-1", "00-"])
        c = cube("0--")
        result = cover.cofactor(c)
        assert result.cube_strings() == ["-1-", "-0-"]

    def test_single_cube_containment(self):
        cover = Cover.from_strings(["011", "01-", "01-"])
        result = cover.single_cube_containment()
        assert result.cube_strings() == ["01-"]
