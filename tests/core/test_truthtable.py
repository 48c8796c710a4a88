"""Unit tests for the dense phase-array primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.truthtable import (
    DC,
    OFF,
    ON,
    care_mask,
    neighbor_view,
    num_inputs_of,
    phase_counts,
    phase_fractions,
    validate_phases,
)


class TestNumInputs:
    def test_power_of_two_lengths(self):
        for n in range(0, 8):
            arr = np.zeros(1 << n, dtype=np.uint8)
            assert num_inputs_of(arr) == n

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            num_inputs_of(np.zeros(6, dtype=np.uint8))

    def test_uses_last_axis(self):
        assert num_inputs_of(np.zeros((3, 16), dtype=np.uint8)) == 4


class TestValidate:
    def test_accepts_valid_codes(self):
        arr = np.array([OFF, ON, DC, ON], dtype=np.uint8)
        assert validate_phases(arr) is not None

    def test_rejects_bad_code(self):
        with pytest.raises(ValueError, match="invalid code 3"):
            validate_phases(np.array([0, 1, 2, 3], dtype=np.uint8))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            validate_phases(np.zeros(5, dtype=np.uint8))


class TestNeighborView:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_matches_xor_indexing(self, n):
        rng = np.random.default_rng(7 * n)
        arr = rng.integers(0, 3, size=1 << n).astype(np.uint8)
        idx = np.arange(1 << n)
        for bit in range(n):
            expected = arr[idx ^ (1 << bit)]
            np.testing.assert_array_equal(neighbor_view(arr, bit), expected)

    def test_multi_output(self):
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 3, size=(4, 8)).astype(np.uint8)
        idx = np.arange(8)
        for bit in range(3):
            expected = arr[:, idx ^ (1 << bit)]
            np.testing.assert_array_equal(neighbor_view(arr, bit), expected)

    def test_is_an_involution(self):
        rng = np.random.default_rng(11)
        arr = rng.integers(0, 3, size=32).astype(np.uint8)
        for bit in range(5):
            np.testing.assert_array_equal(
                neighbor_view(neighbor_view(arr, bit), bit), arr
            )

    def test_rejects_out_of_range_bit(self):
        arr = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ValueError, match="out of range"):
            neighbor_view(arr, 3)
        with pytest.raises(ValueError, match="out of range"):
            neighbor_view(arr, -1)

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10**9))
    def test_property_neighbor_view_is_bit_flip(self, n, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, 3, size=1 << n).astype(np.uint8)
        bit = seed % n
        idx = np.arange(1 << n)
        np.testing.assert_array_equal(neighbor_view(arr, bit), arr[idx ^ (1 << bit)])


class TestStatistics:
    def test_phase_counts(self):
        arr = np.array([OFF, ON, DC, DC], dtype=np.uint8)
        assert phase_counts(arr) == (1, 1, 2)

    def test_phase_fractions_sum_to_one(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 3, size=(5, 64)).astype(np.uint8)
        f0, f1, fdc = phase_fractions(arr)
        np.testing.assert_allclose(f0 + f1 + fdc, 1.0)

    def test_care_mask(self):
        arr = np.array([OFF, ON, DC, ON], dtype=np.uint8)
        np.testing.assert_array_equal(care_mask(arr), [True, True, False, True])
