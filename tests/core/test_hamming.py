"""Tests for Hamming utilities."""

import numpy as np
import pytest

from repro.core.hamming import neighbor_phase_counts, same_phase_neighbor_counts
from repro.core.truthtable import DC, OFF, ON


class TestNeighborPhaseCounts:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        phases = rng.integers(0, 3, size=(3, 32)).astype(np.uint8)
        on_nb, off_nb, dc_nb = neighbor_phase_counts(phases)
        np.testing.assert_array_equal(on_nb + off_nb + dc_nb, 5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        n = 4
        phases = rng.integers(0, 3, size=1 << n).astype(np.uint8)
        on_nb, off_nb, dc_nb = neighbor_phase_counts(phases)
        for x in range(1 << n):
            nbs = [phases[x ^ (1 << b)] for b in range(n)]
            assert on_nb[x] == sum(1 for v in nbs if v == ON)
            assert off_nb[x] == sum(1 for v in nbs if v == OFF)
            assert dc_nb[x] == sum(1 for v in nbs if v == DC)

    def test_same_phase_counts(self):
        phases = np.array([ON, ON, OFF, OFF], dtype=np.uint8)
        # minterm 0: neighbours 1 (ON, same), 2 (OFF, diff) -> 1
        np.testing.assert_array_equal(
            same_phase_neighbor_counts(phases), [1, 1, 1, 1]
        )
