"""Tests for the input-scope fault models (single/multi-bit, burst)."""

import numpy as np
import pytest

from repro.core.spec import FunctionSpec
from repro.faults import BurstInput, MultiBitInput, SingleBitInput
from repro.sim import packed as pk

from ..core.conftest import random_spec
from .test_kernel_differential import (
    reference_base_error_count,
    reference_pattern_error_rate,
    single_bit,
)


def completed(seed: int, n: int = 5) -> FunctionSpec:
    return random_spec(seed, num_inputs=n, num_outputs=2, dc_fraction=0.0)


def parity4() -> FunctionSpec:
    idx = np.arange(16)
    bits = sum(((idx >> b) & 1 for b in range(4)), np.zeros(16, np.int64))
    return FunctionSpec.from_truth_table((bits % 2 == 1)[None, :])


def unpack_masks(words: np.ndarray, count: int) -> np.ndarray:
    """(num_inputs, words) packed masks -> (count, num_inputs) bool."""
    return np.stack(
        [pk.unpack_bool(row, count) for row in words], axis=1
    )


class TestExactReductions:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_multibit_k1_matches_single_bit(self, seed):
        spec = completed(seed)
        assert MultiBitInput(1).error_rate(spec) == pytest.approx(
            reference_pattern_error_rate(spec, single_bit(spec.num_inputs))
        )

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_burst_w1_matches_single_bit(self, seed):
        spec = completed(seed)
        assert BurstInput(1).error_rate(spec) == pytest.approx(
            SingleBitInput().error_rate(spec)
        )

    def test_single_bit_matches_legacy(self):
        """The neighbour-view count the single-bit rate used to divide."""
        spec = completed(9)
        legacy = np.mean(
            reference_base_error_count(spec.phases)
            / (spec.num_inputs * spec.num_minterms)
        )
        assert SingleBitInput().error_rate(spec) == float(legacy)

    def test_parity_multibit(self):
        """Parity flips on every odd-weight error and never on even."""
        spec = parity4()
        assert MultiBitInput(1).error_rate(spec) == pytest.approx(1.0)
        assert MultiBitInput(2).error_rate(spec) == pytest.approx(0.0)
        assert MultiBitInput(3).error_rate(spec) == pytest.approx(1.0)

    def test_parity_burst(self):
        """A width-2 burst is an even-weight error: parity never flips."""
        spec = parity4()
        assert BurstInput(2).error_rate(spec) == pytest.approx(0.0)
        assert BurstInput(3).error_rate(spec) == pytest.approx(1.0)

    def test_source_restriction(self):
        base = random_spec(5, num_inputs=5, num_outputs=2, dc_fraction=0.5)
        full = completed(5, n=5)
        restricted = MultiBitInput(2).error_rate(full, spec=base)
        unrestricted = MultiBitInput(2).error_rate(full)
        assert restricted <= unrestricted

    def test_constant_function_immune(self):
        spec = FunctionSpec.from_truth_table(np.ones((1, 32)))
        for k in (1, 2, 3):
            assert MultiBitInput(k).error_rate(spec) == 0.0


class TestPatterns:
    def test_single_bit_patterns(self):
        assert SingleBitInput().patterns(4) == [1, 2, 4, 8]

    def test_multibit_pattern_count_and_weight(self):
        patterns = MultiBitInput(2).patterns(6)
        assert len(patterns) == 15  # C(6, 2)
        assert all(bin(p).count("1") == 2 for p in patterns)
        assert len(set(patterns)) == len(patterns)

    def test_burst_patterns_are_adjacent_runs(self):
        patterns = BurstInput(2).patterns(6)
        assert patterns == [0b11, 0b110, 0b1100, 0b11000, 0b110000]

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            MultiBitInput(0)
        with pytest.raises(ValueError, match="positive"):
            BurstInput(0)
        spec = completed(1, n=4)
        with pytest.raises(ValueError, match="distance"):
            MultiBitInput(5).error_rate(spec)
        with pytest.raises(ValueError, match="burst width"):
            BurstInput(5).error_rate(spec)


class TestCorruptionMasks:
    """Sampled masks must match each model's exact pattern semantics."""

    def test_single_bit_masks_flip_one_pin(self):
        words = SingleBitInput().corruption_words(
            np.random.default_rng(0), 9, 500
        )
        masks = unpack_masks(words, 500)
        assert masks.shape == (500, 9)
        assert np.all(masks.sum(axis=1) == 1)

    def test_multibit_masks_flip_k_pins(self):
        words = MultiBitInput(3).corruption_words(
            np.random.default_rng(1), 8, 500
        )
        masks = unpack_masks(words, 500)
        assert np.all(masks.sum(axis=1) == 3)

    def test_multibit_subsets_are_roughly_uniform(self):
        words = MultiBitInput(1).corruption_words(
            np.random.default_rng(2), 4, 8000
        )
        masks = unpack_masks(words, 8000)
        counts = masks.sum(axis=0)
        assert np.all(counts > 8000 / 4 * 0.8)

    def test_burst_masks_are_adjacent_runs(self):
        width = 3
        words = BurstInput(width).corruption_words(
            np.random.default_rng(3), 10, 500
        )
        masks = unpack_masks(words, 500)
        assert np.all(masks.sum(axis=1) == width)
        positions = np.argwhere(masks)
        for row in range(500):
            pins = positions[positions[:, 0] == row, 1]
            assert pins.max() - pins.min() == width - 1
