"""Monte-Carlo estimation of the input-error rate.

The exact error model of :mod:`repro.core.reliability` enumerates the full
input space — perfect at the paper's benchmark sizes but impossible beyond
~20 inputs.  This module estimates the same quantity by sampling: draw a
random input vector and a random fault (by default the paper's single
pin flip; any input-scope :class:`~repro.faults.FaultModel` can supply
the corruption masks instead), evaluate the circuit on both the correct
and the corrupted vector, and count output changes.  Every drawn vector
is an error source, so the estimate converges to the exact rate over all
``2**n`` sources.

Sampling runs in the packed domain end to end: input vectors are drawn
directly as uint64 words (64 vectors per word, one row per input), faults
are applied as packed XOR masks, and a *packed* evaluator (see
:func:`repro.sim.engine.packed_network_evaluator` and friends) maps the
words straight to packed outputs.  Each batch of 4096 vectors draws the
vectors first, then the masks, so a seeded estimate is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sim import packed as pk

__all__ = ["MonteCarloEstimate", "estimate_error_rate"]

PackedEvaluator = Callable[[np.ndarray, int], np.ndarray]
"""Maps packed inputs ((inputs, words) uint64, num_vectors) -> packed
outputs ((outputs, words) uint64)."""

_BATCH = 4096
"""Vectors drawn and evaluated per batch."""


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A sampled error-rate estimate.

    Attributes:
        rate: estimated mean per-output propagation probability.
        stderr: standard error of the estimate.
        samples: number of (vector, pin) samples used.
    """

    rate: float
    stderr: float
    samples: int

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval (default 95 %)."""
        return (max(0.0, self.rate - z * self.stderr), min(1.0, self.rate + z * self.stderr))


def estimate_error_rate(
    evaluate: PackedEvaluator,
    num_inputs: int,
    *,
    samples: int = 20_000,
    rng: np.random.Generator | None = None,
    fault_model=None,
) -> MonteCarloEstimate:
    """Sample the input-error rate of a circuit under a fault model.

    Args:
        evaluate: packed circuit evaluator (see :data:`PackedEvaluator`).
        num_inputs: number of circuit inputs.
        samples: number of (vector, fault) trials.
        rng: random generator (default: fresh, seeded 0 for determinism).
        fault_model: an input-scope :class:`~repro.faults.FaultModel`
            (or declarative spec for one) that generates the packed
            corruption masks; default: the registered ``single_bit``
            pin flip.

    Returns:
        A :class:`MonteCarloEstimate` over exactly *samples* trials.

    Raises:
        ValueError: on non-positive sample or input counts, or for a
            node-scope *fault_model*.
    """
    if num_inputs <= 0:
        raise ValueError("num_inputs must be positive")
    if samples <= 0:
        raise ValueError("samples must be positive")
    from ..faults import create_fault_model

    fault_model = create_fault_model(
        "single_bit" if fault_model is None else fault_model
    )
    fault_model.require_scope("input")
    rng = rng or np.random.default_rng(0)
    word_max = np.iinfo(np.uint64).max
    disagreements = 0  # differing (output, vector) table entries
    num_outputs = 1
    for start in range(0, samples, _BATCH):
        count = min(_BATCH, samples - start)
        vector_words = rng.integers(
            0, word_max, size=(num_inputs, pk.num_words(count)),
            dtype=np.uint64, endpoint=True,
        )
        pk.zero_tail(vector_words, count)
        masks = fault_model.corruption_words(rng, num_inputs, count)
        good = np.atleast_2d(np.asarray(evaluate(vector_words, count)))
        bad = np.atleast_2d(np.asarray(evaluate(vector_words ^ masks, count)))
        diff = good ^ bad
        num_outputs = diff.shape[0]
        disagreements += pk.popcount(diff)
    rate = disagreements / (num_outputs * samples)
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / samples)
    return MonteCarloEstimate(rate, stderr, samples)
