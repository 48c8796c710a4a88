"""Monte-Carlo estimation of the input-error rate.

The exact error model of :mod:`repro.core.reliability` enumerates the full
input space — perfect at the paper's benchmark sizes but impossible beyond
~20 inputs.  This module estimates the same quantity by sampling: draw a
random input vector and a random fault (by default the paper's single
pin flip; any input-scope :class:`~repro.faults.FaultModel` can supply
the corruption masks instead), evaluate the circuit on both the correct
and the corrupted vector, and count output changes.  Works against any
evaluator (network, netlist, or plain function), so it scales the
methodology to circuits of arbitrary width.

Sampling runs in the packed domain: input vectors are drawn directly as
uint64 words (64 vectors per word, one row per input) and pin flips are
applied as packed XOR masks.  With a *packed* evaluator (see
:func:`repro.sim.engine.packed_network_evaluator` and friends) the whole
trial loop — generation, evaluation, disagreement counting — stays
bit-parallel; with a plain boolean evaluator the same packed draws are
unpacked at the evaluator boundary, so both evaluator kinds see
*identical* vectors under a fixed seed and produce identical estimates.

Sample accounting
-----------------

``samples`` is the target number of **admissible** trials.  Without a
``source_filter`` exactly ``samples`` trials are used.  With a filter,
batches are redrawn until the admissible count reaches ``samples`` or
``max_draw_factor * samples`` raw draws have been spent — so a filter
that rejects entire batches no longer silently shrinks the trial budget;
only a pathologically tight filter (admissibility below
``1 / max_draw_factor``) returns fewer used samples than requested, and
an unsatisfiable one returns a zero estimate with ``samples == 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sim import packed as pk

__all__ = ["MonteCarloEstimate", "estimate_error_rate"]

Evaluator = Callable[[np.ndarray], np.ndarray]
"""Maps boolean inputs (vectors, inputs) -> boolean outputs (outputs, vectors)."""

PackedEvaluator = Callable[[np.ndarray, int], np.ndarray]
"""Maps packed inputs ((inputs, words) uint64, num_vectors) -> packed
outputs ((outputs, words) uint64)."""


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
    evaluate: Evaluator | None,
    num_inputs: int,
    *,
    samples: int = 20_000,
    rng: np.random.Generator | None = None,
    source_filter: Callable[[np.ndarray], np.ndarray] | None = None,
    batch: int = 4096,
    packed_evaluate: PackedEvaluator | None = None,
    max_draw_factor: int = 64,
    fault_model=None,
) -> MonteCarloEstimate:
    """Sample the input-error rate of a circuit under a fault model.

    Args:
        evaluate: boolean circuit evaluator (see :data:`Evaluator`); may
            be ``None`` when *packed_evaluate* is given.
        num_inputs: number of circuit inputs.
        samples: target number of admissible (vector, fault) trials
            (see "Sample accounting" in the module docstring).
        rng: random generator (default: fresh, seeded 0 for determinism).
        source_filter: optional predicate over boolean input batches
            returning a mask of *admissible* error sources (e.g. the
            original care set); inadmissible draws are excluded from both
            numerator and denominator and replacement batches are drawn.
        batch: vectors per evaluation batch.
        packed_evaluate: packed circuit evaluator (see
            :data:`PackedEvaluator`); when given, evaluation stays in the
            packed domain end to end and *evaluate* is ignored.
        max_draw_factor: raw-draw budget per requested sample when a
            *source_filter* is active.
        fault_model: an input-scope :class:`~repro.faults.FaultModel`
            (or declarative spec for one) that generates the packed
            corruption masks; default: the registered ``single_bit``
            pin flip.

    Returns:
        A :class:`MonteCarloEstimate`.  With a source filter so tight that
        no admissible vector is ever drawn within the draw budget, the
        estimate is 0 with ``samples == 0``.

    Raises:
        ValueError: on non-positive sample or input counts, when no
            evaluator is supplied, or for a node-scope *fault_model*.
    """
    if num_inputs <= 0:
        raise ValueError("num_inputs must be positive")
    if samples <= 0:
        raise ValueError("samples must be positive")
    if evaluate is None and packed_evaluate is None:
        raise ValueError("an evaluator is required (evaluate or packed_evaluate)")
    from ..faults import create_fault_model

    fault_model = create_fault_model(
        "single_bit" if fault_model is None else fault_model
    )
    if fault_model.scope != "input":
        raise ValueError(
            f"fault model {fault_model.name!r} has scope "
            f"{fault_model.scope!r}; input-vector sampling needs an "
            f"input-scope model"
        )
    rng = rng or np.random.default_rng(0)
    word_max = np.iinfo(np.uint64).max
    disagreements = 0  # differing (output, vector) table entries
    num_outputs = 1
    used = 0
    drawn = 0
    max_draws = samples if source_filter is None else samples * max_draw_factor
    while used < samples and drawn < max_draws:
        count = min(batch, samples - used)
        drawn += count
        words = pk.num_words(count)
        # Vectors drawn directly as packed words; pin flips as XOR masks.
        vector_words = rng.integers(
            0, word_max, size=(num_inputs, words), dtype=np.uint64, endpoint=True
        )
        pk.zero_tail(vector_words, count)
        masks = fault_model.corruption_words(rng, num_inputs, count)
        corrupted_words = vector_words ^ masks
        admissible = None
        if source_filter is not None:
            vectors = pk.unpack_matrix(vector_words, count).T
            admissible = np.asarray(source_filter(vectors), dtype=bool)
            if not np.any(admissible):
                continue
        if packed_evaluate is not None:
            good = np.atleast_2d(np.asarray(packed_evaluate(vector_words, count)))
            bad = np.atleast_2d(np.asarray(packed_evaluate(corrupted_words, count)))
            diff = good ^ bad
            if admissible is None:
                used += count
            else:
                admissible_words = pk.pack_bool(admissible)
                diff &= admissible_words
                used += pk.popcount(admissible_words)
            num_outputs = diff.shape[0]
            disagreements += pk.popcount(diff)
        else:
            vectors = pk.unpack_matrix(vector_words, count).T
            bad_vectors = pk.unpack_matrix(corrupted_words, count).T
            if admissible is not None:
                vectors = vectors[admissible]
                bad_vectors = bad_vectors[admissible]
            good = np.atleast_2d(evaluate(vectors))
            bad = np.atleast_2d(evaluate(bad_vectors))
            num_outputs = good.shape[0]
            disagreements += int(np.count_nonzero(good != bad))
            used += vectors.shape[0]
    if used == 0:
        return MonteCarloEstimate(0.0, 0.0, 0)
    rate = disagreements / (num_outputs * used)
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / used)
    return MonteCarloEstimate(rate, stderr, used)
