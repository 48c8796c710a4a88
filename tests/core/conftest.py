"""Shared fixtures for core tests, including the paper's worked examples."""

import numpy as np
import pytest

from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.sim import packed as pk


@pytest.fixture
def motivating_spec() -> FunctionSpec:
    """A 4-input function with the structure of the paper's Fig. 1 example.

    Three DC minterms with the properties described in Sec. 2.1:

    * ``x1`` (minterm 0): two on-set neighbours, one off-set neighbour and
      one DC neighbour (``x2``) -> reliability-driven assignment puts it in
      the on-set;
    * ``x2`` (minterm 8): two off-set neighbours, one on-set neighbour and
      one DC neighbour (``x1``) -> assigned to the off-set;
    * ``x3`` (minterm 5): two neighbours in each care phase -> ambiguous,
      left unassigned.
    """
    phases = np.full(16, OFF, dtype=np.uint8)
    phases[[1, 2, 12, 7]] = ON
    phases[[0, 8, 5]] = DC
    return FunctionSpec(phases, name="fig1")


def random_spec(seed: int, num_inputs: int = 6, num_outputs: int = 2,
                dc_fraction: float = 0.4) -> FunctionSpec:
    """Deterministic random incompletely specified function for tests."""
    rng = np.random.default_rng(seed)
    care = (1.0 - dc_fraction) / 2.0
    phases = rng.choice(
        np.array([OFF, ON, DC], dtype=np.uint8),
        size=(num_outputs, 1 << num_inputs),
        p=[care, care, dc_fraction],
    )
    return FunctionSpec(phases, name=f"rand{seed}")


def packed_adapter(evaluate):
    """A packed Monte-Carlo evaluator around a boolean one.

    *evaluate* maps ``(vectors, inputs)`` booleans to ``(outputs,
    vectors)`` booleans.  The adapter unpacks the sampled words, calls it
    and packs the outputs, so its estimates equal a native packed
    evaluator's bit for bit.
    """

    def run(words: np.ndarray, count: int) -> np.ndarray:
        vectors = pk.unpack_matrix(words, count).T
        return pk.pack_matrix(np.atleast_2d(evaluate(vectors)).T)

    return run


def spec_evaluator(spec: FunctionSpec):
    """Packed evaluator of a fully specified *spec*'s truth table."""
    tables = spec.truth_values()

    def evaluate(vectors: np.ndarray) -> np.ndarray:
        indices = np.zeros(vectors.shape[0], dtype=np.int64)
        for j in range(spec.num_inputs):
            indices |= vectors[:, j].astype(np.int64) << j
        return tables[:, indices]

    return packed_adapter(evaluate)
