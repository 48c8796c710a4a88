"""Exact-vs-Monte-Carlo agreement for every registered fault model.

Each input-scope model's packed mask generator is an independent
implementation of the same distribution its ``patterns`` enumerate; the
sampled rate must land inside a wide confidence interval of the exact
one on small, fully specified functions (node-scope agreement is in
``test_node_models``).
"""

import numpy as np
import pytest

from repro.core.montecarlo import estimate_error_rate
from repro.faults import registered_fault_models

from ..core.conftest import random_spec, spec_evaluator

INPUT_MODELS = [
    cls() for cls in registered_fault_models().values() if cls.scope == "input"
]


@pytest.mark.parametrize("model", INPUT_MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", [31, 32])
def test_sampled_within_ci_of_exact(model, seed):
    spec = random_spec(seed, num_inputs=6, num_outputs=2, dc_fraction=0.0)
    exact = model.error_rate(spec)
    estimate = estimate_error_rate(
        spec_evaluator(spec), spec.num_inputs, samples=30_000,
        rng=np.random.default_rng(seed), fault_model=model,
    )
    assert estimate.samples == 30_000
    assert abs(estimate.rate - exact) <= max(5 * estimate.stderr, 0.01)


def test_every_registered_input_model_is_covered():
    """Registering a new input model forces it into this agreement test."""
    names = {model.name for model in INPUT_MODELS}
    assert {"single_bit", "multibit", "burst"} <= names
