"""Tests for Monte-Carlo error-rate estimation."""

import numpy as np
import pytest

from repro.core.montecarlo import MonteCarloEstimate, estimate_error_rate
from repro.core.reliability import error_rate
from repro.core.spec import FunctionSpec
from repro.espresso.cube import Cover
from repro.synth.network import LogicNetwork

from .conftest import packed_adapter, spec_evaluator


class TestAgainstExact:
    def test_parity(self):
        idx = np.arange(16)
        bits = sum(((idx >> b) & 1 for b in range(4)), np.zeros(16, np.int64))
        spec = FunctionSpec.from_truth_table((bits % 2 == 1)[None, :])
        estimate = estimate_error_rate(
            spec_evaluator(spec), 4, samples=2000, rng=np.random.default_rng(1)
        )
        assert estimate.rate == pytest.approx(1.0)
        assert estimate.stderr < 0.01

    def test_random_function_within_ci(self):
        rng = np.random.default_rng(2)
        spec = FunctionSpec.from_truth_table(rng.random((3, 256)) < 0.5)
        exact = error_rate(spec)
        estimate = estimate_error_rate(
            spec_evaluator(spec), 8, samples=40_000, rng=np.random.default_rng(3)
        )
        lo, hi = estimate.confidence_interval(z=4.0)
        assert lo <= exact <= hi

    def test_constant(self):
        spec = FunctionSpec.from_truth_table(np.ones((1, 32)))
        estimate = estimate_error_rate(
            spec_evaluator(spec), 5, samples=1000, rng=np.random.default_rng(4)
        )
        assert estimate.rate == 0.0


class TestWideNetwork:
    def test_24_input_network(self):
        """Dense enumeration of 2^24 is infeasible; sampling is not."""
        n = 24
        names = [f"x{i}" for i in range(n)]
        net = LogicNetwork(names)
        # y = AND of the first 3 inputs XOR-ish chain on the rest is
        # unnecessary; a sparse AND keeps the exact rate computable by hand:
        # output flips iff the flipped pin is among the first 3 AND the
        # other two of those are 1 -> rate = (3/24) * (1/4) = 1/32.
        net.add_node("t", names[:3], Cover.from_strings(["111"]))
        net.set_output("y", "t")

        def evaluate(vectors):
            values = net.evaluate_vectors_reference(vectors)
            return values["t"][None, :]

        estimate = estimate_error_rate(
            packed_adapter(evaluate), n, samples=60_000,
            rng=np.random.default_rng(7),
        )
        assert estimate.rate == pytest.approx(1 / 32, abs=0.005)


class TestBatchAccounting:
    """Every estimate uses exactly the requested trials."""

    def test_no_filter_uses_exactly_samples(self):
        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 0, 1]]))
        estimate = estimate_error_rate(
            spec_evaluator(spec), 2, samples=777, rng=np.random.default_rng(13)
        )
        assert estimate.samples == 777


# Recorded from the inline single-bit draw that ``fault_model=None`` ran
# before it resolved to the registered ``single_bit`` model.
_RECORDED_SINGLE_BIT = MonteCarloEstimate(
    rate=0.525, stderr=0.009117291264405235, samples=3000
)


class TestFaultModelParameter:
    @pytest.mark.parametrize("reference", ["call", "recorded"])
    def test_explicit_single_bit_is_bit_identical(self, reference):
        """SingleBitInput gives the seeded estimate of the default call
        and of the inline draw it replaced."""
        from repro.faults import SingleBitInput

        spec = FunctionSpec.from_truth_table(
            np.random.default_rng(20).random((2, 64)) < 0.5
        )
        kwargs = dict(samples=3000)
        expected = _RECORDED_SINGLE_BIT if reference == "recorded" else (
            estimate_error_rate(
                spec_evaluator(spec), 6, rng=np.random.default_rng(21),
                **kwargs
            )
        )
        explicit = estimate_error_rate(
            spec_evaluator(spec), 6, rng=np.random.default_rng(21),
            fault_model=SingleBitInput(), **kwargs
        )
        assert explicit == expected

    def test_declarative_spec_accepted(self):
        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 0, 1]]))
        estimate = estimate_error_rate(
            spec_evaluator(spec), 2, samples=500,
            rng=np.random.default_rng(22),
            fault_model={"model": "multibit", "k": 2},
        )
        # Both pins flip on every trial; f = x0 always changes.
        assert estimate.rate == 1.0

    def test_node_scope_model_rejected(self):
        from repro.faults import StuckAtNode

        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 0, 1]]))
        with pytest.raises(ValueError, match="scope"):
            estimate_error_rate(
                spec_evaluator(spec), 2, samples=10,
                fault_model=StuckAtNode(0),
            )


# Recorded with batches of 4096 vectors: 20 000 samples are five batches,
# the last one partial, so these also pin the batch size and the
# vectors-then-masks draw order of every batch.
_RECORDED_20K = {
    "single_bit": MonteCarloEstimate(
        rate=0.5167, stderr=0.003533561305538649, samples=20000
    ),
    "multibit_k2": MonteCarloEstimate(
        rate=0.48888333333333334, stderr=0.0035346599533917136, samples=20000
    ),
}


class TestRecordedEstimates:
    @pytest.mark.parametrize(
        "key,model,seed",
        [("single_bit", None, 31), ("multibit_k2", {"model": "multibit", "k": 2}, 32)],
    )
    def test_five_batch_estimate_is_unchanged(self, key, model, seed):
        spec = FunctionSpec.from_truth_table(
            np.random.default_rng(30).random((3, 128)) < 0.5
        )
        estimate = estimate_error_rate(
            spec_evaluator(spec), 7, samples=20_000,
            rng=np.random.default_rng(seed), fault_model=model,
        )
        assert estimate == _RECORDED_20K[key]


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="num_inputs"):
            estimate_error_rate(lambda v: v.T, 0, samples=10)
        with pytest.raises(ValueError, match="samples"):
            estimate_error_rate(lambda v: v.T, 3, samples=0)

    def test_confidence_interval_clamped(self):
        estimate = MonteCarloEstimate(rate=0.001, stderr=0.01, samples=10)
        lo, hi = estimate.confidence_interval()
        assert lo == 0.0
        assert hi <= 1.0
