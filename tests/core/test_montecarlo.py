"""Tests for Monte-Carlo error-rate estimation."""

import numpy as np
import pytest

from repro.core.montecarlo import MonteCarloEstimate, estimate_error_rate
from repro.core.reliability import error_rate
from repro.core.spec import FunctionSpec
from repro.espresso.cube import Cover
from repro.synth.network import LogicNetwork


def spec_evaluator(spec: FunctionSpec):
    tables = spec.truth_values()

    def evaluate(vectors: np.ndarray) -> np.ndarray:
        indices = np.zeros(vectors.shape[0], dtype=np.int64)
        for j in range(spec.num_inputs):
            indices |= vectors[:, j].astype(np.int64) << j
        return tables[:, indices]

    return evaluate


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


class TestSourceFilter:
    def test_restricting_sources(self):
        """f = x0 with sources restricted to x1 = 1."""
        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 0, 1]]))

        def only_x1(vectors):
            return vectors[:, 1]

        estimate = estimate_error_rate(
            spec_evaluator(spec), 2, samples=4000,
            rng=np.random.default_rng(5), source_filter=only_x1,
        )
        # Flipping x0 propagates, flipping x1 does not: rate ~ 0.5.
        assert estimate.rate == pytest.approx(0.5, abs=0.05)

    def test_empty_source_set(self):
        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 0, 1]]))
        estimate = estimate_error_rate(
            spec_evaluator(spec), 2, samples=100,
            rng=np.random.default_rng(6),
            source_filter=lambda vectors: np.zeros(vectors.shape[0], dtype=bool),
        )
        assert estimate.samples == 0
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
            evaluate, n, samples=60_000, rng=np.random.default_rng(7)
        )
        assert estimate.rate == pytest.approx(1 / 32, abs=0.005)


class TestBatchAccounting:
    """A source filter must not silently shrink the trial budget."""

    def test_sparse_filter_still_reaches_target(self):
        """A filter admitting ~25% of draws: replacement batches are drawn
        until exactly `samples` admissible trials are used."""
        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 0, 1]]))
        estimate = estimate_error_rate(
            spec_evaluator(spec), 2, samples=1500,
            rng=np.random.default_rng(10),
            source_filter=lambda vectors: vectors[:, 0] & vectors[:, 1],
        )
        assert estimate.samples == 1500

    def test_whole_batch_rejection_makes_progress(self):
        """Batches rejected outright used to vanish from the budget; now
        they are redrawn."""
        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 0, 1]]))
        calls = []

        def reject_first_batches(vectors):
            calls.append(vectors.shape[0])
            if len(calls) <= 2:
                return np.zeros(vectors.shape[0], dtype=bool)
            return np.ones(vectors.shape[0], dtype=bool)

        estimate = estimate_error_rate(
            spec_evaluator(spec), 2, samples=200, batch=64,
            rng=np.random.default_rng(11),
            source_filter=reject_first_batches,
        )
        assert estimate.samples == 200
        assert len(calls) > 2

    def test_draw_budget_bounds_unsatisfiable_filter(self):
        """An unsatisfiable filter terminates after max_draw_factor *
        samples raw draws with a zero estimate."""
        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 0, 1]]))
        calls = []

        def never(vectors):
            calls.append(vectors.shape[0])
            return np.zeros(vectors.shape[0], dtype=bool)

        estimate = estimate_error_rate(
            spec_evaluator(spec), 2, samples=100, batch=50,
            rng=np.random.default_rng(12),
            source_filter=never, max_draw_factor=4,
        )
        assert estimate.samples == 0
        assert estimate.rate == 0.0
        assert sum(calls) <= 4 * 100

    def test_pathologically_tight_filter_returns_fewer_samples(self):
        """Admissibility below 1/max_draw_factor: the draw budget runs
        out first, and the estimate honestly reports the shortfall."""
        spec = FunctionSpec.from_truth_table(np.ones((1, 64)))

        def only_all_ones(vectors):  # 1 vector in 64 is admissible
            return np.all(vectors, axis=1)

        estimate = estimate_error_rate(
            spec_evaluator(spec), 6, samples=1000, batch=500,
            rng=np.random.default_rng(14),
            source_filter=only_all_ones, max_draw_factor=16,
        )
        assert 0 < estimate.samples < 1000

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


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="num_inputs"):
            estimate_error_rate(lambda v: v.T, 0, samples=10)
        with pytest.raises(ValueError, match="samples"):
            estimate_error_rate(lambda v: v.T, 3, samples=0)

    def test_requires_an_evaluator(self):
        with pytest.raises(ValueError, match="evaluator"):
            estimate_error_rate(None, 3, samples=10)

    def test_confidence_interval_clamped(self):
        estimate = MonteCarloEstimate(rate=0.001, stderr=0.01, samples=10)
        lo, hi = estimate.confidence_interval()
        assert lo == 0.0
        assert hi <= 1.0
