"""Differential tests: one event kernel, the numbers of the two it replaced.

``reference_base_error_count`` (the neighbour-view single-bit count) and
``reference_pattern_error_rate`` (the fancy-index pattern rate) are
verbatim copies of the two kernels that :func:`error_events` absorbed.
Every comparison is ``==`` on ints and floats: merging the kernels must
not move a single count or rate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reliability import base_error_count, error_events, error_rate
from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON, neighbor_view, num_inputs_of
from repro.faults import BurstInput, MultiBitInput, SingleBitInput


def reference_base_error_count(phases: np.ndarray) -> np.ndarray:
    """Directed count of care–care opposite-phase neighbour pairs.

    This is the paper's ``base-error``: twice the number of unordered
    (on-set, off-set) 1-Hamming-distance pairs.  It is independent of any DC
    assignment.

    Returns:
        int (1-D input) or per-output int array (2-D input).
    """
    n = num_inputs_of(phases)
    count = np.zeros(phases.shape[:-1], dtype=np.int64)
    for bit in range(n):
        nb = neighbor_view(phases, bit)
        count += np.count_nonzero((phases == ON) & (nb == OFF), axis=-1)
        count += np.count_nonzero((phases == OFF) & (nb == ON), axis=-1)
    return count if count.ndim else int(count)


def reference_pattern_error_rate(
    impl: FunctionSpec,
    patterns: list[int],
    *,
    spec: FunctionSpec | None = None,
) -> float:
    """Exact error rate of *impl* over an explicit error-pattern set.

    The shared enumeration kernel behind every input-scope model: for
    each pattern (an input-index XOR bitmask) the whole truth table is
    reindexed at once (``phases[..., idx ^ error]``), opposite-phase
    changes landing on admissible sources are counted, and the rate is
    ``events / (patterns * 2**n)`` averaged over outputs.

    Raises:
        ValueError: on an empty pattern set.
    """
    if not patterns:
        raise ValueError("at least one error pattern is required")
    source = (spec or impl).care_mask()
    phases = impl.phases
    idx = np.arange(impl.num_minterms)
    events = np.zeros(phases.shape[:-1], dtype=np.int64)
    for error in patterns:
        nb = phases[..., idx ^ error]
        flips = ((phases == ON) & (nb == OFF)) | ((phases == OFF) & (nb == ON))
        events += np.count_nonzero(flips & source, axis=-1)
    return float(np.mean(events / (len(patterns) * impl.num_minterms)))


def single_bit(n: int) -> list[int]:
    return [1 << bit for bit in range(n)]


@st.composite
def phase_arrays(draw, num_inputs: int, num_outputs: int) -> np.ndarray:
    """A dense random phase array; the DC share runs from none to all."""
    seed = draw(st.integers(0, 2**32 - 1))
    dc = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))
    on = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    care = 1.0 - dc
    return np.random.default_rng(seed).choice(
        np.array([OFF, ON, DC], dtype=np.uint8),
        size=(num_outputs, 1 << num_inputs),
        p=[care * (1.0 - on), care * on, dc],
    )


@st.composite
def impl_and_source(draw, max_inputs: int = 9):
    """``(impl, spec)``: 1-3 outputs on 1..max_inputs inputs, and either
    no source spec or one with a different care set."""
    n = draw(st.integers(1, max_inputs))
    m = draw(st.integers(1, 3))
    impl = FunctionSpec(draw(phase_arrays(n, m)), name="impl")
    spec = None
    if draw(st.booleans()):
        spec = FunctionSpec(draw(phase_arrays(n, m)), name="spec")
    return impl, spec


@st.composite
def mask_sets(draw, n: int) -> list[int]:
    """Non-empty lists of non-zero masks; all-ones is drawn often."""
    ones = (1 << n) - 1
    return draw(st.lists(
        st.one_of(st.just(ones), st.integers(1, ones)), min_size=1, max_size=8
    ))


class TestSingleBit:
    @given(impl_and_source())
    @settings(max_examples=80, deadline=None)
    def test_base_error_count_is_the_reference(self, case):
        impl, _ = case
        expected = reference_base_error_count(impl.phases)
        assert np.array_equal(base_error_count(impl.phases), expected)
        assert np.array_equal(error_events(impl.phases), expected)
        n = impl.num_inputs
        assert np.array_equal(
            error_events(impl.phases, patterns=single_bit(n)), expected
        )
        assert base_error_count(impl.phases[0]) == int(expected[0])

    @given(impl_and_source())
    @settings(max_examples=80, deadline=None)
    def test_rates_equal_the_reference(self, case):
        impl, spec = case
        expected = reference_pattern_error_rate(
            impl, single_bit(impl.num_inputs), spec=spec
        )
        assert error_rate(impl, spec=spec) == expected
        assert SingleBitInput().error_rate(impl, spec=spec) == expected


class TestPatternSets:
    @given(impl_and_source(max_inputs=6))
    @settings(max_examples=40, deadline=None)
    def test_every_k_subset(self, case):
        impl, spec = case
        n = impl.num_inputs
        for k in range(1, n + 1):
            model = MultiBitInput(k)
            expected = reference_pattern_error_rate(
                impl, model.patterns(n), spec=spec
            )
            assert model.error_rate(impl, spec=spec) == expected
            assert error_rate(impl, spec=spec, patterns=model.patterns(n)) == expected

    @given(impl_and_source())
    @settings(max_examples=60, deadline=None)
    def test_every_burst_width(self, case):
        impl, spec = case
        n = impl.num_inputs
        for width in range(1, n + 1):
            model = BurstInput(width)
            expected = reference_pattern_error_rate(
                impl, model.patterns(n), spec=spec
            )
            assert model.error_rate(impl, spec=spec) == expected

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_mask_sets(self, data):
        impl, spec = data.draw(impl_and_source())
        patterns = data.draw(mask_sets(impl.num_inputs))
        expected = reference_pattern_error_rate(impl, patterns, spec=spec)
        assert error_rate(impl, spec=spec, patterns=patterns) == expected


def test_empty_pattern_list_rejected_like_the_reference():
    impl = FunctionSpec(np.array([[OFF, ON, ON, OFF]], dtype=np.uint8))
    with pytest.raises(ValueError, match="at least one error pattern"):
        reference_pattern_error_rate(impl, [])
    with pytest.raises(ValueError, match="at least one error pattern"):
        error_rate(impl, patterns=[])
    with pytest.raises(ValueError, match="at least one error pattern"):
        error_events(impl.phases, patterns=[])
