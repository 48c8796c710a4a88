"""Tests for internal-DC extraction and nodal decomposition (Sec. 4)."""

import numpy as np
import pytest

from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.espresso.cube import Cover
from repro.synth.network import LogicNetwork
from repro.obs import metrics as obs_metrics
from repro.synth.odc import (
    MAX_EXHAUSTIVE_FANINS,
    internal_error_rate,
    node_flexibility,
    reassign_internal_dcs,
)


def blocked_network() -> LogicNetwork:
    """t = a & b feeding y = t & c: t is unobservable when c = 0."""
    net = LogicNetwork(["a", "b", "c"])
    net.add_node("t", ["a", "b"], Cover.from_strings(["11"]))
    net.add_node("y", ["t", "c"], Cover.from_strings(["11"]))
    net.set_output("out", "y")
    return net


class TestNodeFlexibility:
    def test_observability_dc(self):
        """All of t's local patterns under c=0 are ODC; with c spanning both
        values every reachable fanin pattern of t stays observable, so the
        node t (over fanins a, b) has no DC -- but the downstream node y
        has DC at unreachable patterns only.  Check a sharper case: make c
        constant 0 so t is *never* observable."""
        net = LogicNetwork(["a", "b", "c"])
        net.add_node("czero", ["c"], Cover.empty(1))
        net.add_node("t", ["a", "b"], Cover.from_strings(["11"]))
        net.add_node("y", ["t", "czero"], Cover.from_strings(["11"]))
        net.set_output("out", "y")
        local = node_flexibility(net, "t")
        assert list(local.dc_set(0)) == [0, 1, 2, 3]  # fully flexible

    def test_satisfiability_dc(self):
        """A node fed by correlated signals never sees some patterns."""
        net = LogicNetwork(["a"])
        net.add_node("p", ["a"], Cover.from_strings(["1"]))  # p = a
        net.add_node("q", ["a"], Cover.from_strings(["0"]))  # q = ~a
        net.add_node("t", ["p", "q"], Cover.from_strings(["11", "00"]))
        net.set_output("out", "t")
        local = node_flexibility(net, "t")
        # patterns 00 (p=0,q=0) and 11 are unreachable -> DC.
        assert 0 in local.dc_set(0)
        assert 3 in local.dc_set(0)
        # patterns 01 (a=0) and 10 (a=1) are reachable and observable.
        assert local.phases[0, 1] != DC
        assert local.phases[0, 2] != DC

    def test_fully_observable_node(self):
        net = blocked_network()
        local = node_flexibility(net, "y")
        # y is a PO: every reachable pattern is observable.
        assert local.phases[0, 3] == ON
        assert local.phases[0, 0] == OFF


class TestFaninGuard:
    def _wide_network(self, width: int) -> LogicNetwork:
        names = [f"x{i}" for i in range(width)]
        net = LogicNetwork(names)
        net.add_node("wide", names, Cover.from_strings(["1" * width]))
        net.set_output("out", "wide")
        return net

    def test_wide_node_raises(self):
        net = self._wide_network(MAX_EXHAUSTIVE_FANINS + 1)
        with pytest.raises(ValueError, match="capped at"):
            node_flexibility(net, "wide")

    def test_reassign_skips_wide_nodes_with_counter(self):
        net = self._random_multilevel_with_wide(seed=3)
        reference = net.output_table().copy()
        before = obs_metrics.counter("odc.wide_nodes_skipped").value
        report = reassign_internal_dcs(net, max_fanins=2)
        assert obs_metrics.counter("odc.wide_nodes_skipped").value == before + 2
        np.testing.assert_array_equal(net.output_table(), reference)
        assert report.nodes_changed >= 0

    def _random_multilevel_with_wide(self, seed: int) -> LogicNetwork:
        """5 PIs; two 3-fanin nodes (wide when max_fanins=2)."""
        rng = np.random.default_rng(seed)
        names = [f"x{i}" for i in range(5)]
        net = LogicNetwork(names)
        rows = rng.choice([0, 1, 2], size=(3, 3), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        net.add_node("t0", ["x0", "x1", "x2"], Cover(rows, 3))
        rows2 = rng.choice([0, 1, 2], size=(3, 3), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        net.add_node("t1", ["t0", "x3", "x4"], Cover(rows2, 3))
        net.add_node("t2", ["t1", "x0"], Cover.from_strings(["11", "00"]))
        net.set_output("y", "t2")
        return net


class TestWindowLimited:
    def _deep_chain(self) -> LogicNetwork:
        """t = a&b then three AND gates with c, d, e: flips on t are
        masked whenever any later-stage side input is 0."""
        net = LogicNetwork(["a", "b", "c", "d", "e"])
        net.add_node("t", ["a", "b"], Cover.from_strings(["11"]))
        net.add_node("u", ["t", "c"], Cover.from_strings(["11"]))
        net.add_node("v", ["u", "d"], Cover.from_strings(["11"]))
        net.add_node("w", ["v", "e"], Cover.from_strings(["11"]))
        net.set_output("out", "w")
        return net

    def test_window_dcs_are_subset_of_complete(self):
        net = self._deep_chain()
        complete = node_flexibility(net, "t")
        for levels in (1, 2, 3):
            windowed = node_flexibility(net, "t", window_levels=levels)
            assert set(windowed.dc_set(0)) <= set(complete.dc_set(0))

    def test_window_covering_all_pos_matches_complete(self):
        net = self._deep_chain()
        complete = node_flexibility(net, "t")
        windowed = node_flexibility(net, "t", window_levels=3)
        np.testing.assert_array_equal(windowed.phases, complete.phases)

    def test_shallow_window_is_strictly_conservative(self):
        """Masking two levels down is invisible to a depth-1 window.

        t = a&b.  One level down, u = t & (a|b) masks pattern 00; two
        levels down, v = u & (a'|b) additionally masks pattern (a=1,b=0).
        The depth-1 window sees only the first masking.
        """
        net = LogicNetwork(["a", "b"])
        net.add_node("t", ["a", "b"], Cover.from_strings(["11"]))
        net.add_node("s1", ["a", "b"], Cover.from_strings(["1-", "-1"]))
        net.add_node("s2", ["a", "b"], Cover.from_strings(["0-", "-1"]))
        net.add_node("u", ["t", "s1"], Cover.from_strings(["11"]))
        net.add_node("v", ["u", "s2"], Cover.from_strings(["11"]))
        net.set_output("out", "v")
        complete = node_flexibility(net, "t")
        windowed = node_flexibility(net, "t", window_levels=1)
        assert set(windowed.dc_set(0)) == {0}
        assert set(complete.dc_set(0)) == {0, 1}
        assert set(windowed.dc_set(0)) < set(complete.dc_set(0))

    def test_window_on_po_node(self):
        net = self._deep_chain()
        complete = node_flexibility(net, "w")
        windowed = node_flexibility(net, "w", window_levels=1)
        np.testing.assert_array_equal(windowed.phases, complete.phases)

    def test_bad_window_depth(self):
        net = self._deep_chain()
        with pytest.raises(ValueError, match="window_levels"):
            node_flexibility(net, "t", window_levels=0)


class TestInternalErrorRate:
    def test_all_observable_chain(self):
        """In an inverter-free single-path chain, every flip propagates."""
        net = LogicNetwork(["a"])
        net.add_node("t1", ["a"], Cover.from_strings(["1"]))
        net.add_node("t2", ["t1"], Cover.from_strings(["1"]))
        net.set_output("out", "t2")
        assert internal_error_rate(net) == pytest.approx(1.0)

    def test_masking_reduces_rate(self):
        net = blocked_network()
        # Flips on t are masked when c=0 (half the vectors).
        rate = internal_error_rate(net)
        assert rate < 1.0

    def test_source_mask(self):
        net = blocked_network()
        only_c1 = np.array([False, False, False, False, True, True, True, True])
        rate = internal_error_rate(net, source_mask=only_c1)
        # With c=1 everywhere, t is always observable; y always observable.
        assert rate == pytest.approx(1.0)


class TestReassignment:
    def _random_multilevel(self, seed: int) -> LogicNetwork:
        rng = np.random.default_rng(seed)
        names = [f"x{i}" for i in range(5)]
        net = LogicNetwork(names)
        rows = rng.choice([0, 1, 2], size=(4, 5), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        net.add_node("t0", names, Cover(rows, 5))
        rows2 = rng.choice([0, 1, 2], size=(3, 3), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        net.add_node("t1", ["t0", "x0", "x1"], Cover(rows2, 3))
        net.set_output("y", "t1")
        return net

    @pytest.mark.parametrize("policy", ["cfactor", "ranking"])
    def test_preserves_outputs(self, policy):
        net = self._random_multilevel(7)
        reference = net.output_table().copy()
        report = reassign_internal_dcs(net, policy=policy)
        np.testing.assert_array_equal(net.output_table(), reference)
        assert report.error_rate_before >= 0.0
        assert report.error_rate_after >= 0.0

    def test_unknown_policy(self):
        net = self._random_multilevel(8)
        with pytest.raises(ValueError, match="unknown policy"):
            reassign_internal_dcs(net, policy="magic")

    def test_reassignment_never_hurts_masking_much(self):
        """Majority-phase internal assignment should not increase the
        internal error rate beyond noise."""
        net = self._random_multilevel(9)
        report = reassign_internal_dcs(net, policy="cfactor", threshold=0.9)
        assert report.error_rate_after <= report.error_rate_before + 0.05
