"""Tests for simulation+SAT flexibility extraction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.synthetic import generate_spec
from repro.core.truthtable import DC
from repro.espresso.cube import Cover
from repro.espresso.minimize import minimize_spec
from repro.obs import metrics as obs_metrics
from repro.synth.flexibility import (
    CompleteFlexibilityOracle,
    node_flexibility_sat,
    reassign_complete_dcs,
)
from repro.synth.network import LogicNetwork
from repro.synth.odc import (
    MAX_EXHAUSTIVE_FANINS,
    node_flexibility,
    reassign_internal_dcs,
)
from repro.synth.optimize import optimize_network


def random_multilevel(seed: int, n: int = 5) -> LogicNetwork:
    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(n)]
    net = LogicNetwork(names)
    rows = rng.choice([0, 1, 2], size=(3, n), p=[0.3, 0.3, 0.4]).astype(np.uint8)
    net.add_node("t0", names, Cover(rows, n))
    rows2 = rng.choice([0, 1, 2], size=(2, 3), p=[0.3, 0.3, 0.4]).astype(np.uint8)
    net.add_node("t1", ["t0", "x0", "x1"], Cover(rows2, 3))
    rows3 = rng.choice([0, 1, 2], size=(2, 2), p=[0.35, 0.35, 0.3]).astype(np.uint8)
    net.add_node("t2", ["t1", "x2"], Cover(rows3, 2))
    net.set_output("y", "t2")
    net.set_output("z", "t0")
    return net


class TestAgainstExhaustive:
    @given(st.integers(0, 10**9))
    @settings(max_examples=12, deadline=None)
    def test_matches_exhaustive_odc(self, seed):
        """SAT-based flexibility equals the exhaustive computation."""
        net = random_multilevel(seed)
        for name in list(net.nodes):
            exact = node_flexibility(net, name)
            via_sat = node_flexibility_sat(
                net, name, simulation_vectors=64, rng=np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(via_sat.phases, exact.phases, err_msg=name)

    def test_few_simulation_vectors_still_exact(self):
        """Even with almost no simulation, SAT confirmation keeps the
        result exact (simulation is only an accelerator)."""
        net = random_multilevel(3)
        for name in list(net.nodes):
            exact = node_flexibility(net, name)
            via_sat = node_flexibility_sat(
                net, name, simulation_vectors=2, rng=np.random.default_rng(0)
            )
            np.testing.assert_array_equal(via_sat.phases, exact.phases)


class TestOracle:
    @given(st.integers(0, 10**9))
    @settings(max_examples=10, deadline=None)
    def test_shared_oracle_matches_exhaustive(self, seed):
        """One oracle across every node of a network — learned clauses
        accumulate in the shared solver — still agrees with the
        exhaustive extractor node for node."""
        net = random_multilevel(seed)
        oracle = CompleteFlexibilityOracle(
            net, simulation_vectors=64, rng=np.random.default_rng(seed)
        )
        for name in list(net.nodes):
            exact = node_flexibility(net, name)
            shared = oracle.node_flexibility(name)
            np.testing.assert_array_equal(shared.phases, exact.phases, err_msg=name)

    def test_query_budget_triggers_fallback(self):
        net = random_multilevel(11)
        oracle = CompleteFlexibilityOracle(
            net, simulation_vectors=2, query_budget=1
        )
        before = obs_metrics.counter("sat.fallbacks").value
        results = [oracle.node_flexibility(name) for name in net.nodes]
        assert None in results  # some node needed more than one query
        assert obs_metrics.counter("sat.fallbacks").value > before

    def test_conflict_budget_triggers_fallback(self):
        net = random_multilevel(12)
        oracle = CompleteFlexibilityOracle(
            net, simulation_vectors=2, conflict_budget=0
        )
        results = [oracle.node_flexibility(name) for name in net.nodes]
        # With a zero conflict budget any non-trivial query gives up.
        assert None in results

    def test_wide_node_raises(self):
        width = MAX_EXHAUSTIVE_FANINS + 1
        names = [f"x{i}" for i in range(width)]
        net = LogicNetwork(names)
        net.add_node("wide", names, Cover.from_strings(["1" * width]))
        net.set_output("out", "wide")
        with pytest.raises(ValueError, match="capped at"):
            node_flexibility_sat(net, "wide")


POLICIES = ["cfactor", "ranking", "conventional", "complete"]


class TestReassignComplete:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", [0, 1, 5, 9])
    def test_preserves_outputs(self, policy, seed):
        net = random_multilevel(seed)
        reference = net.output_table().copy()
        report = reassign_complete_dcs(net, policy=policy)
        np.testing.assert_array_equal(net.output_table(), reference)
        assert report.complete_dc_minterms >= report.window_dc_minterms
        assert report.dc_delta >= 0
        assert report.sat_fallback_nodes == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_total_dcs_match_exhaustive_reassign(self, policy):
        """Processed in the same order with the same policy, the SAT
        pass must confirm exactly the DC minterms the exhaustive pass
        sees (both are complete over the PI space)."""
        for seed in (2, 3, 7):
            sat_net = random_multilevel(seed)
            exact_net = random_multilevel(seed)
            sat_report = reassign_complete_dcs(sat_net, policy=policy)
            exact_report = reassign_internal_dcs(exact_net, policy=policy)
            assert sat_report.nodes_changed == exact_report.nodes_changed
            assert (
                sat_report.dc_entries_assigned
                == exact_report.dc_entries_assigned
            )
            for name in sat_net.nodes:
                np.testing.assert_array_equal(
                    sat_net.nodes[name].cover.evaluate(),
                    exact_net.nodes[name].cover.evaluate(),
                    err_msg=f"seed {seed} node {name}",
                )

    def test_budget_exhaustion_falls_back_to_window(self):
        net = random_multilevel(4)
        reference = net.output_table().copy()
        report = reassign_complete_dcs(net, query_budget=0)
        # Nodes that needed any SAT query at all fell back; ones whose
        # patterns were all simulation-proven cares complete query-free.
        assert report.sat_fallback_nodes >= 1
        np.testing.assert_array_equal(net.output_table(), reference)

    def test_unknown_policy(self):
        net = random_multilevel(6)
        with pytest.raises(ValueError, match="unknown policy"):
            reassign_complete_dcs(net, policy="magic")

    @pytest.mark.parametrize("wide", [False, True])
    def test_window_levels_checked_before_any_work(self, wide):
        """Also above 20 PIs, where no window extraction ever runs."""
        net = _wide_subject() if wide else random_multilevel(4)
        queries = obs_metrics.counter("sat.queries").value
        with pytest.raises(ValueError, match="window_levels must be >= 1"):
            reassign_complete_dcs(net, window_levels=0, simulation_vectors=2)
        assert obs_metrics.counter("sat.queries").value == queries

    def test_counters_recorded(self):
        net = random_multilevel(8)
        queries = obs_metrics.counter("sat.queries").value
        nodes = obs_metrics.counter("complete_dc.nodes").value
        report = reassign_complete_dcs(net)
        assert obs_metrics.counter("sat.queries").value > queries
        assert (
            obs_metrics.counter("complete_dc.nodes").value
            == nodes + report.nodes_considered
        )


def _network_snapshot(net: LogicNetwork) -> dict:
    return {
        name: (tuple(node.fanins), node.cover.cubes.tobytes())
        for name, node in net.nodes.items()
    }


class TestBatching:
    @given(st.integers(0, 10**9))
    @settings(max_examples=8, deadline=None)
    def test_batched_matches_exhaustive(self, seed):
        """With 16 simulation vectors most candidates reach the batched
        SAT queries; the confirmed flexibility must still equal the
        exhaustive extractor's."""
        net = random_multilevel(seed)
        oracle = CompleteFlexibilityOracle(
            net, simulation_vectors=16, rng=np.random.default_rng(seed)
        )
        for name in list(net.nodes):
            np.testing.assert_array_equal(
                oracle.node_flexibility(name).phases,
                node_flexibility(net, name).phases,
                err_msg=name,
            )


def _cone(index: int) -> LogicNetwork:
    spec = generate_spec(f"cone{index}", 7, 3, target_cf=0.5,
                         dc_fraction=0.4, seed=90 + index)
    minimized = minimize_spec(spec)
    network = LogicNetwork.from_covers(
        list(spec.input_names), minimized.covers, list(spec.output_names)
    )
    optimize_network(network)
    return network


def _wide_subject() -> LogicNetwork:
    """Disjoint union of three 7-PI cones: 21 PIs, one more than the
    exhaustive extractor (and the full-space simulator) can take."""
    cones = [_cone(i) for i in range(3)]
    union = LogicNetwork([f"c{i}_{p}" for i, net in enumerate(cones)
                          for p in net.primary_inputs])
    for i, net in enumerate(cones):
        rename = {p: f"c{i}_{p}" for p in net.primary_inputs}
        for name in net.topological_order():
            node = net.nodes[name]
            rename[name] = f"c{i}_{name}"
            union.add_node(
                rename[name], [rename[f] for f in node.fanins], node.cover
            )
        for out, signal in net.outputs.items():
            union.set_output(f"c{i}_{out}", rename[signal])
    return union


# Recorded from the batched engine and checked equal to the unbatched
# one-query-per-solve plan before that plan was removed.
WIDE_GOLDEN_COUNTS = (386, 0, 14, 386, 0)
WIDE_GOLDEN_DIGEST = (
    "8598ab55fdcd9c7526a9f312992927a64990778be15ebc22b11430d793a851ca"
)


class TestWideGolden:
    def test_wide_mode_matches_golden(self):
        """Above 20 PIs the pass runs on sampled simulation plus the
        final SAT miter, where no exhaustive reference exists: pin its
        DC counts and rewritten network."""
        net = _wide_subject()
        assert len(net.primary_inputs) == 21
        report = reassign_complete_dcs(
            net, policy="cfactor", threshold=1.0, window_levels=1,
            simulation_vectors=64, query_budget=4096,
            rng=np.random.default_rng(7),
        )
        assert (
            report.complete_dc_minterms,
            report.window_dc_minterms,
            report.nodes_changed,
            report.dc_entries_assigned,
            report.sat_fallback_nodes,
        ) == WIDE_GOLDEN_COUNTS
        digest = hashlib.sha256(repr(_network_snapshot(net)).encode())
        assert digest.hexdigest() == WIDE_GOLDEN_DIGEST


class TestParallelReassign:
    def test_progress_callback_reports_completion(self):
        net = random_multilevel(22)
        calls: list[tuple[int, int]] = []
        reassign_complete_dcs(net, progress=lambda d, t: calls.append((d, t)))
        assert calls
        done, total = calls[-1]
        assert done == total == len(
            [n for n in net.nodes if len(net.nodes[n].fanins) <= 10]
        )


class TestKnownCases:
    def test_blocked_node_fully_flexible(self):
        """t feeding an AND with constant 0 is never observable."""
        net = LogicNetwork(["a", "b", "c"])
        net.add_node("czero", ["c"], Cover.empty(1))
        net.add_node("t", ["a", "b"], Cover.from_strings(["11"]))
        net.add_node("y", ["t", "czero"], Cover.from_strings(["11"]))
        net.set_output("out", "y")
        local = node_flexibility_sat(net, "t")
        assert list(local.dc_set(0)) == [0, 1, 2, 3]

    def test_po_node_fully_observable(self):
        net = LogicNetwork(["a", "b"])
        net.add_node("t", ["a", "b"], Cover.from_strings(["1-", "-1"]))
        net.set_output("out", "t")
        local = node_flexibility_sat(net, "t")
        assert local.dc_set(0).size == 0

    def test_sdc_detected(self):
        """Complementary fanins make patterns 00 and 11 unreachable."""
        net = LogicNetwork(["a"])
        net.add_node("p", ["a"], Cover.from_strings(["1"]))
        net.add_node("q", ["a"], Cover.from_strings(["0"]))
        net.add_node("t", ["p", "q"], Cover.from_strings(["11", "00"]))
        net.set_output("out", "t")
        local = node_flexibility_sat(net, "t")
        assert 0 in local.dc_set(0)
        assert 3 in local.dc_set(0)

    def test_unknown_node(self):
        net = LogicNetwork(["a"])
        with pytest.raises(KeyError):
            node_flexibility_sat(net, "missing")
