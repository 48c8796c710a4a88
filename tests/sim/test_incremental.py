"""Tests for cone-restricted flip evaluation and the structure caches."""

import numpy as np
import pytest

from repro.espresso.cube import Cover
from repro.sim import packed as pk
from repro.sim.incremental import IncrementalNetworkSim
from repro.synth.network import LogicNetwork
from repro.synth.odc import (
    _evaluate_with_flip,
    internal_error_rate,
    node_flexibility,
)
from repro.synth.optimize import optimize_network

from .test_engine_equivalence import random_multilevel_network


def flip_reference(net, flip):
    """Boolean full-walk PO tables under a flip, packed for comparison."""
    values = net.evaluate_reference()
    return pk.pack_matrix(_evaluate_with_flip(net, values, flip).T)


class TestFlipOutputs:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_walk_on_every_signal(self, seed):
        net = random_multilevel_network(seed)
        sim = IncrementalNetworkSim(net)
        for name in [*net.primary_inputs, *net.nodes]:
            np.testing.assert_array_equal(
                sim.flip_outputs(name), flip_reference(net, name), err_msg=name
            )

    def test_flip_does_not_disturb_base_values(self):
        net = random_multilevel_network(3)
        sim = IncrementalNetworkSim(net)
        before = {name: words.copy() for name, words in sim.values.items()}
        for name in net.nodes:
            sim.flip_outputs(name)
        for name, words in before.items():
            np.testing.assert_array_equal(sim.values[name], words, err_msg=name)

    def test_cone_excludes_unaffected_outputs(self):
        """A PO outside the flipped node's cone aliases the base array."""
        net = LogicNetwork(["a", "b"])
        net.add_node("t", ["a"], Cover.from_strings(["1"]))
        net.add_node("u", ["b"], Cover.from_strings(["0"]))
        net.set_output("y_t", "t")
        net.set_output("y_u", "u")
        sim = IncrementalNetworkSim(net)
        flipped = sim.flip_outputs("t")
        base = sim.output_words()
        # y_u untouched, y_t complemented.
        np.testing.assert_array_equal(flipped[1], base[1])
        assert pk.popcount(flipped[0] ^ base[0]) == sim.num_vectors

    def test_flip_difference(self):
        net = random_multilevel_network(4)
        sim = IncrementalNetworkSim(net)
        for name in net.nodes:
            expected = np.bitwise_or.reduce(
                sim.output_words() ^ flip_reference(net, name), axis=0
            )
            np.testing.assert_array_equal(sim.flip_difference(name), expected)


class TestRecompute:
    def test_matches_fresh_simulation_after_rewrite(self):
        net = random_multilevel_network(8)
        sim = IncrementalNetworkSim(net)
        node = net.nodes["t1"]
        # Rewrite t1 to the complemented cover (same fanins).
        table = node.cover.evaluate()
        node.cover = Cover.from_minterms(
            len(node.fanins), [i for i in range(table.size) if not table[i]]
        )
        sim.recompute("t1")
        fresh = IncrementalNetworkSim(net)
        for name in fresh.values:
            np.testing.assert_array_equal(
                sim.values[name], fresh.values[name], err_msg=name
            )


class TestOdcConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_node_flexibility_shared_sim(self, seed):
        """One shared simulator gives the same flexibilities as fresh ones."""
        net = random_multilevel_network(seed + 30)
        sim = IncrementalNetworkSim(net)
        for name in net.nodes:
            shared = node_flexibility(net, name, sim=sim)
            fresh = node_flexibility(net, name)
            np.testing.assert_array_equal(shared.phases, fresh.phases, err_msg=name)

    @pytest.mark.parametrize("seed", range(4))
    def test_internal_error_rate_vs_bool_reference(self, seed):
        net = random_multilevel_network(seed + 60)
        values = net.evaluate_reference()
        base = np.vstack([values[sig] for sig in net.outputs.values()])
        total = 0
        for name in net.nodes:
            flipped = _evaluate_with_flip(net, values, name)
            total += int(np.count_nonzero(np.any(base != flipped, axis=0)))
        expected = total / (len(net.nodes) * base.shape[1])
        assert internal_error_rate(net) == pytest.approx(expected)


class TestStructureCaches:
    def test_topological_order_cached_and_invalidated(self):
        net = random_multilevel_network(1)
        first = net.topological_order()
        assert net.topological_order() == first
        net.add_node("extra", ["x0"], Cover.from_strings(["1"]))
        assert "extra" in net.topological_order()

    def test_fanouts_cached_copy_is_safe(self):
        net = random_multilevel_network(2)
        fanouts = net.fanouts()
        for readers in fanouts.values():
            readers.append("corrupted")
        clean = net.fanouts()
        assert all("corrupted" not in readers for readers in clean.values())

    def test_sweep_dangling_invalidates(self):
        net = LogicNetwork(["a"])
        net.add_node("dead", ["a"], Cover.from_strings(["1"]))
        net.add_node("live", ["a"], Cover.from_strings(["0"]))
        net.set_output("y", "live")
        net.topological_order()  # populate the cache
        net.sweep_dangling()
        assert "dead" not in net.nodes
        assert list(net.topological_order()) == ["live"]

    def test_optimize_rewrites_keep_evaluation_correct(self):
        """Kernel/cube extraction rewrites fanins directly; the caches must
        be refreshed so packed evaluation still matches the function."""
        net = random_multilevel_network(13, num_pis=5, levels=3)
        reference = net.output_table().copy()
        optimize_network(net)
        np.testing.assert_array_equal(net.output_table(), reference)
        # And flips on the rewritten structure still match the full walk.
        sim = IncrementalNetworkSim(net)
        for name in list(net.nodes)[:3]:
            np.testing.assert_array_equal(
                sim.flip_outputs(name), flip_reference(net, name), err_msg=name
            )
