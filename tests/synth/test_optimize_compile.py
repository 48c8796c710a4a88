"""Tests for divisor extraction and the compile facade.

``optimize_golden.json`` pins the exact networks divisor extraction
builds on five flow inputs.  Regenerate it only for an intended change of
the optimised networks (which also needs an ``OptimizeStage.version``
bump), with ``PYTHONPATH=src python tests/synth/test_optimize_compile.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.espresso.cube import Cover
from repro.synth.compile_ import compile_spec
from repro.synth.network import LogicNetwork
from repro.synth.optimize import extract_cubes, extract_kernels, optimize_network

GOLDEN_PATH = Path(__file__).with_name("optimize_golden.json")
GOLDEN_INPUTS = ("fout", "bench", "test4", "nodal0", "ex1010")


def _golden_spec(name: str) -> FunctionSpec:
    if name == "nodal0":
        from repro.benchgen.synthetic import generate_spec

        return generate_spec("nodal0", 8, 3, target_cf=0.45, dc_fraction=0.5, seed=60)
    from repro.benchgen.mcnc import mcnc_benchmark

    return mcnc_benchmark(name)


def network_digest(network: LogicNetwork) -> str:
    """SHA-256 over node order, names, fanins, cover rows and outputs."""
    payload = {
        "nodes": [
            [name, node.fanins, node.cover.cube_strings()]
            for name, node in network.nodes.items()
        ],
        "outputs": list(network.outputs.items()),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def optimize_fingerprint(name: str) -> dict:
    """Divisor counts and the digest of one golden input's optimised network."""
    from repro.espresso.minimize import minimize_spec

    spec = _golden_spec(name)
    network = LogicNetwork.from_covers(
        list(spec.input_names),
        minimize_spec(spec).covers,
        list(spec.output_names),
    )
    kernels_created = extract_kernels(network)
    cubes_created = extract_cubes(network)
    return {
        "extract_kernels": kernels_created,
        "extract_cubes": cubes_created,
        "sha256": network_digest(network),
    }


def _random_network() -> LogicNetwork:
    rng = np.random.default_rng(0)
    net = LogicNetwork([f"x{i}" for i in range(5)])
    for t in range(3):
        rows = rng.choice([0, 1, 2], size=(6, 5), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        net.add_node(f"t{t}", [f"x{i}" for i in range(5)], Cover(rows, 5))
        net.set_output(f"y{t}", f"t{t}")
    return net


def _network(covers: list[list[str]], outputs: dict[str, str] | None = None):
    """Nodes ``t0, t1, ...`` over inputs ``a..e``, one per ``01-`` cover;
    each drives output ``y<i>`` unless *outputs* is given."""
    inputs = list("abcde")
    net = LogicNetwork(inputs)
    for t, rows in enumerate(covers):
        cover = Cover.from_strings(rows) if rows else Cover.empty(len(inputs))
        net.add_node(f"t{t}", inputs, cover)
    if outputs is None:
        outputs = {f"y{t}": f"t{t}" for t in range(len(covers))}
    for output, signal in outputs.items():
        net.set_output(output, signal)
    return net


DEGENERATE_NETWORKS = {
    "random": _random_network,
    # An empty cover beside two nodes sharing the kernel (a + b).
    "constant0": lambda: _network([[], ["1-1--", "-11--"], ["1--1-", "-1-1-"]]),
    # 1 + ac + bc: a tautology cube next to a divisible pair.
    "tautology_cube": lambda: _network(
        [["-----", "1-1--", "-11--"], ["1--1-", "-1-1-"], ["1-1-1", "-11-1"]]
    ),
    "wires": lambda: _network(
        [["1----"], ["---0-"], ["11---", "1-1--"], ["11-1-", "1-11-"]]
    ),
    "identical_covers": lambda: _network(
        [["11-0-", "1-1-1", "-111-"], ["11-0-", "1-1-1", "-111-"], ["1--01", "-1-1-"]]
    ),
    "two_pos_on_one_pi": lambda: _network(
        [["1-1--", "-11--"], ["1--1-", "-1-1-"]],
        outputs={"y0": "a", "y1": "a", "y2": "t0", "y3": "t1"},
    ),
    # Every cube contains ab, so cube extraction rewrites every node.
    "shared_pair": lambda: _network(
        [["111--", "11-1-", "11--1"], ["110--", "11-0-"], ["1111-", "11--0"]]
    ),
}


class TestKernelExtraction:
    def test_extracts_shared_kernel(self):
        """Two nodes sharing (a + b): extraction creates a divisor node."""
        net = LogicNetwork(["a", "b", "c", "d"])
        net.add_node("t1", ["a", "b", "c"], Cover.from_strings(["1-1", "-11"]))  # c(a+b)
        net.add_node("t2", ["a", "b", "d"], Cover.from_strings(["1-1", "-11"]))  # d(a+b)
        net.set_output("y1", "t1")
        net.set_output("y2", "t2")
        before = net.to_spec()
        created = extract_kernels(net)
        assert created >= 1
        assert net.to_spec() == before  # function preserved

    @pytest.mark.parametrize("build", DEGENERATE_NETWORKS.values(), ids=list(DEGENERATE_NETWORKS))
    def test_literal_count_never_increases(self, build):
        net = build()
        before_lits = net.num_literals
        before_spec = net.to_spec()
        optimize_network(net)
        assert net.num_literals <= before_lits
        assert net.to_spec() == before_spec

    def test_cube_extraction(self):
        """Common cube ab in two nodes gets extracted."""
        net = LogicNetwork(["a", "b", "c", "d"])
        net.add_node("t1", ["a", "b", "c"], Cover.from_strings(["111"]))
        net.add_node("t2", ["a", "b", "d"], Cover.from_strings(["111"]))
        net.add_node("t3", ["a", "b", "d"], Cover.from_strings(["110"]))
        net.set_output("y1", "t1")
        net.set_output("y2", "t2")
        net.set_output("y3", "t3")
        before = net.to_spec()
        created = extract_cubes(net)
        assert created >= 1
        assert net.to_spec() == before

    @given(st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_optimization_preserves_function(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        names = [f"x{i}" for i in range(n)]
        net = LogicNetwork(names)
        for t in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 8))
            rows = rng.choice([0, 1, 2], size=(k, n), p=[0.3, 0.3, 0.4]).astype(np.uint8)
            net.add_node(f"t{t}", names, Cover(rows, n))
            net.set_output(f"y{t}", f"t{t}")
        before = net.to_spec()
        optimize_network(net)
        assert net.to_spec() == before


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_optimize_matches_golden(name):
    """Divisor choice, tie-breaks and node naming are pinned exactly."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert optimize_fingerprint(name) == golden[name]


class TestCompile:
    def test_compile_simple_spec(self):
        spec = FunctionSpec.from_sets(4, on_sets=[[0, 1, 2, 3, 15]], dc_sets=[[7, 11]])
        result = compile_spec(spec, objective="area")
        assert result.area > 0
        assert result.num_gates > 0
        assert spec.equivalent_within_dc(result.implemented)

    def test_objectives_tradeoff(self):
        rng = np.random.default_rng(5)
        phases = rng.choice(
            np.array([OFF, ON, DC], np.uint8), size=(3, 256), p=[0.3, 0.3, 0.4]
        )
        spec = FunctionSpec(phases, name="tradeoff")
        delay_result = compile_spec(spec, objective="delay")
        power_result = compile_spec(spec, objective="power")
        assert delay_result.delay <= power_result.delay + 1e-9
        assert power_result.area <= delay_result.area + 1e-9

    def test_unknown_objective(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[1]])
        with pytest.raises(ValueError, match="objective"):
            compile_spec(spec, objective="speed")

    def test_source_spec_error_rate(self):
        """Error rate must be measured against the *original* care set."""
        from repro.core.ranking import ranking_assignment

        rng = np.random.default_rng(6)
        phases = rng.choice(
            np.array([OFF, ON, DC], np.uint8), size=(2, 128), p=[0.3, 0.3, 0.4]
        )
        spec = FunctionSpec(phases, name="orig")
        assigned = ranking_assignment(spec, 1.0).apply(spec)
        result = compile_spec(assigned, objective="area", source_spec=spec)
        baseline = compile_spec(spec, objective="area")
        # Reliability assignment should not hurt, and typically helps.
        assert result.error_rate <= baseline.error_rate + 0.02

    def test_constant_output_spec(self):
        spec = FunctionSpec.from_sets(3, on_sets=[[], list(range(8))])
        result = compile_spec(spec, objective="area")
        assert result.num_gates == 0
        assert spec.equivalent_within_dc(result.implemented)

    def test_multi_output_sharing(self):
        """Identical outputs must share logic through extraction."""
        spec = FunctionSpec.from_sets(
            4, on_sets=[[1, 2, 3, 9], [1, 2, 3, 9]]
        )
        result = compile_spec(spec, objective="area")
        single = compile_spec(spec.single_output(0), objective="area")
        assert result.area < 2 * single.area


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: optimize_fingerprint(name) for name in GOLDEN_INPUTS}, indent=2)
        + "\n"
    )
