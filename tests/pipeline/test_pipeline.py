"""Equivalence tests: the declarative pipeline reproduces the legacy flows.

The acceptance bar of the stage-graph refactor is bit-identity: running
``Pipeline.from_config(default_config(...))`` must produce the same
``FlowResult`` as :func:`repro.flows.run_flow` for every policy, and the
stage bodies must match an independent, hand-spelled rendition of the
seed recipe.
"""

import numpy as np
import pytest

from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.flows.experiment import flow_result, run_flow
from repro.pipeline import POLICIES, Pipeline, default_config


@pytest.fixture(scope="module")
def spec() -> FunctionSpec:
    rng = np.random.default_rng(77)
    phases = rng.choice(
        np.array([OFF, ON, DC], dtype=np.uint8), size=(3, 128), p=[0.25, 0.25, 0.5]
    )
    return FunctionSpec(phases, name="small")


def run_config(config, spec, **kwargs):
    pipe = Pipeline.from_config(config, **kwargs)
    return flow_result(pipe.run(spec=spec))


class TestRunFlowEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_run_flow(self, spec, policy):
        via_flow = run_flow(spec, policy, fraction=0.5, objective="area")
        via_pipeline = run_config(
            default_config(policy, fraction=0.5, objective="area"), spec
        )
        assert via_pipeline == via_flow

    def test_matches_run_flow_delay_objective(self, spec):
        via_flow = run_flow(spec, "ranking", fraction=0.75, objective="delay")
        via_pipeline = run_config(
            default_config("ranking", fraction=0.75, objective="delay"), spec
        )
        assert via_pipeline == via_flow

    def test_matches_run_flow_threshold(self, spec):
        via_flow = run_flow(spec, "cfactor", threshold=0.6, objective="area")
        via_pipeline = run_config(
            default_config("cfactor", threshold=0.6, objective="area"), spec
        )
        assert via_pipeline == via_flow


class TestManualRecipeEquivalence:
    def test_conventional_area_matches_hand_spelled_recipe(self, spec):
        """The stage bodies equal the seed recipe, spelled out by hand."""
        from repro.core.reliability import error_rate
        from repro.espresso.minimize import minimize_spec
        from repro.synth.library import generic_70nm_library
        from repro.synth.mapping import map_graph
        from repro.synth.network import LogicNetwork
        from repro.synth.optimize import optimize_network
        from repro.synth.power import power_analysis
        from repro.synth.subject import build_subject_graph
        from repro.synth.timing import static_timing

        minimized = minimize_spec(spec)
        network = LogicNetwork.from_covers(
            list(spec.input_names), minimized.covers, list(spec.output_names)
        )
        optimize_network(network)
        graph = build_subject_graph(network)
        netlist = map_graph(graph, generic_70nm_library())
        implemented = netlist.to_spec(name=f"{spec.name}/impl")

        result = run_flow(spec, "conventional", objective="area")
        assert result.area == netlist.area
        assert result.gates == netlist.num_gates
        assert result.literals == network.num_literals
        assert result.delay == static_timing(netlist).delay
        assert result.power == power_analysis(netlist).total
        assert result.error_rate == error_rate(implemented, spec=spec)


class TestCompileDrivers:
    def test_compile_spec_matches_pipeline(self, spec):
        from repro.synth.compile_ import compile_spec

        synthesis = compile_spec(spec, objective="area")
        pipe = Pipeline(
            ["espresso", "optimize", "map", "tune", "measure"],
            params={"objective": "area", "optimize": True},
        )
        ctx = pipe.run(spec=spec, assigned_spec=spec)
        via_pipeline = ctx.require("synthesis")
        assert synthesis.area == via_pipeline.area
        assert synthesis.delay == via_pipeline.delay
        assert synthesis.power == via_pipeline.power
        assert synthesis.error_rate == via_pipeline.error_rate

    def test_compile_network_still_validates_objective(self, spec):
        from repro.synth.compile_ import compile_spec

        with pytest.raises(ValueError, match="objective must be one of"):
            compile_spec(spec, objective="speed")


class TestRunSemantics:
    def test_stop_after_leaves_partial_context(self, spec):
        pipe = Pipeline.from_config(default_config())
        ctx = pipe.run(spec=spec, stop_after="espresso")
        assert "network" in ctx
        assert "netlist" not in ctx
        assert "synthesis" not in ctx

    def test_stop_after_unknown_stage(self, spec):
        pipe = Pipeline.from_config(default_config())
        with pytest.raises(ValueError, match="stop_after"):
            pipe.run(spec=spec, stop_after="teleport")
