"""Cross-module integration tests: the full pipeline, end to end."""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.benchgen.synthetic import generate_spec
from repro.core.ranking import complete_assignment
from repro.core.reliability import exact_error_bounds
from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.espresso.minimize import minimize_spec
from repro.flows import run_flow
from repro.pla import parse_pla, spec_to_pla
from repro.synth.aig import aig_from_network, resyn2rs
from repro.synth.compile_ import compile_spec
from repro.synth.network import LogicNetwork


class TestPublicApi:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_module_exports(self):
        """Every ``__all__`` entry of every ``repro.*`` module resolves, so
        ``from repro.x import *`` never trips over a stale name."""
        stale = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            stale += [
                f"{info.name}.{name}"
                for name in getattr(module, "__all__", ())
                if not hasattr(module, name)
            ]
        assert stale == []

    def test_version(self):
        assert repro.__version__


class TestPlaToSilicon:
    """PLA text in, measured netlist out — the full paper flow."""

    PLA = """\
.i 5
.o 2
.type fd
.p 8
00000 1-
00001 1-
0001- -1
01--- 10
10--- 01
11111 11
11110 --
00110 -0
.e
"""

    def test_full_flow(self):
        spec = parse_pla(self.PLA, name="integration")
        result = compile_spec(spec, objective="delay")
        assert spec.equivalent_within_dc(result.implemented)
        assert result.area > 0
        assert result.delay > 0
        bounds = exact_error_bounds(spec)
        assert bounds.lo - 1e-12 <= result.error_rate <= bounds.hi + 1e-12

    def test_round_trip_through_pla(self):
        spec = parse_pla(self.PLA)
        again = parse_pla(spec_to_pla(spec))
        assert again == spec


class TestDenseEquivalenceCheck:
    """Verify a mapped netlist against the spec by set containment on
    dense truth tables (independent of ``equivalent_within_dc``)."""

    @given(st.integers(0, 10**9))
    @settings(max_examples=10, deadline=None)
    def test_netlist_equals_spec_on_dense_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        phases = rng.choice(
            np.array([OFF, ON, DC], np.uint8), size=(2, 1 << n), p=[0.3, 0.3, 0.4]
        )
        spec = FunctionSpec(phases)
        result = compile_spec(spec, objective="area")
        impl = result.implemented.truth_values()
        # on <= impl <= on + dc.
        assert impl[phases == ON].all()
        assert not impl[phases == OFF].any()


class TestPolicyInvariants:
    @given(st.integers(0, 10**9))
    @settings(max_examples=8, deadline=None)
    def test_complete_policy_hits_exact_floor(self, seed):
        rng = np.random.default_rng(seed)
        phases = rng.choice(
            np.array([OFF, ON, DC], np.uint8), size=(2, 64), p=[0.3, 0.3, 0.4]
        )
        spec = FunctionSpec(phases)
        result = run_flow(spec, "complete", objective="area")
        assert result.error_rate == pytest.approx(exact_error_bounds(spec).lo)

    def test_policies_on_generated_benchmark(self):
        spec = generate_spec("integ", 8, 3, target_cf=0.55, dc_fraction=0.6, seed=9)
        conventional = run_flow(spec, "conventional", objective="power")
        complete = run_flow(spec, "complete", objective="power")
        ranked = run_flow(spec, "ranking", fraction=0.5, objective="power")
        lcf = run_flow(spec, "cfactor", threshold=0.55, objective="power")
        # Reliability ordering: complete is the floor; partial policies sit
        # between complete and conventional (up to minimiser noise).
        assert complete.error_rate <= ranked.error_rate + 1e-9
        assert complete.error_rate <= lcf.error_rate + 1e-9
        assert ranked.error_rate <= conventional.error_rate + 0.02
        assert lcf.error_rate <= conventional.error_rate + 0.02


class TestOptimizerAgreement:
    def test_sop_and_aig_flows_agree_on_function(self):
        spec = generate_spec("agree", 7, 2, target_cf=0.5, dc_fraction=0.5, seed=10)
        minimized = minimize_spec(spec)
        network = LogicNetwork.from_covers(
            list(spec.input_names), minimized.covers, list(spec.output_names)
        )
        aig = resyn2rs(aig_from_network(network))
        aig_tables = np.vstack(list(aig.evaluate().values()))
        np.testing.assert_array_equal(aig_tables, network.output_table())


class TestEstimatesOnPipelineOutputs:
    def test_bands_bracket_every_policy(self):
        spec = generate_spec("bands", 8, 2, target_cf=0.6, dc_fraction=0.6, seed=11)
        exact = exact_error_bounds(spec)
        for policy in ("conventional", "complete"):
            result = run_flow(spec, policy, objective="area")
            assert exact.lo - 1e-12 <= result.error_rate <= exact.hi + 1e-12
        border = repro.border_bounds(spec)
        # The border estimate tracks the exact band within a neighbour of
        # slack (Sec. 5 / Table 3 behaviour).
        slack = 1.5 / spec.num_inputs
        assert border.lo <= exact.lo + slack
        assert border.hi >= exact.hi - slack
