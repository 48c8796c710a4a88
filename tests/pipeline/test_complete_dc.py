"""Tests for the opt-in ``complete_dc`` pipeline stage.

The stage's contract: it is absent from the default recipe, it never
changes the network's primary outputs, its result is pinned by a golden
report and cover digest, and its report artefact survives checkpoint
round-trips.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.benchgen.synthetic import generate_spec
from repro.obs.metrics import delta_capture
from repro.pipeline import (
    DEFAULT_STAGES,
    Pipeline,
    default_config,
    describe_stage,
    get_stage,
)
from repro.synth.flexibility import CompleteDcReport

GOLDEN_REPORT = {
    "nodes_considered": 40,
    "nodes_changed": 28,
    "dc_entries_assigned": 146,
    "complete_dc_minterms": 6101,
    "window_dc_minterms": 6099,
    "dc_delta": 2,
    "sat_fallback_nodes": 8,
    "error_rate_before": 0.23525390625,
    "error_rate_after": 0.23857421875,
    "recycled_patterns": 64,
}
"""The report on ``golden_spec`` (cfactor policy, area objective)."""

GOLDEN_COVERS_SHA256 = (
    "1820ef6b7e20fcd6648f98d838a03c5829277497b5e210ff025f37bac6911c92"
)
""":func:`covers_digest` of the network the stage leaves on ``golden_spec``."""

GOLDEN_SAT_COUNTERS = {
    "sat.queries": 135,
    "sat.confirmations": 775,
    "sat.refutations": 64,
    "sat.fallbacks": 8,
    "sat.cex_recycled": 64,
}
"""The stage's ``sat.*`` counter deltas on ``golden_spec``: the solver's
models pick the refuting vectors, so a change in its search shows here."""


@pytest.fixture(scope="module")
def spec():
    return generate_spec("dcstage", 7, 3, target_cf=0.6, dc_fraction=0.4, seed=11)


@pytest.fixture(scope="module")
def golden_spec():
    return generate_spec("nodal0", 8, 3, target_cf=0.45, dc_fraction=0.5, seed=60)


def _stages_with_complete_dc():
    stages = list(DEFAULT_STAGES)
    stages.insert(stages.index("optimize") + 1, "complete_dc")
    return stages


def _complete_dc_config():
    return dict(
        default_config("cfactor", objective="area"),
        stages=_stages_with_complete_dc(),
    )


def covers_digest(network):
    """SHA-256 over every node's name, fanins and cube bytes, in order."""
    digest = hashlib.sha256()
    for name, node in network.nodes.items():
        digest.update(name.encode())
        digest.update(repr(list(node.fanins)).encode())
        digest.update(node.cover.cubes.tobytes())
    return digest.hexdigest()


class TestRegistration:
    def test_registered_but_not_default(self):
        stage = get_stage("complete_dc")
        assert stage.inputs == ("network",)
        assert stage.outputs == ("network", "complete_dc_report")
        assert stage.params == ("dc_window",)
        assert stage.version == "2"
        assert "complete_dc" not in DEFAULT_STAGES

    def test_describe_lists_params(self):
        entry = describe_stage(get_stage("complete_dc"))
        assert entry["params"] == ["dc_window"]
        assert entry["summary"]  # docstring first line survives


class TestPrimaryOutputsPreserved:
    def test_implemented_spec_bit_identical(self, spec):
        """The measured implementation is the same function either way."""
        config = default_config("cfactor", objective="area")
        baseline = Pipeline.from_config(config).run(spec=spec)

        config = dict(config, stages=_stages_with_complete_dc())
        with_dc = Pipeline.from_config(config).run(spec=spec)

        report = with_dc.require("complete_dc_report")
        assert report.nodes_considered > 0
        assert report.dc_delta >= 0
        assert np.array_equal(
            baseline.require("implemented").phases,
            with_dc.require("implemented").phases,
        )

    def test_network_outputs_unchanged_at_stage_boundary(self, spec):
        config = dict(
            default_config("cfactor", objective="area"),
            stages=_stages_with_complete_dc(),
        )
        pipe = Pipeline.from_config(config)
        before = pipe.run(spec=spec, stop_after="optimize")
        after = pipe.run(spec=spec)
        assert np.array_equal(
            before.require("network").to_spec().phases,
            after.require("network").to_spec().phases,
        )


class TestGolden:
    def test_serial_report_and_covers(self, golden_spec):
        with delta_capture() as delta:
            ctx = Pipeline.from_config(_complete_dc_config()).run(spec=golden_spec)
        report = dataclasses.asdict(ctx.require("complete_dc_report"))
        assert report == GOLDEN_REPORT
        assert covers_digest(ctx.require("network")) == GOLDEN_COVERS_SHA256
        counters = {
            name: delta.get(name, {}).get("value", 0) for name in GOLDEN_SAT_COUNTERS
        }
        assert counters == GOLDEN_SAT_COUNTERS


class TestCheckpointRoundTrip:
    def test_report_survives_resume(self, spec, tmp_path):
        config = dict(
            default_config("cfactor", objective="area"),
            stages=_stages_with_complete_dc(),
        )
        store = str(tmp_path / "ckpt")
        first = Pipeline.from_config(config, checkpoint=store).run(spec=spec)
        fresh = Pipeline.from_config(config, checkpoint=store)
        second = fresh.run(spec=spec)
        assert isinstance(second.require("complete_dc_report"), CompleteDcReport)
        assert second.require("complete_dc_report") == first.require(
            "complete_dc_report"
        )
        assert np.array_equal(
            first.require("implemented").phases,
            second.require("implemented").phases,
        )
