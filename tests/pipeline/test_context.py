"""Tests for the typed FlowContext artefact store."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.pipeline import FlowContext


@pytest.fixture
def spec():
    rng = np.random.default_rng(3)
    phases = rng.choice(
        np.array([OFF, ON, DC], dtype=np.uint8), size=(2, 64), p=[0.3, 0.3, 0.4]
    )
    return FunctionSpec(phases, name="ctx")


class TestStore:
    def test_set_get_require(self, spec):
        ctx = FlowContext(spec=spec)
        assert ctx.get("spec") is spec
        assert ctx.require("spec") is spec
        assert "spec" in ctx
        assert ctx.keys() == ["spec"]

    def test_unknown_key_rejected(self, spec):
        ctx = FlowContext()
        with pytest.raises(KeyError, match="unknown context key"):
            ctx.set("mystery", spec)

    def test_wrong_type_rejected(self):
        ctx = FlowContext()
        with pytest.raises(TypeError, match="expects FunctionSpec"):
            ctx.set("spec", "not a spec")

    def test_missing_artifact_named_in_error(self):
        ctx = FlowContext()
        with pytest.raises(KeyError, match="netlist"):
            ctx.require("netlist")

    def test_known_keys_catalogued(self):
        # Every enforced key is documented, with its type, in the
        # artefact table of docs/pipeline.md, and vice versa.
        doc = Path(__file__).resolve().parents[2] / "docs" / "pipeline.md"
        table = doc.read_text().split("| key | type | meaning |\n", 1)[1]
        table = table.split("\n\n", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", table, re.M)
        documented = dict(rows)
        assert len(documented) == len(rows)
        assert documented == {
            key: kind.__name__ for key, kind in FlowContext()._types.items()
        }

    def test_assignment_key(self):
        ctx = FlowContext()
        ctx.set("assignment", Assignment({(0, 3): ON}))
        assert len(ctx.require("assignment")) == 1


class TestParams:
    def test_param_default(self):
        ctx = FlowContext({"policy": "ranking"})
        assert ctx.param("policy") == "ranking"
        assert ctx.param("fraction", 1.0) == 1.0


class TestFingerprint:
    def test_identical_content_same_fingerprint(self, spec):
        twin = FunctionSpec(spec.phases.copy(), name="ctx")
        assert FlowContext(spec=spec).fingerprint() == \
            FlowContext(spec=twin).fingerprint()

    def test_name_changes_fingerprint(self, spec):
        renamed = FunctionSpec(spec.phases.copy(), name="other")
        assert FlowContext(spec=spec).fingerprint() != \
            FlowContext(spec=renamed).fingerprint()

    def test_content_changes_fingerprint(self, spec):
        phases = spec.phases.copy()
        phases[0, 0] = ON if phases[0, 0] != ON else OFF
        changed = FunctionSpec(phases, name="ctx")
        assert FlowContext(spec=spec).fingerprint() != \
            FlowContext(spec=changed).fingerprint()

    def test_assignment_affects_fingerprint(self, spec):
        base = FlowContext(spec=spec)
        with_assignment = FlowContext(spec=spec)
        with_assignment.set("assignment", Assignment({(0, 3): ON}))
        assert base.fingerprint() != with_assignment.fingerprint()
