"""Tests for PLA parsing and writing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.pla import PlaError, parse_pla, read_pla, spec_to_pla, write_pla

SIMPLE_FD = """\
# a comment
.i 3
.o 2
.ilb a b c
.ob f g
.type fd
.p 3
01- 1-
111 01
000 -0
.e
"""


class TestParser:
    def test_fd_semantics(self):
        spec = parse_pla(SIMPLE_FD)
        assert spec.num_inputs == 3
        assert spec.num_outputs == 2
        assert spec.input_names == ("a", "b", "c")
        # cube 01- covers minterms with a=0,b=1: indices 0b010=2 and 0b110=6.
        assert spec.phases[0, 2] == ON and spec.phases[0, 6] == ON
        assert spec.phases[1, 2] == DC and spec.phases[1, 6] == DC
        assert spec.phases[0, 7] == OFF  # 111 -> 01: no info for f under fd
        assert spec.phases[1, 7] == ON
        assert spec.phases[0, 0] == DC  # 000 -0
        assert spec.phases[1, 0] == OFF

    def test_input_cube_expansion(self):
        spec = parse_pla(".i 2\n.o 1\n-- 1\n.e\n")
        assert list(spec.on_set(0)) == [0, 1, 2, 3]

    def test_f_type_ignores_dash_outputs(self):
        spec = parse_pla(".i 2\n.o 1\n.type f\n11 1\n00 1\n")
        assert list(spec.on_set(0)) == [0, 3]
        assert spec.is_fully_specified

    def test_fr_type(self):
        spec = parse_pla(".i 2\n.o 1\n.type fr\n11 1\n00 0\n")
        assert spec.phases[0, 3] == ON
        assert spec.phases[0, 0] == OFF
        assert spec.phases[0, 1] == DC
        assert spec.phases[0, 2] == DC

    def test_fr_conflict(self):
        with pytest.raises(PlaError, match="both"):
            parse_pla(".i 2\n.o 1\n.type fr\n11 1\n11 0\n")

    def test_fdr_requires_cover(self):
        with pytest.raises(PlaError, match="not covered"):
            parse_pla(".i 2\n.o 1\n.type fdr\n11 1\n00 0\n")

    def test_missing_io(self):
        with pytest.raises(PlaError, match="missing"):
            parse_pla("11 1\n")
        with pytest.raises(PlaError, match="before .i"):
            parse_pla("111\n.i 2\n.o 1\n")

    def test_bad_width(self):
        with pytest.raises(PlaError, match="wrong width"):
            parse_pla(".i 3\n.o 1\n11 1\n")

    def test_bad_characters(self):
        with pytest.raises(PlaError, match="bad input"):
            parse_pla(".i 2\n.o 1\nx1 1\n")
        with pytest.raises(PlaError, match="bad output"):
            parse_pla(".i 2\n.o 1\n11 x\n")

    @pytest.mark.parametrize("width", [0, 21, 40])
    def test_width_outside_dense_range(self, width):
        """Rejected before any 2**n table is allocated."""
        with pytest.raises(PlaError, match=r"outside the dense range 1\.\.20"):
            parse_pla(f".i {width}\n.o 1\n.e\n")

    def test_unknown_type(self):
        with pytest.raises(PlaError, match="unsupported .type"):
            parse_pla(".i 2\n.o 1\n.type q\n")

    def test_joined_planes(self):
        spec = parse_pla(".i 2\n.o 1\n111\n.e\n")
        assert list(spec.on_set(0)) == [3]


class TestWriter:
    def test_round_trip(self):
        spec = parse_pla(SIMPLE_FD, name="demo")
        again = parse_pla(spec_to_pla(spec), name="demo")
        assert again == spec
        assert again.input_names == spec.input_names

    def test_file_round_trip(self, tmp_path):
        spec = parse_pla(SIMPLE_FD)
        path = tmp_path / "demo.pla"
        write_pla(spec, path)
        assert read_pla(path) == spec
        assert read_pla(path).name == "demo"

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        phases = rng.integers(0, 3, size=(m, 1 << n)).astype(np.uint8)
        spec = FunctionSpec(phases)
        assert parse_pla(spec_to_pla(spec)) == spec
