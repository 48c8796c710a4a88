"""Cross-engine agreement: dense tables, SAT, and covers must all tell
the same story about the same functions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.espresso.cube import Cover
from repro.espresso.unate import is_tautology
from repro.sat.encode import CnfBuilder


def random_cover(rng, n, k):
    rows = rng.choice([0, 1, 2], size=(k, n), p=[0.3, 0.3, 0.4]).astype(np.uint8)
    return Cover(rows, n)


class TestCoverVsSat:
    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_cover_emptiness_equals_unsat(self, seed):
        """A cover evaluates to constant 0 iff its CNF encoding forbids the
        output from being 1."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        cover = random_cover(rng, n, int(rng.integers(0, 5)))
        builder = CnfBuilder()
        builder.encode_sop("out", [f"x{i}" for i in range(n)], cover)
        sat, _ = builder.solver.solve([builder.var("out")])
        assert sat == bool(cover.evaluate().any())

    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_tautology_equals_not_out_unsat(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        cover = random_cover(rng, n, int(rng.integers(1, 8)))
        builder = CnfBuilder()
        builder.encode_sop("out", [f"x{i}" for i in range(n)], cover)
        sat, _ = builder.solver.solve([-builder.var("out")])
        assert (not sat) == is_tautology(cover)


class TestTableVsSat:
    @given(st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_model_count_consistency(self, seed):
        """The dense table's on-count equals the brute-force CNF model
        count over the function variables (projected)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        cover = random_cover(rng, n, int(rng.integers(1, 5)))
        table = cover.evaluate()
        builder = CnfBuilder()
        builder.encode_sop("out", [f"x{i}" for i in range(n)], cover)
        out_var = builder.var("out")
        count = 0
        for minterm in range(1 << n):
            assumptions = [
                builder.var(f"x{i}") if (minterm >> i) & 1 else -builder.var(f"x{i}")
                for i in range(n)
            ]
            sat, _ = builder.solver.solve(assumptions + [out_var])
            count += int(sat)
        assert count == int(table.sum())
