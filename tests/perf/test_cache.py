"""Tests for the content-addressed minimization cache."""

import numpy as np
import pytest

from repro.core.spec import FunctionSpec
from repro.espresso.cube import Cover
from repro.espresso.minimize import espresso, minimize_spec
from repro.obs import metrics_snapshot
from repro.perf import (
    MinimizationCache,
    cover_key,
    global_cache,
    reset_cache,
    spec_key,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _count(name):
    return metrics_snapshot()[name]["value"]


class TestKeys:
    def test_cover_key_is_content_addressed(self):
        on1 = Cover.from_minterms(4, [1, 3, 5])
        on2 = Cover.from_minterms(4, [1, 3, 5])
        dc = Cover.empty(4)
        assert cover_key(on1.cubes, dc.cubes, 4) == cover_key(on2.cubes, dc.cubes, 4)

    def test_cover_key_separates_on_and_dc(self):
        a = Cover.from_minterms(3, [1])
        b = Cover.from_minterms(3, [2])
        empty = Cover.empty(3)
        assert cover_key(a.cubes, b.cubes, 3) != cover_key(b.cubes, a.cubes, 3)
        assert cover_key(a.cubes, empty.cubes, 3) != cover_key(empty.cubes, a.cubes, 3)

    def test_spec_key_ignores_name_but_not_phases(self):
        s1 = FunctionSpec.from_sets(3, on_sets=[[1, 2]], dc_sets=[[5]], name="x")
        s2 = FunctionSpec.from_sets(3, on_sets=[[1, 2]], dc_sets=[[5]], name="y")
        s3 = FunctionSpec.from_sets(3, on_sets=[[1, 2]], dc_sets=[[6]], name="x")
        assert spec_key(s1.phases) == spec_key(s2.phases)
        assert spec_key(s1.phases) != spec_key(s3.phases)


class TestCacheMechanics:
    def test_lru_eviction(self):
        evictions = _count("cache.evictions")
        cache = MinimizationCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert _count("cache.evictions") == evictions + 1

    def test_stats_shape(self):
        before = metrics_snapshot()
        global_cache.put("a", 1)
        global_cache.get("a")
        global_cache.get("b")
        after = metrics_snapshot()
        for name in ("cache.hits", "cache.misses"):
            assert after[name]["value"] - before[name]["value"] == 1
        assert all(metric["type"] == "counter" for metric in after.values())

    def test_stats_reports_into_global_metrics(self):
        on = Cover.from_minterms(4, [1, 2, 3])
        espresso(on)
        espresso(on)
        snapshot = metrics_snapshot()
        assert snapshot["cache.hits"]["value"] >= 1
        assert snapshot["cache.misses"]["value"] >= 1

    def test_reset_cache_keeps_counter_totals(self):
        on = Cover.from_minterms(4, [1, 2, 3])
        espresso(on)
        espresso(on)  # a miss, then a hit
        before = metrics_snapshot()
        reset_cache()
        after = metrics_snapshot()
        for name in ("cache.hits", "cache.misses"):
            assert after[name] == before[name]
        espresso(on)  # cold again
        assert _count("cache.misses") == before["cache.misses"]["value"] + 1


class TestEspressoMemo:
    def test_espresso_hits_on_identical_problem(self):
        on = Cover.from_minterms(5, [1, 3, 7, 12, 19])
        dc = Cover.from_minterms(5, [4, 9])
        first = espresso(on, dc)
        before = _count("cache.hits")
        second = espresso(on, dc)
        assert _count("cache.hits") == before + 1
        assert second is first  # shared, read-only result
        assert not second.cubes.flags.writeable

    def test_cached_result_is_correct_for_rebuilt_inputs(self):
        on1 = Cover.from_minterms(4, [0, 5, 10])
        dc1 = Cover.from_minterms(4, [2])
        result1 = espresso(on1, dc1)
        on2 = Cover.from_minterms(4, [0, 5, 10])
        dc2 = Cover.from_minterms(4, [2])
        result2 = espresso(on2, dc2)
        assert np.array_equal(result1.cubes, result2.cubes)

    def test_minimize_spec_memoises_on_phases(self):
        spec_a = FunctionSpec.from_sets(
            4, on_sets=[[1, 3], [0, 2]], dc_sets=[[5], []], name="a"
        )
        spec_b = FunctionSpec.from_sets(
            4, on_sets=[[1, 3], [0, 2]], dc_sets=[[5], []], name="b"
        )
        first = minimize_spec(spec_a)
        hits_before = _count("cache.hits")
        second = minimize_spec(spec_b)
        assert _count("cache.hits") > hits_before
        # Memoised covers, but the caller's spec identity is preserved.
        assert second.spec is spec_b
        assert spec_b.equivalent_within_dc(second.completed_spec())
        assert first.total_cubes == second.total_cubes
