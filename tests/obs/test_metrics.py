"""Tests for the metrics registry: counters, snapshots, merging."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    diff_snapshots,
    global_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter(self, registry):
        counter = registry.counter("calls")
        counter.inc()
        counter.inc(4)
        assert registry.counter("calls").value == 5
        assert registry.counter("calls") is counter


class TestSnapshotsAndMerge:
    def test_snapshot_shape(self, registry):
        registry.counter("c").inc(2)
        registry.counter("b")
        assert registry.snapshot() == {
            "b": {"type": "counter", "value": 0},
            "c": {"type": "counter", "value": 2},
        }

    def test_merge_adds_counters(self, registry):
        registry.counter("c").inc(1)
        other = MetricsRegistry()
        other.counter("c").inc(10)
        other.counter("d").inc(4)
        registry.merge_snapshot(other.snapshot())
        snapshot = registry.snapshot()
        assert snapshot["c"]["value"] == 11
        assert snapshot["d"]["value"] == 4

    def test_diff_snapshots_attributes_only_new_work(self, registry):
        registry.counter("c").inc(5)
        start = registry.snapshot()
        registry.counter("c").inc(2)
        registry.counter("new").inc(3)
        delta = diff_snapshots(registry.snapshot(), start)
        assert delta == {
            "c": {"type": "counter", "value": 2},
            "new": {"type": "counter", "value": 3},
        }

    def test_diff_drops_unchanged_counters(self, registry):
        registry.counter("quiet").inc(3)
        start = registry.snapshot()
        delta = diff_snapshots(registry.snapshot(), start)
        assert "quiet" not in delta
        kept = diff_snapshots(registry.snapshot(), start, keep_zero=True)
        assert kept["quiet"] == {"type": "counter", "value": 0}

    def test_reset_zeroes_counters_and_keeps_names(self, registry):
        counter = registry.counter("c")
        counter.inc(3)
        registry.reset()
        assert registry.snapshot() == {"c": {"type": "counter", "value": 0}}
        counter.inc()  # a handle fetched before the reset still records
        assert registry.snapshot()["c"]["value"] == 1


class TestGlobalCacheCollector:
    def test_cache_counters_absorbed_into_snapshots(self):
        from repro.espresso.cube import Cover
        from repro.espresso.minimize import espresso
        from repro.perf import reset_cache

        reset_cache()
        on = Cover.from_minterms(4, [1, 2, 3])
        espresso(on)
        espresso(on)  # hit
        snapshot = global_registry.snapshot()
        assert snapshot["cache.hits"]["value"] >= 1
        assert snapshot["cache.misses"]["value"] >= 1
        reset_cache()
