"""Content-addressed memoisation for minimisation results.

The sweep drivers of :mod:`repro.flows` re-run the whole ESPRESSO +
synthesis flow per sweep point, and many points share work: the fraction-0
baseline is recomputed per family member, adjacent sweep points often
assign DCs identically for some outputs, and every output of a spec is
minimised independently.  This module provides a process-wide,
content-addressed memo so identical minimisation problems are solved once.

Keys are BLAKE2b digests of the *content* of the problem (phase arrays or
cover bytes plus their shapes) combined with an options digest, so two
:class:`~repro.core.spec.FunctionSpec` objects with different names but
identical truth tables share an entry.  Values are treated as immutable:
cached cover arrays are marked read-only before they are stored.

Concurrency model
-----------------

The cache is **not thread-safe and does not need to be**: every consumer
in this package is single-threaded, and the flow-point runner
(:func:`repro.flows.sweep.run_points`) uses *processes*, each of which
gets its own ``global_cache`` at import time.  Worker-process hit/miss
activity therefore never races the parent's — it is reported back
explicitly as a metrics delta with each result and merged by the parent
(see :mod:`repro.obs.metrics`), which is why ``--metrics-out`` and
``repro sweep --cache-stats`` show cache traffic from every process
while :data:`global_cache`'s own counters only ever see one.  If you
embed the cache in a threaded host, wrap access in your own lock; the
methods do not lock internally.

Observability: the counters are exported to the process-wide metrics
registry under ``cache.*`` via a collector, :func:`reset_cache` clears
both entries and counters, and :func:`configure_cache` turns the memo
off.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any

import numpy as np

from ..obs import metrics as obs_metrics

__all__ = [
    "MinimizationCache",
    "configure_cache",
    "cover_key",
    "digest_parts",
    "global_cache",
    "reset_cache",
    "spec_key",
    "stage_key",
]

_OPTIONS_VERSION = b"espresso-v1"
"""Bump when the minimiser's semantics change, invalidating old digests."""


def _digest(*parts: bytes) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part)
        hasher.update(b"\x00")
    return hasher.hexdigest()


def digest_parts(*parts: bytes) -> str:
    """Content digest of a sequence of byte strings.

    The shared digest primitive behind every content-addressed key in
    this package — cover/spec memo keys here and the pipeline stage
    checkpoints of :mod:`repro.pipeline.checkpoint`.
    """
    return _digest(*parts)


_STAGE_VERSION = b"stage-v1"
"""Bump when checkpoint payload semantics change, invalidating old keys."""


def stage_key(
    stage_name: str,
    stage_version: str,
    params_fingerprint: str,
    upstream_key: str,
) -> str:
    """Content key of one pipeline stage execution.

    Keys chain: ``upstream_key`` is the previous stage's key (or the
    initial context fingerprint), so a stage's key commits to the whole
    producing history — its own identity and parameters plus, by
    induction, every upstream stage and the input artefacts.  Change
    anything upstream and every downstream key changes with it, which is
    what lets a re-parameterised run resume from the last stage whose
    inputs are genuinely unchanged.
    """
    return _digest(
        _STAGE_VERSION,
        b"stage",
        stage_name.encode(),
        stage_version.encode(),
        params_fingerprint.encode(),
        upstream_key.encode(),
    )


def cover_key(on_cubes: np.ndarray, dc_cubes: np.ndarray, num_inputs: int) -> str:
    """Content key of one ``espresso(on, dc)`` problem."""
    return _digest(
        _OPTIONS_VERSION,
        b"cover",
        repr((num_inputs, on_cubes.shape, dc_cubes.shape)).encode(),
        np.ascontiguousarray(on_cubes).tobytes(),
        np.ascontiguousarray(dc_cubes).tobytes(),
    )


def spec_key(phases: np.ndarray, options: tuple = ()) -> str:
    """Content key of one ``minimize_spec`` problem (phases + options)."""
    return _digest(
        _OPTIONS_VERSION,
        b"spec",
        repr((phases.shape, options)).encode(),
        np.ascontiguousarray(phases).tobytes(),
    )


class MinimizationCache:
    """A bounded LRU memo with hit/miss counters.

    Not thread-safe by design (see the module docstring): the minimiser
    itself is single-threaded and the parallel sweep executor uses
    processes, each with its own cache instance whose counters are
    merged back into the parent's metrics snapshot per task.
    """

    def __init__(self, maxsize: int = 4096, enabled: bool = True):
        self.maxsize = maxsize
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._store: OrderedDict[str, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: str) -> Any | None:
        """The cached value for *key*, or None; counts a hit or a miss."""
        if not self.enabled:
            return None
        value = self._store.get(key)
        if value is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Insert *value* under *key*, evicting the oldest entry when full."""
        if not self.enabled:
            return
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


global_cache = MinimizationCache()
"""The process-wide memo consulted by ``espresso`` and ``minimize_spec``."""


def reset_cache() -> None:
    """Clear the process-wide cache and zero its counters."""
    global_cache.clear()


def configure_cache(*, enabled: bool) -> None:
    """Enable or disable the process-wide cache."""
    global_cache.enabled = enabled


def _collect_cache_metrics() -> dict[str, dict[str, Any]]:
    """Export the global cache's counters into metrics snapshots.

    Registered as a collector so the cache's hot paths keep their plain
    integer counters while every snapshot still absorbs them under the
    ``cache.*`` namespace.
    """
    hits, misses = global_cache.hits, global_cache.misses
    return {
        "cache.hits": {"type": "counter", "value": hits},
        "cache.misses": {"type": "counter", "value": misses},
        "cache.evictions": {"type": "counter", "value": global_cache.evictions},
        "cache.entries": {"type": "gauge", "value": len(global_cache)},
        "cache.hit_rate": {
            "type": "gauge",
            "value": hits / (hits + misses) if hits + misses else 0.0,
        },
    }


obs_metrics.register_collector(_collect_cache_metrics)
