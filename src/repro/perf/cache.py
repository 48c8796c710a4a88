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
(see :mod:`repro.obs.metrics`), which is why the ``cache.hits`` and
``cache.misses`` counters of a ``--metrics-out`` document count cache
traffic from every process.
If you embed the cache in a threaded host, wrap access in your own
lock; the methods do not lock internally.

Observability: the cache counts ``cache.hits``, ``cache.misses`` and
``cache.evictions`` straight into the process-wide metrics registry and
keeps no count of its own; :func:`reset_cache` drops the entries and
leaves those totals alone, so they never decrease.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any

import numpy as np

from ..obs import metrics as obs_metrics

__all__ = [
    "MinimizationCache",
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


def spec_key(phases: np.ndarray) -> str:
    """Content key of one ``minimize_spec`` problem (its phase array)."""
    return _digest(
        _OPTIONS_VERSION,
        b"spec",
        repr(phases.shape).encode(),
        np.ascontiguousarray(phases).tobytes(),
    )


class MinimizationCache:
    """A bounded LRU memo that counts its traffic into the metrics registry.

    Not thread-safe by design (see the module docstring): the minimiser
    itself is single-threaded and the parallel sweep executor uses
    processes, each with its own cache instance whose counts are merged
    back into the parent's registry per task.
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self._store: OrderedDict[str, Any] = OrderedDict()
        for name in ("cache.hits", "cache.misses", "cache.evictions"):
            obs_metrics.counter(name)  # listed at 0 before the first lookup

    def get(self, key: str) -> Any | None:
        """The cached value for *key*, or None; counts a hit or a miss."""
        value = self._store.get(key)
        if value is None:
            obs_metrics.counter("cache.misses").inc()
            return None
        self._store.move_to_end(key)
        obs_metrics.counter("cache.hits").inc()
        return value

    def put(self, key: str, value: Any) -> None:
        """Insert *value* under *key*, evicting the oldest entry when full."""
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            obs_metrics.counter("cache.evictions").inc()

    def clear(self) -> None:
        """Drop all entries."""
        self._store.clear()


global_cache = MinimizationCache()
"""The process-wide memo consulted by ``espresso`` and ``minimize_spec``."""


def reset_cache() -> None:
    """Empty the process-wide cache, so the next lookups start cold.

    The ``cache.*`` counters keep their totals.
    """
    global_cache.clear()
