"""Performance substrate: minimisation caching and the warm worker pool.

See :mod:`repro.perf.cache` for the content-addressed memo consulted by
:func:`repro.espresso.minimize.espresso` and
:func:`repro.espresso.minimize.minimize_spec` (one per process: pool
workers start with an empty memo), :mod:`repro.perf.pool` for the
persistent executor behind :func:`repro.flows.sweep.run_points`, and
:doc:`docs/performance.md </docs/performance>` for the design notes.
"""

from .cache import (
    MinimizationCache,
    cover_key,
    digest_parts,
    global_cache,
    reset_cache,
    spec_key,
    stage_key,
)
from .pool import (
    WarmPool,
    WorkerTaskError,
    available_cpus,
    executor_config,
    get_pool,
    resolve_jobs,
    shutdown_pool,
)

__all__ = [
    "MinimizationCache",
    "WarmPool",
    "WorkerTaskError",
    "available_cpus",
    "cover_key",
    "digest_parts",
    "executor_config",
    "get_pool",
    "global_cache",
    "reset_cache",
    "resolve_jobs",
    "shutdown_pool",
    "spec_key",
    "stage_key",
]
