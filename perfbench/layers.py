"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces the module and class attributes that the
flow resolves at call time with timing wrappers, and puts every one back
on :meth:`LayerTracer.restore`.  Each wrapper records the call count,
the total time and the self time (total minus the time spent in nested
wrapped calls) of its layer.  Program counters (``metrics_snapshot``
deltas, merged back from pool workers by the program itself) complete
the picture: they are the only view into worker processes, whose
attributes the wrappers cannot reach.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

PER_LAYER_METRICS: dict[str, str] = {
    "benchgen.generate_s": "s",
    "assign.calls": "count",
    "assign.s": "s",
    "espresso.calls": "count",
    "espresso.s": "s",
    "espresso.cubes_out": "count",
    "espresso.cache_hits": "count",
    "espresso.cache_misses": "count",
    "optimize.s": "s",
    "optimize.extract_kernels.s": "s",
    "optimize.extract_kernels.self_s": "s",
    "optimize.extract_cubes.s": "s",
    "optimize.extract_cubes.self_s": "s",
    "optimize.kernels.calls": "count",
    "optimize.kernels.s": "s",
    "optimize.algebraic_divide.calls": "count",
    "optimize.algebraic_divide.s": "s",
    "optimize.divisors_created": "count",
    "optimize.divide_yield": "ratio",
    "optimize.literals_in": "count",
    "optimize.literals_out": "count",
    "complete_dc.s": "s",
    "sat.solve.calls": "count",
    "sat.solve.s": "s",
    "sat.queries": "count",
    "sat.confirmations": "count",
    "sat.refutations": "count",
    "sat.fallbacks": "count",
    "sat.confirm_ratio": "ratio",
    "map.subject_graph.s": "s",
    "map.cover.s": "s",
    "map.gates_out": "count",
    "tune.calls": "count",
    "tune.s": "s",
    "measure.selfcheck.s": "s",
    "measure.timing.s": "s",
    "measure.power.s": "s",
    "measure.error_rate.s": "s",
    "stage.assign.s": "s",
    "stage.espresso.s": "s",
    "stage.optimize.s": "s",
    "stage.complete_dc.s": "s",
    "stage.map.s": "s",
    "stage.tune.s": "s",
    "stage.measure.s": "s",
    "checkpoint.hits": "count",
    "checkpoint.misses": "count",
    "checkpoint.stores": "count",
    "pool.map.s": "s",
    "pool.spawn_s": "s",
    "pool.tasks": "count",
    "pool.chunks": "count",
    "pool.shm_bytes": "bytes",
    "pool.utilization": "ratio",
    "trace.overhead": "ratio",
}
"""Every per-layer metric of a traced run, with its unit.  Values are per
pass (averaged over the traced passes of a run)."""

STAGES = ("assign", "espresso", "optimize", "complete_dc", "map", "tune",
          "measure")

PROGRAM_COUNTERS = {
    "espresso.cubes_out": "espresso.cubes_out",
    "espresso.cache_hits": "cache.hits",
    "espresso.cache_misses": "cache.misses",
    "sat.queries": "sat.queries",
    "sat.confirmations": "sat.confirmations",
    "sat.refutations": "sat.refutations",
    "sat.fallbacks": "sat.fallbacks",
    "checkpoint.hits": "cache.checkpoint_hits",
    "checkpoint.misses": "cache.checkpoint_misses",
    "checkpoint.stores": "cache.checkpoint_stores",
    "pool.tasks": "pool.dispatched_tasks",
    "pool.chunks": "pool.dispatched_chunks",
    "pool.shm_bytes": "pool.shm_bytes",
    **{f"stage.{stage}.s": f"pipeline.stage_seconds.{stage}" for stage in STAGES},
}
"""Per-layer metric name -> the program's own counter it is read from."""


def _targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped call site.

    Module attributes are patched where the caller looks them up (e.g.
    ``repro.pipeline.stages.minimize_spec``, not the defining module);
    methods are patched on the class of the MRO that defines them.
    """
    from repro.core.spec import FunctionSpec
    from repro.faults.input_models import MultiBitInput, SingleBitInput
    from repro.faults.stuckat import StuckAtNode
    from repro.perf.pool import WarmPool
    from repro.pipeline import stages
    from repro.sat.solver import SatSolver
    from repro.synth import flexibility, optimize
    from repro.synth.netlist import MappedNetlist

    return [
        (stages, "cfactor_assignment", "assign"),
        (stages, "ranking_assignment", "assign"),
        (stages, "complete_assignment", "assign"),
        (stages, "minimize_spec", "espresso"),
        (stages, "optimize_network", "optimize"),
        (optimize, "extract_kernels", "optimize.extract_kernels"),
        (optimize, "extract_cubes", "optimize.extract_cubes"),
        (optimize, "kernels", "optimize.kernels"),
        (optimize, "algebraic_divide", "optimize.algebraic_divide"),
        (flexibility, "reassign_complete_dcs", "complete_dc"),
        (SatSolver, "solve", "sat.solve"),
        (stages, "build_subject_graph", "map.subject_graph"),
        (stages, "map_graph", "map.cover"),
        (stages, "upsize_critical", "tune"),
        (MappedNetlist, "to_spec", "measure.selfcheck"),
        (FunctionSpec, "equivalent_within_dc", "measure.selfcheck"),
        (stages, "static_timing", "measure.timing"),
        (stages, "power_analysis", "measure.power"),
        (SingleBitInput, "error_rate", "measure.error_rate"),
        (MultiBitInput, "error_rate", "measure.error_rate"),
        (StuckAtNode, "network_error_rate", "measure.error_rate"),
        (WarmPool, "map", "pool.map"),
    ]


def _probes(tracer: "LayerTracer") -> dict[str, tuple[Callable | None, Callable | None]]:
    """Layer -> ``(before(args), after(args, result))`` extra recorders."""

    def literals(key):
        return lambda args, *_: tracer.add(key, args[0].num_literals)

    def divisors(args, result):
        tracer.add("optimize.divisors_created", result)

    return {
        "optimize": (literals("optimize.literals_in"),
                     literals("optimize.literals_out")),
        "optimize.extract_kernels": (None, divisors),
        "optimize.extract_cubes": (None, divisors),
        "map.cover": (None, lambda args, result: tracer.add("map.gates_out",
                                                           result.num_gates)),
    }


class LayerTracer:
    """Wraps the flow's layer entry points; see the module docstring.

    ``stats[layer]`` is ``[calls, total_s, self_s]``; ``extra[name]`` holds
    values recorded by probes (literal counts, divisors, gates).
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def add(self, name: str, value: float) -> None:
        self.extra[name] += value

    def reset(self) -> None:
        self.stats.clear()
        self.extra.clear()

    def wrap(self, layer: str, func: Callable,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """*func* timed under *layer*, with optional probes around it."""
        stack = self._stack
        stats = self.stats

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = stats[layer]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - nested[0]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target; a second install is a no-op."""
        if self._patched:
            return
        probes = _probes(self)
        for owner, attribute, layer in _targets():
            if isinstance(owner, type):
                owner = next(klass for klass in owner.__mro__
                             if attribute in vars(klass))
            original = vars(owner)[attribute]
            before, after = probes.get(layer, (None, None))
            setattr(owner, attribute, self.wrap(layer, original, before, after))
            self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def layer_metrics(tracer: LayerTracer, counters: dict[str, float],
                  jobs: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (``trace.overhead``,
    ``pool.spawn_s`` and ``benchgen.generate_s`` are filled in by the
    caller, which times them)."""

    def calls(layer):
        return tracer.stats[layer][0] if layer in tracer.stats else 0

    def total(layer):
        return tracer.stats[layer][1] if layer in tracer.stats else 0.0

    def self_time(layer):
        return tracer.stats[layer][2] if layer in tracer.stats else 0.0

    out: dict[str, float] = {}
    for layer in ("assign", "espresso", "optimize.kernels",
                  "optimize.algebraic_divide", "sat.solve", "tune"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.s"] = total(layer)
    for layer in ("optimize", "optimize.extract_kernels", "optimize.extract_cubes",
                  "complete_dc", "map.subject_graph", "map.cover",
                  "measure.selfcheck", "measure.timing", "measure.power",
                  "measure.error_rate", "pool.map"):
        out[f"{layer}.s"] = total(layer)
    for layer in ("optimize.extract_kernels", "optimize.extract_cubes"):
        out[f"{layer}.self_s"] = self_time(layer)
    for name in ("optimize.divisors_created", "optimize.literals_in",
                 "optimize.literals_out", "map.gates_out"):
        out[name] = tracer.extra.get(name, 0.0)
    for name, counter in PROGRAM_COUNTERS.items():
        out[name] = counters.get(counter, 0.0)
    divides = out["optimize.algebraic_divide.calls"]
    out["optimize.divide_yield"] = (
        out["optimize.divisors_created"] / divides if divides else 0.0
    )
    queries = out["sat.queries"]
    out["sat.confirm_ratio"] = out["sat.confirmations"] / queries if queries else 0.0
    busy = sum(out[f"stage.{stage}.s"] for stage in STAGES)
    out["pool.utilization"] = (
        busy / (jobs * out["pool.map.s"]) if out["pool.map.s"] else 0.0
    )
    return out


def counter_values(snapshot: dict[str, Any]) -> dict[str, float]:
    """Counter name -> value of a ``metrics_snapshot`` (or delta)."""
    return {name: data.get("value", 0) for name, data in snapshot.items()
            if data.get("type") == "counter"}
