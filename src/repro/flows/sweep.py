"""Sweeps and table builders for the paper's figures and tables.

Each function here regenerates the data behind one artefact:

* :func:`fraction_sweep` — Figs. 4 and 5 (ranking fraction 0 -> 1);
* :func:`family_tradeoff` — Fig. 6 (area vs error rate per C^f family);
* :func:`table2_row` — Table 2 (LC^f vs ranking vs complete);
* :func:`table3_row` — Table 3 (estimate bands and achieved rates);
* :func:`threshold_sweep` — the LC^f-threshold ablation.

Parallel execution
------------------

Every sweep point is an independent ``run_flow`` call — itself a thin
driver over the stage graph of :mod:`repro.pipeline` — so the sweep
drivers accept a ``jobs`` argument (an integer or ``"auto"``) and fan
the points out over the process-wide warm worker pool of
:mod:`repro.perf.pool` (see :func:`parallel_map`): persistent preloaded
workers pulling one pickled point at a time from a shared queue.
Results always come back in input order and synthesis is deterministic
across processes, so a parallel sweep is bit-identical to the serial
one.  ``jobs <= 1`` runs in-process, which additionally shares the
minimisation cache of :mod:`repro.perf` across points; each worker has
its own.

Checkpointed sweeps: pass ``checkpoint_dir`` and every point persists
its per-stage outputs content-addressed (see
:mod:`repro.pipeline.checkpoint`).  An interrupted sweep — or a
re-parameterised one whose early stages are unaffected by the changed
knob — resumes from the last valid stage output of each point instead
of recomputing whole flows.  Worker processes share the directory
safely: keys are content digests and writes are atomic.

Observability: each worker task measures its own tracing spans and
metrics delta and ships them back with the result; the parent merges
them into its tracer / registry, so ``--trace`` and ``--metrics-out``
see the whole fleet, not just the parent process.  A ``progress``
callback (``callback(done, total)``) fires as points complete, and a
worker crash surfaces as :class:`SweepPointError` carrying the failing
point's parameters and the worker's traceback instead of a bare pickled
stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from ..benchgen.synthetic import generate_spec
from ..core.cfactor import DEFAULT_THRESHOLD, cfactor_assignment
from ..core.estimates import border_bounds, signal_probability_bounds
from ..core.reliability import ErrorBounds, exact_error_bounds
from ..core.spec import FunctionSpec
from ..obs import span
from ..perf.pool import WorkerTaskError, get_pool, resolve_jobs
from .experiment import FlowResult, relative_metrics, run_flow

__all__ = [
    "SweepPointError",
    "fraction_sweep",
    "family_tradeoff",
    "parallel_map",
    "table2_row",
    "Table2Row",
    "table3_row",
    "Table3Row",
    "threshold_sweep",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

ProgressCallback = Callable[[int, int], None]
"""``callback(done, total)`` — invoked after every completed point."""


class SweepPointError(RuntimeError):
    """A sweep point failed in a worker process.

    Attributes:
        index: position of the failing point in the task list.
        point: the task that failed (e.g. the ``(spec, policy, kwargs)``
            tuple of a flow sweep), so the parameters that triggered the
            crash are on the exception instead of buried in a pickled
            traceback.
        worker_traceback: the worker-side formatted traceback.
    """

    def __init__(self, index: int, point: Any, message: str,
                 worker_traceback: str):
        self.index = index
        self.point = point
        self.worker_traceback = worker_traceback
        super().__init__(
            f"sweep point {index} ({_describe_point(point)}) failed: "
            f"{message}\n--- worker traceback ---\n{worker_traceback}"
        )


def _describe_point(point: Any) -> str:
    """A compact, parameter-first description of one sweep task."""
    if (
        isinstance(point, tuple)
        and len(point) == 3
        and isinstance(point[1], str)
        and isinstance(point[2], dict)
    ):
        spec, policy, kwargs = point
        name = getattr(spec, "name", spec)
        args = ", ".join(f"{key}={value!r}" for key, value in kwargs.items())
        return f"benchmark={name}, policy={policy}, {args}"
    text = repr(point)
    return text if len(text) <= 120 else text[:117] + "..."


def parallel_map(
    func: Callable[[_T], _R],
    tasks: Sequence[_T],
    jobs: int | str,
    *,
    progress: ProgressCallback | None = None,
) -> list[_R]:
    """Map *func* over *tasks*, optionally across warm worker processes.

    Parallel execution runs on the process-wide warm pool of
    :mod:`repro.perf.pool`: workers persist across successive calls (the
    second sweep in a process pays no spawn or import cost), each task
    is pickled once and sent as its own message, and a bounded in-flight
    window means a thousand-point sweep never holds every payload
    resident at once.

    Args:
        func: a picklable (module-level) callable.
        jobs: worker-process count, or ``"auto"`` for the CPU count;
            ``<= 1`` runs serially in-process.
        progress: optional ``callback(done, total)`` fired as each task
            completes (in completion order, with ``done`` monotonically
            increasing; results still return in input order).

    Returns:
        Results in input order regardless of completion order, so callers
        see deterministic output either way.

    Raises:
        SweepPointError: when a worker task raises; the failing task's
            parameters and the worker traceback ride on the exception,
            and queued-but-unclaimed work is cancelled.
    """
    total = len(tasks)
    jobs = resolve_jobs(jobs, points=total)
    if jobs <= 1 or total <= 1:
        results = []
        for index, task in enumerate(tasks):
            results.append(func(task))
            if progress is not None:
                progress(index + 1, total)
        return results
    pool = get_pool(jobs)
    try:
        return pool.map(func, tasks, jobs, progress=progress)
    except WorkerTaskError as error:
        raise SweepPointError(
            error.index, tasks[error.index], error.message,
            error.worker_traceback,
        ) from None


def _run_flow_task(task: tuple[FunctionSpec, str, dict]) -> FlowResult:
    """Module-level trampoline so sweep points pickle across processes."""
    spec, policy, kwargs = task
    return run_flow(spec, policy, **kwargs)


def fraction_sweep(
    spec: FunctionSpec,
    fractions: list[float],
    *,
    objective: str = "delay",
    jobs: int = 1,
    progress: ProgressCallback | None = None,
    checkpoint_dir: str | None = None,
) -> list[FlowResult]:
    """Ranking-based results across assignment fractions (Figs. 4-5)."""
    extra = {} if checkpoint_dir is None else {"checkpoint_dir": checkpoint_dir}
    tasks = [
        (spec, "ranking", {"fraction": fraction, "objective": objective, **extra})
        for fraction in fractions
    ]
    with span(
        "sweep.fraction", benchmark=spec.name, points=len(tasks), jobs=jobs
    ):
        return parallel_map(_run_flow_task, tasks, jobs, progress=progress)


def _family_member_task(
    task: tuple[FunctionSpec, tuple[float, ...], str, str | None],
) -> list[tuple[float, float, float]] | None:
    """One family member's full trajectory: ``(fraction, area, error)``.

    Returns None for degenerate (wire-only) members, whose baseline has
    zero area and therefore no overhead signal.
    """
    spec, fractions, objective, checkpoint_dir = task
    extra = {} if checkpoint_dir is None else {"checkpoint_dir": checkpoint_dir}
    baseline = run_flow(spec, "ranking", fraction=0.0, objective=objective, **extra)
    if baseline.area == 0:
        return None
    points: list[tuple[float, float, float]] = []
    for fraction in fractions:
        if fraction == 0.0:
            result = baseline
        else:
            result = run_flow(
                spec, "ranking", fraction=fraction, objective=objective, **extra
            )
        rel = relative_metrics(result, baseline)
        points.append((fraction, rel["area"], rel["error_rate"]))
    return points


def family_tradeoff(
    *,
    num_inputs: int = 11,
    num_outputs: int = 11,
    complexity_factors: list[float] = (0.45, 0.55, 0.65, 0.75, 0.85),
    functions_per_family: int = 10,
    fractions: list[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    dc_fraction: float = 0.6,
    objective: str = "power",
    seed: int = 0,
    jobs: int = 1,
    progress: ProgressCallback | None = None,
    checkpoint_dir: str | None = None,
) -> dict[float, list[dict[str, float]]]:
    """Fig. 6: normalised (area, error rate) trajectories per C^f family.

    With ``jobs > 1`` the family members (each a full baseline-plus-
    fractions trajectory) are distributed over worker processes; the
    aggregation below is order-preserving, so results are identical to the
    serial run.

    Returns:
        Map from family C^f to a list of ``{fraction, area, error_rate}``
        points averaged over the family's functions, normalised to the
        fraction-0 (conventional) point of each function.
    """
    fractions = tuple(fractions)
    members: list[tuple[float, FunctionSpec]] = []
    for cf in complexity_factors:
        for index in range(functions_per_family):
            members.append(
                (
                    cf,
                    generate_spec(
                        f"fam{cf:.2f}_{index}",
                        num_inputs,
                        num_outputs,
                        target_cf=cf,
                        dc_fraction=dc_fraction,
                        seed=seed * 1000 + int(cf * 100) * 10 + index,
                    ),
                )
            )
    with span("sweep.family", members=len(members), jobs=jobs):
        trajectories_raw = parallel_map(
            _family_member_task,
            [(spec, fractions, objective, checkpoint_dir) for _, spec in members],
            jobs,
            progress=progress,
        )
    trajectories: dict[float, list[dict[str, float]]] = {}
    for cf in complexity_factors:
        accumulator: dict[float, list[tuple[float, float]]] = {
            fraction: [] for fraction in fractions
        }
        for (member_cf, _), points in zip(members, trajectories_raw):
            if member_cf != cf or points is None:
                continue
            for fraction, area, error_rate in points:
                accumulator[fraction].append((area, error_rate))
        if not any(accumulator.values()):
            continue  # every family member was degenerate; nothing to report
        trajectories[cf] = [
            {
                "fraction": fraction,
                "area": float(np.mean([p[0] for p in points])),
                "error_rate": float(np.mean([p[1] for p in points])),
            }
            for fraction, points in accumulator.items()
        ]
    return trajectories


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2 (improvements in percent; negative = overhead)."""

    benchmark: str
    cf: float
    lcf_area: float
    lcf_error: float
    ranking_area: float
    ranking_error: float
    complete_area: float
    complete_error: float


def table2_row(
    spec: FunctionSpec,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    objective: str = "area",
    checkpoint_dir: str | None = None,
) -> Table2Row:
    """Table 2: LC^f-based vs equal-fraction ranking vs complete.

    The ranking fraction is tied to the fraction the LC^f policy decided,
    exactly as the paper compares them.
    """
    from ..core.complexity import spec_complexity_factor

    extra = {} if checkpoint_dir is None else {"checkpoint_dir": checkpoint_dir}
    baseline = run_flow(spec, "conventional", objective=objective, **extra)
    lcf_assignment = cfactor_assignment(spec, threshold)
    lcf_fraction = min(1.0, lcf_assignment.fraction_of(spec))
    lcf = run_flow(
        spec, "cfactor", threshold=threshold, objective=objective, **extra
    )
    ranking = run_flow(
        spec, "ranking", fraction=lcf_fraction, objective=objective, **extra
    )
    complete = run_flow(spec, "complete", objective=objective, **extra)
    rel_lcf = relative_metrics(lcf, baseline)
    rel_rank = relative_metrics(ranking, baseline)
    rel_complete = relative_metrics(complete, baseline)
    return Table2Row(
        benchmark=spec.name,
        cf=spec_complexity_factor(spec),
        lcf_area=rel_lcf["area_improvement_pct"],
        lcf_error=rel_lcf["error_improvement_pct"],
        ranking_area=rel_rank["area_improvement_pct"],
        ranking_error=rel_rank["error_improvement_pct"],
        complete_area=rel_complete["area_improvement_pct"],
        complete_error=rel_complete["error_improvement_pct"],
    )


@dataclass(frozen=True)
class Table3Row:
    """One row of Table 3: bands, achieved rates and gate count."""

    benchmark: str
    gates: int
    exact: ErrorBounds
    signal: ErrorBounds
    border: ErrorBounds
    conventional_rate: float
    conventional_diff_pct: float
    lcf_rate: float
    lcf_diff_pct: float


def table3_row(
    spec: FunctionSpec,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    objective: str = "area",
    checkpoint_dir: str | None = None,
) -> Table3Row:
    """Table 3: estimate bands plus conventional and LC^f achieved rates.

    The "% Diff." columns report how far above the exact minimum each
    implementation's rate lands, as in the paper.
    """
    extra = {} if checkpoint_dir is None else {"checkpoint_dir": checkpoint_dir}
    exact = exact_error_bounds(spec)
    conventional = run_flow(spec, "conventional", objective=objective, **extra)
    lcf = run_flow(
        spec, "cfactor", threshold=threshold, objective=objective, **extra
    )

    def diff_pct(rate: float) -> float:
        return 100.0 * (rate - exact.lo) / exact.lo if exact.lo else 0.0

    return Table3Row(
        benchmark=spec.name,
        gates=conventional.gates,
        exact=exact,
        signal=signal_probability_bounds(spec),
        border=border_bounds(spec),
        conventional_rate=conventional.error_rate,
        conventional_diff_pct=diff_pct(conventional.error_rate),
        lcf_rate=lcf.error_rate,
        lcf_diff_pct=diff_pct(lcf.error_rate),
    )


def threshold_sweep(
    spec: FunctionSpec,
    thresholds: list[float],
    *,
    objective: str = "area",
    jobs: int = 1,
    progress: ProgressCallback | None = None,
    checkpoint_dir: str | None = None,
) -> list[FlowResult]:
    """LC^f-threshold ablation: results across the threshold knob."""
    extra = {} if checkpoint_dir is None else {"checkpoint_dir": checkpoint_dir}
    tasks = [
        (spec, "cfactor", {"threshold": threshold, "objective": objective, **extra})
        for threshold in thresholds
    ]
    with span(
        "sweep.threshold", benchmark=spec.name, points=len(tasks), jobs=jobs
    ):
        return parallel_map(_run_flow_task, tasks, jobs, progress=progress)
