"""One runner for flow point sets, and the paper artefacts built on it.

:func:`run_points` runs ``(spec, policy point)`` pairs through ``run_flow``
(a policy point is ``{"policy": P}`` plus that policy's own knob, see
:func:`check_policy_point`).  Every evaluation point set goes through it:

* :func:`fraction_sweep` — Figs. 4 and 5 (ranking fraction 0 -> 1);
* :func:`family_tradeoff` — Fig. 6 (area vs error rate per C^f family);
* :func:`table2_rows` — Table 2 (LC^f vs ranking vs complete);
* :func:`table3_rows` — Table 3 (estimate bands and achieved rates);
* :func:`repro.scenarios.run_scenario`, the CSV export and the benchmark
  scripts, including the LC^f-threshold ablation.

Parallel execution
------------------

Every point is an independent ``run_flow`` call — itself a thin driver
over the stage graph of :mod:`repro.pipeline` — so :func:`run_points`
accepts a ``jobs`` argument (an integer or ``"auto"``) and fans the
points out over the process-wide warm worker pool of
:mod:`repro.perf.pool` (see :func:`parallel_map`): persistent preloaded
workers pulling one pickled point at a time from a shared queue.
Results always come back in input order and synthesis is deterministic
across processes, so a parallel run is bit-identical to the serial one.
``jobs <= 1`` runs in-process, which additionally shares the
minimisation cache of :mod:`repro.perf` across points; each worker has
its own.

Checkpointed runs: pass ``checkpoint_dir`` and every point persists its
per-stage outputs content-addressed (see
:mod:`repro.pipeline.checkpoint`).  An interrupted run — or a
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
from typing import Any, Callable, Mapping, Sequence, TypeVar

import numpy as np

from ..benchgen.synthetic import generate_spec
from ..core.cfactor import DEFAULT_THRESHOLD, cfactor_assignment
from ..core.estimates import border_bounds, signal_probability_bounds
from ..core.reliability import ErrorBounds, exact_error_bounds
from ..core.spec import FunctionSpec
from ..obs import span
from ..perf.pool import WorkerTaskError, get_pool, resolve_jobs
from .experiment import POLICIES, POLICY_KNOBS, FlowResult, relative_metrics, run_flow

__all__ = [
    "SweepPointError",
    "check_policy_point",
    "fraction_sweep",
    "family_tradeoff",
    "parallel_map",
    "run_points",
    "table2_rows",
    "Table2Row",
    "table3_rows",
    "Table3Row",
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
    """Module-level trampoline so flow points pickle across processes."""
    spec, policy, kwargs = task
    return run_flow(spec, policy, **kwargs)


def check_policy_point(point: Mapping[str, Any]) -> None:
    """Check that *point* names a known policy plus at most its own knob.

    Raises:
        ValueError: otherwise (the knobs are
            :data:`~repro.flows.experiment.POLICY_KNOBS`), so a misspelt or
            misplaced knob cannot silently run the knob's default.
    """
    policy = point.get("policy")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    knob = POLICY_KNOBS.get(policy, (None,))[0]
    stray = sorted(set(point) - {"policy", knob})
    if stray:
        takes = f"only {knob!r}" if knob else "no knob"
        raise ValueError(f"policy {policy!r} takes {takes}, got {stray}")


def run_points(
    points: Sequence[tuple[FunctionSpec, Mapping[str, Any]]],
    *,
    jobs: int | str = 1,
    progress: ProgressCallback | None = None,
    **flow_kwargs: Any,
) -> list[FlowResult]:
    """One :class:`FlowResult` per ``(spec, policy point)`` pair, in order.

    Every policy point is checked (:func:`check_policy_point`) before any
    flow runs; *flow_kwargs* (``objective``, ``fault_model``,
    ``checkpoint_dir``, ...) go to every :func:`run_flow` call, and
    ``jobs``/``progress`` to :func:`parallel_map`, so the results are
    bit-identical for every ``jobs``.
    """
    tasks = []
    for spec, point in points:
        check_policy_point(point)
        knobs = dict(point)
        tasks.append((spec, knobs.pop("policy"), {**knobs, **flow_kwargs}))
    return parallel_map(_run_flow_task, tasks, jobs, progress=progress)


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
    with span(
        "sweep.fraction", benchmark=spec.name, points=len(fractions), jobs=jobs
    ):
        return run_points(
            [(spec, {"policy": "ranking", "fraction": f}) for f in fractions],
            jobs=jobs, progress=progress,
            objective=objective, checkpoint_dir=checkpoint_dir,
        )


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
    checkpoint_dir: str | None = None,
) -> dict[float, list[dict[str, float]]]:
    """Fig. 6: normalised (area, error rate) trajectories per C^f family.

    Every member's fraction-0 baseline runs first.  A wire-only member
    has zero baseline area and therefore no overhead signal, so only the
    other members run their remaining fractions; a family whose members
    are all wire-only is left out.

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
    flow_kwargs = {"objective": objective, "checkpoint_dir": checkpoint_dir}
    others = [fraction for fraction in fractions if fraction != 0.0]
    with span("sweep.family", members=len(members), jobs=jobs):
        baselines = run_points(
            [(spec, {"policy": "ranking", "fraction": 0.0}) for _, spec in members],
            jobs=jobs, **flow_kwargs,
        )
        kept = [
            (cf, spec, baseline)
            for (cf, spec), baseline in zip(members, baselines)
            if baseline.area != 0
        ]
        rest = iter(run_points(
            [
                (spec, {"policy": "ranking", "fraction": fraction})
                for _, spec, _ in kept
                for fraction in others
            ],
            jobs=jobs, **flow_kwargs,
        ))
    accumulators: dict[float, dict[float, list[tuple[float, float]]]] = {
        cf: {fraction: [] for fraction in fractions} for cf in complexity_factors
    }
    for cf, _, baseline in kept:
        for fraction in fractions:
            result = baseline if fraction == 0.0 else next(rest)
            rel = relative_metrics(result, baseline)
            accumulators[cf][fraction].append((rel["area"], rel["error_rate"]))
    return {
        cf: [
            {
                "fraction": fraction,
                "area": float(np.mean([p[0] for p in points])),
                "error_rate": float(np.mean([p[1] for p in points])),
            }
            for fraction, points in accumulator.items()
        ]
        for cf, accumulator in accumulators.items()
        if any(accumulator.values())
    }


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


def table2_rows(
    specs: Sequence[FunctionSpec],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    objective: str = "area",
    jobs: int | str = 1,
    checkpoint_dir: str | None = None,
) -> list[Table2Row]:
    """Table 2: LC^f-based vs equal-fraction ranking vs complete.

    The ranking fraction is tied to the fraction the LC^f policy decided,
    exactly as the paper compares them.
    """
    from ..core.complexity import spec_complexity_factor

    points = []
    for spec in specs:
        lcf_fraction = min(1.0, cfactor_assignment(spec, threshold).fraction_of(spec))
        points += [
            (spec, {"policy": "conventional"}),
            (spec, {"policy": "cfactor", "threshold": threshold}),
            (spec, {"policy": "ranking", "fraction": lcf_fraction}),
            (spec, {"policy": "complete"}),
        ]
    results = run_points(
        points, jobs=jobs, objective=objective, checkpoint_dir=checkpoint_dir
    )
    rows = []
    for index, spec in enumerate(specs):
        baseline, lcf, ranking, complete = results[4 * index:4 * index + 4]
        rel_lcf = relative_metrics(lcf, baseline)
        rel_rank = relative_metrics(ranking, baseline)
        rel_complete = relative_metrics(complete, baseline)
        rows.append(Table2Row(
            benchmark=spec.name,
            cf=spec_complexity_factor(spec),
            lcf_area=rel_lcf["area_improvement_pct"],
            lcf_error=rel_lcf["error_improvement_pct"],
            ranking_area=rel_rank["area_improvement_pct"],
            ranking_error=rel_rank["error_improvement_pct"],
            complete_area=rel_complete["area_improvement_pct"],
            complete_error=rel_complete["error_improvement_pct"],
        ))
    return rows


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


def table3_rows(
    specs: Sequence[FunctionSpec],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    objective: str = "area",
    jobs: int | str = 1,
    checkpoint_dir: str | None = None,
) -> list[Table3Row]:
    """Table 3: estimate bands plus conventional and LC^f achieved rates.

    The "% Diff." columns report how far above the exact minimum each
    implementation's rate lands, as in the paper.
    """
    results = run_points(
        [
            (spec, point)
            for spec in specs
            for point in ({"policy": "conventional"},
                          {"policy": "cfactor", "threshold": threshold})
        ],
        jobs=jobs, objective=objective, checkpoint_dir=checkpoint_dir,
    )

    def diff_pct(rate: float, minimum: float) -> float:
        return 100.0 * (rate - minimum) / minimum if minimum else 0.0

    rows = []
    for spec, conventional, lcf in zip(specs, results[0::2], results[1::2]):
        exact = exact_error_bounds(spec)
        rows.append(Table3Row(
            benchmark=spec.name,
            gates=conventional.gates,
            exact=exact,
            signal=signal_probability_bounds(spec),
            border=border_bounds(spec),
            conventional_rate=conventional.error_rate,
            conventional_diff_pct=diff_pct(conventional.error_rate, exact.lo),
            lcf_rate=lcf.error_rate,
            lcf_diff_pct=diff_pct(lcf.error_rate, exact.lo),
        ))
    return rows
