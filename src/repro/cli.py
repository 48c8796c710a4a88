"""Command-line interface: ``repro <command> ...``.

Commands
--------

``info <file.pla|name> [--json]``
    Print shape, %DC, complexity factors and the exact,
    signal-probability and border estimate bands; ``--json`` adds the
    registered pipeline stages, fault models, scenarios, executor and
    ledger status.
``assign <file.pla|name> --policy P [--fraction F] [--threshold T] [-o OUT]``
    Apply a DC-assignment policy and write the assigned PLA.
``synth <file.pla|name> [--policy P] [--objective O] [--config FILE]``
    Run the stage-graph flow (default: the standard six stages) and
    print area/delay/power/gates/error rate; with ``--checkpoint-dir``
    an interrupted or re-parameterised run resumes from the last valid
    stage output, ``--stop-after STAGE`` ends the run early and
    ``--verilog FILE`` writes the mapped netlist.
``sweep <file.pla|name> [--objective O] [--points N] [--jobs J|auto]``
    Ranking-fraction sweep with normalised metrics (Fig. 4/5 style);
    ``--jobs`` fans the sweep points out over the warm worker pool
    (``auto`` = CPU count, capped by the point count).
``gen --inputs N --outputs M --cf C --dc D [-o OUT]``
    Generate a synthetic benchmark PLA.
``bench <scenario> ... [--jobs J|auto] [--out FILE]``
    Run named scenarios (benchmark set × fault model × policies, see
    ``docs/scenarios.md``) through the pipeline on the warm pool and
    merge the results into the ``BENCH_scenarios.json`` matrix;
    ``bench --list`` prints the scenario registry.
``report <file.pla|name> [--policy P] [--distances K ...] [--burst W]``
    Synthesise once and print the implementation's error rate under
    several fault models: exact single-bit, exact multi-bit/burst, and
    the packed Monte-Carlo estimate of the single-bit rate.
``obs runs|show|regressions|export``
    Query the telemetry ledger: list recorded runs, inspect one, or
    compare two — ``obs regressions --baseline <rev|run-id>
    [--candidate <run-id>]`` exits non-zero when wall clock or any
    quality figure regressed past tolerance.

Positional benchmark arguments accept either a ``.pla`` path or a Table 1
stand-in name (``bench``, ``ex1010``, ...).

Observability flags (every subcommand, see ``docs/observability.md``):
``--trace FILE`` records tracing spans (JSONL, or Chrome/Perfetto JSON
for ``.json`` paths), ``--metrics-out FILE`` writes the merged metrics
snapshot with an embedded run manifest, ``--profile FILE`` writes
flamegraph-ready collapsed stacks from the sampling profiler (pool
workers included), and ``--progress`` renders a live done/total + ETA
line on stderr for sweeps.  Every run is also appended to the telemetry
ledger (``.repro/ledger.sqlite`` unless ``REPRO_LEDGER_PATH``/
``REPRO_LEDGER_DISABLE`` say otherwise).  ``repro --version`` prints
the package version.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .benchgen import benchmark_names, generate_spec, mcnc_benchmark
from .core.cfactor import DEFAULT_THRESHOLD
from .core.complexity import spec_complexity_factor, spec_expected_complexity_factor
from .core.estimates import estimate_report
from .core.spec import FunctionSpec
from .core.truthtable import check_dense_width
from .flows.experiment import apply_policy, relative_metrics
from .flows.report import format_table
from .perf import resolve_jobs
from .pipeline import OBJECTIVES, POLICIES
from .pla import read_pla, write_pla

__all__ = ["main"]


def _jobs_arg(value: str) -> str:
    """``--jobs``: an integer or ``auto``.

    Only checked here: each command resolves it with
    :func:`repro.perf.resolve_jobs`, capped by its own point count.
    """
    try:
        resolve_jobs(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _unit_interval(value: str) -> float:
    """``--fraction``, ``--threshold``, ``--cf`` and ``--dc``: a number in [0, 1]."""
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return number


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than *minimum*.

    ``--points`` needs 2 (a sweep's fraction-0 baseline and fraction 1),
    ``nodal --k`` 2 and ``nodal --dc-window`` 1 (the smallest cut width
    and window depth the extractors accept); ``report``'s sample count,
    distances and burst width and ``gen --outputs`` need 1.
    """
    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {value!r}"
            ) from None
        if number < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {number}"
            )
        return number

    return parse


def _input_count(value: str) -> int:
    """``gen --inputs``: an input count in the dense range (1 to 20)."""
    number = _int_at_least(1)(value)
    try:
        check_dense_width(number)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return number


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_jobs_arg, default="1", metavar="N|auto",
        help="worker processes for the sweep points; 'auto' resolves to "
             "the CPU count, capped by the point count (see "
             "'repro info --json' for the resolved executor config)",
    )


def _unreadable(path: str, error: Exception) -> SystemExit:
    """The one-line exit for an input file that cannot be used."""
    if isinstance(error, OSError):
        reason = error.strerror
    else:  # a KeyError's str() is its repr; show the message itself
        reason = error.args[0] if error.args else error
    return SystemExit(f"{path}: {reason}")


def _load_spec(token: str) -> FunctionSpec:
    if token.endswith(".pla"):
        try:
            return read_pla(token)
        except (OSError, ValueError) as error:
            raise _unreadable(token, error) from None
    if token in benchmark_names():
        return mcnc_benchmark(token)
    raise SystemExit(
        f"unknown benchmark {token!r}: pass a .pla path or one of {benchmark_names()}"
    )


def _ledger_info() -> dict:
    """The ``repro info --json`` ledger block (never creates the file)."""
    from .obs.store import (
        LEDGER_SCHEMA_VERSION,
        LedgerStore,
        default_ledger_path,
        ledger_enabled,
    )

    path = default_ledger_path()
    info = {
        "path": str(path),
        "schema_version": LEDGER_SCHEMA_VERSION,
        "enabled": ledger_enabled(),
        "runs": 0,
    }
    if path.exists():
        try:
            with LedgerStore(path) as store:
                info["runs"] = store.run_count()
        except Exception:  # noqa: BLE001 - info must not fail on a bad ledger
            info["runs"] = None
    return info


def _cmd_info(args: argparse.Namespace) -> int:
    from .faults import describe_fault_models
    from .perf import executor_config
    from .pipeline import describe_stage, registered_stages
    from .scenarios import describe_scenarios

    spec = _load_spec(args.benchmark)
    bands = estimate_report(spec)
    if args.json:
        print(json.dumps({
            "name": spec.name,
            "inputs": spec.num_inputs,
            "outputs": spec.num_outputs,
            "dc_fraction": spec.dc_fraction(),
            "complexity_factor": spec_complexity_factor(spec),
            "expected_complexity_factor": spec_expected_complexity_factor(spec),
            "exact_error_min": bands.exact.lo,
            "exact_error_max": bands.exact.hi,
            "signal_error_min": bands.signal.lo,
            "signal_error_max": bands.signal.hi,
            "border_error_min": bands.border.lo,
            "border_error_max": bands.border.hi,
            "pipeline_stages": {
                name: {
                    key: value
                    for key, value in describe_stage(stage).items()
                    if key != "name"
                }
                for name, stage in registered_stages().items()
            },
            "fault_models": describe_fault_models(),
            "scenarios": describe_scenarios(),
            "executor": executor_config("auto"),
            "ledger": _ledger_info(),
        }, indent=2, sort_keys=True))
        return 0
    rows = [
        ["name", spec.name],
        ["inputs", spec.num_inputs],
        ["outputs", spec.num_outputs],
        ["%DC", round(100 * spec.dc_fraction(), 1)],
        ["C^f", round(spec_complexity_factor(spec), 3)],
        ["E[C^f]", round(spec_expected_complexity_factor(spec), 3)],
    ]
    print(format_table(["property", "value"], rows))
    rows = [
        ["exact", bands.exact.lo, bands.exact.hi],
        ["signal-probability", bands.signal.lo, bands.signal.hi],
        ["border/Poisson", bands.border.lo, bands.border.hi],
    ]
    print(format_table(["error band", "min", "max"], rows))
    return 0


def _cmd_assign(args: argparse.Namespace) -> int:
    spec = _load_spec(args.benchmark)
    assigned, assignment = apply_policy(
        spec, args.policy, fraction=args.fraction, threshold=args.threshold
    )
    print(
        f"{args.policy}: decided {len(assignment)} DC entries "
        f"({100 * assignment.fraction_of(spec):.1f}% of the DC set)"
    )
    if args.output:
        write_pla(assigned, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .flows.experiment import flow_result
    from .obs import metrics as obs_metrics
    from .pipeline import Pipeline, default_config, load_config

    spec = _load_spec(args.benchmark)
    if args.config:
        try:
            pipe = Pipeline.from_config(
                load_config(args.config), checkpoint=args.checkpoint_dir
            )
        except (OSError, KeyError, ValueError) as error:
            raise _unreadable(args.config, error) from None
    else:
        pipe = Pipeline.from_config(
            default_config(
                args.policy,
                fraction=args.fraction,
                threshold=args.threshold,
                objective=args.objective,
            ),
            checkpoint=args.checkpoint_dir,
        )
    stages = pipe.stages
    names = [stage.name for stage in stages]
    if args.stop_after is not None:
        if args.stop_after not in names:
            args._parser.error(
                f"argument --stop-after: {args.stop_after!r} is not a stage of "
                f"this pipeline; choose from {names}"
            )
        stages = stages[:names.index(args.stop_after) + 1]
    if args.verilog and not any("netlist" in stage.outputs for stage in stages):
        args._parser.error(
            "argument --verilog: no stage of this run produces a netlist "
            f"(it runs {[stage.name for stage in stages]})"
        )
    ran_before = obs_metrics.counter("pipeline.stages_run").value
    skipped_before = obs_metrics.counter("pipeline.stages_skipped").value
    ctx = pipe.run(spec=spec, stop_after=args.stop_after)
    stages_run = obs_metrics.counter("pipeline.stages_run").value - ran_before
    stages_skipped = (
        obs_metrics.counter("pipeline.stages_skipped").value - skipped_before
    )
    summary = {
        "name": pipe.name,
        "stages_run": stages_run,
        "stages_skipped": stages_skipped,
        "artifacts": ctx.keys(),
    }
    if "complete_dc_report" in ctx:
        summary["complete_dc"] = {
            key: (None if isinstance(value, float) and value != value else value)
            for key, value in asdict(ctx.get("complete_dc_report")).items()
        }
    result = None
    if "synthesis" in ctx and "assignment" in ctx:
        result = flow_result(ctx)
        session = getattr(args, "_obs_session", None)
        if session is not None:
            session.record_quality([result])
    if args.verilog:
        from .synth.verilog import write_verilog

        write_verilog(ctx.require("netlist"), args.verilog, module_name=spec.name)
    if args.json:
        print(json.dumps(
            {"result": None if result is None else asdict(result),
             "pipeline": summary},
            indent=2, sort_keys=True,
        ))
        return 0
    if args.verilog:
        print(f"wrote {args.verilog}")
    if result is None:
        print(
            f"pipeline {pipe.name!r} stopped with artefacts: "
            f"{', '.join(ctx.keys())}"
        )
    else:
        rows = [
            ["policy", result.policy],
            ["objective", result.objective],
            ["area", result.area],
            ["delay", result.delay],
            ["power", result.power],
            ["gates", result.gates],
            ["literals", result.literals],
            ["error rate", result.error_rate],
        ]
        print(format_table(["metric", "value"], rows))
    print(
        f"pipeline {pipe.name!r}: {stages_run} stage(s) run, "
        f"{stages_skipped} restored from checkpoints"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .flows.sweep import fraction_sweep

    spec = _load_spec(args.benchmark)
    fractions = [i / (args.points - 1) for i in range(args.points)]
    jobs = resolve_jobs(args.jobs, points=len(fractions))
    session = getattr(args, "_obs_session", None)
    progress = (
        session.progress_reporter(total=len(fractions), label="sweep")
        if session is not None
        else None
    )
    results = fraction_sweep(
        spec, fractions, objective=args.objective, jobs=jobs,
        progress=progress, checkpoint_dir=args.checkpoint_dir,
    )
    if session is not None:
        session.record_quality(results)
    baseline = results[0]
    rows = []
    for fraction, result in zip(fractions, results):
        rel = relative_metrics(result, baseline)
        rows.append(
            [fraction, rel["error_rate"], rel["area"], rel["delay"], rel["power"]]
        )
    print(format_table(["fraction", "error", "area", "delay", "power"], rows))
    return 0


def _cmd_nodal(args: argparse.Namespace) -> int:
    from .espresso.minimize import minimize_spec
    from .synth.flexibility import reassign_complete_dcs
    from .synth.network import LogicNetwork
    from .synth.odc import reassign_internal_dcs
    from .synth.optimize import optimize_network
    from .synth.renode import renode

    spec = _load_spec(args.benchmark)
    minimized = minimize_spec(spec)
    network = LogicNetwork.from_covers(
        list(spec.input_names), minimized.covers, list(spec.output_names)
    )
    optimize_network(network)
    if args.renode:
        network = renode(network, args.k)
    rows: list[list] = [["nodes", len(network.nodes)]]
    if args.sat:
        session = getattr(args, "_obs_session", None)
        progress = (
            session.progress_reporter(label="complete-dc")
            if session is not None
            else None
        )
        report = reassign_complete_dcs(
            network,
            policy=args.policy,
            threshold=args.threshold,
            window_levels=args.dc_window,
            progress=progress,
        )
        rows += [
            ["recycled counterexamples", report.recycled_patterns],
            ["nodes rewritten", report.nodes_changed],
            ["internal DCs assigned", report.dc_entries_assigned],
            ["complete DC minterms", report.complete_dc_minterms],
            ["window DC minterms", report.window_dc_minterms],
            ["DC delta (complete - window)", report.dc_delta],
            ["SAT fallback nodes", report.sat_fallback_nodes],
            ["internal error before", report.error_rate_before],
            ["internal error after", report.error_rate_after],
        ]
    else:
        report = reassign_internal_dcs(
            network, policy=args.policy, threshold=args.threshold
        )
        rows += [
            ["nodes rewritten", report.nodes_changed],
            ["internal DCs assigned", report.dc_entries_assigned],
            ["internal error before", report.error_rate_before],
            ["internal error after", report.error_rate_after],
        ]
    print(format_table(["metric", "value"], rows, precision=4))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .flows.export import export_all

    paths = export_all(
        args.directory, names=args.benchmarks,
        jobs=resolve_jobs(args.jobs),
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def _open_ledger_readonly():
    """The ledger store for ``repro obs`` queries, or None with a hint.

    Query commands never create the ledger: a missing file means no run
    has ever recorded, which each command reports instead of silently
    making an empty database.
    """
    from .obs.store import LedgerStore, default_ledger_path

    path = default_ledger_path()
    if not path.exists():
        print(f"no telemetry ledger at {path} (run any command to create it)",
              file=sys.stderr)
        return None
    return LedgerStore(path)


def _run_summary_row(record) -> list:
    duration = (
        f"{record.duration_seconds:.2f}s"
        if record.duration_seconds is not None else "-"
    )
    flags = "interrupted" if record.interrupted else ""
    return [
        record.run_id,
        record.command,
        (record.git_rev or "")[:12],
        duration,
        record.exit_status if record.exit_status is not None else "-",
        len(record.quality),
        flags,
    ]


def _cmd_obs_runs(args: argparse.Namespace) -> int:
    store = _open_ledger_readonly()
    if store is None:
        return 0
    with store:
        records = store.runs(
            command=args.filter_command, git_rev=args.rev, limit=args.limit
        )
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2,
                         sort_keys=True, default=str))
        return 0
    if not records:
        print("no matching runs")
        return 0
    rows = [_run_summary_row(r) for r in records]
    print(format_table(
        ["run", "command", "rev", "wall", "exit", "quality", "flags"], rows
    ))
    return 0


def _cmd_obs_show(args: argparse.Namespace) -> int:
    store = _open_ledger_readonly()
    if store is None:
        return 2
    with store:
        record = store.get(args.run_id)
    if record is None:
        print(f"no run matching {args.run_id!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True,
                         default=str))
        return 0
    rows = [
        ["run", record.run_id],
        ["created", record.created_at],
        ["command", record.command],
        ["git rev", record.git_rev or "-"],
        ["duration", f"{record.duration_seconds:.3f}s"
         if record.duration_seconds is not None else "-"],
        ["exit status", record.exit_status],
        ["interrupted", record.interrupted],
        ["quality points", len(record.quality)],
        ["stages timed", len(record.stage_timings)],
        ["profiled", record.profile is not None],
    ]
    print(format_table(["field", "value"], rows))
    if record.quality:
        qrows = [
            [p.get("benchmark"), p.get("policy"), p.get("parameter"),
             p.get("objective"), p.get("error_rate"), p.get("area"),
             p.get("literals")]
            for p in record.quality
        ]
        print(format_table(
            ["benchmark", "policy", "param", "objective", "error", "area",
             "literals"],
            qrows,
        ))
    return 0


def _cmd_obs_regressions(args: argparse.Namespace) -> int:
    from .obs.regress import compare_runs, format_comparison

    store = _open_ledger_readonly()
    if store is None:
        return 2
    with store:
        baseline = store.get(args.baseline)
        if baseline is None:
            # Not a run id: treat the argument as a git revision and
            # take that revision's newest run.
            matches = store.runs(
                command=args.filter_command, git_rev=args.baseline, limit=1
            )
            baseline = matches[0] if matches else None
        if baseline is None:
            print(f"no baseline run matching {args.baseline!r}",
                  file=sys.stderr)
            return 2
        if args.candidate:
            candidate = store.get(args.candidate)
        else:
            candidate = store.latest(
                command=args.filter_command or baseline.command,
                exclude=baseline.run_id,
            )
        if candidate is None:
            print("no candidate run to compare against the baseline",
                  file=sys.stderr)
            return 2
    comparison = compare_runs(
        baseline, candidate,
        wall_tolerance=args.wall_tolerance,
        quality_tolerance=args.quality_tolerance,
        stage_tolerance=args.stage_tolerance,
    )
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_comparison(comparison))
    return 0 if comparison.ok else 1


def _cmd_obs_export(args: argparse.Namespace) -> int:
    store = _open_ledger_readonly()
    if store is None:
        return 2
    with store:
        written = store.export_jsonl(args.output)
    print(f"wrote {written} run(s) to {args.output}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .scenarios import (
        describe_scenarios,
        get_scenario,
        run_scenario,
        write_scenario_matrix,
    )

    if args.list or not args.scenarios:
        if not args.list and not args.scenarios:
            print("no scenario named; registered scenarios:", file=sys.stderr)
        rows = [
            [entry["name"], entry["fault_model"]["model"], entry["points"],
             entry["description"]]
            for entry in describe_scenarios()
        ]
        print(format_table(["scenario", "fault model", "points", "description"],
                           rows))
        return 0 if args.list else 2
    try:
        scenarios = [get_scenario(name) for name in args.scenarios]
    except KeyError as error:
        raise SystemExit(f"bench: {error.args[0]}") from None
    session = getattr(args, "_obs_session", None)
    results = []
    for scenario in scenarios:
        jobs = resolve_jobs(args.jobs, points=scenario.num_points())
        progress = (
            session.progress_reporter(
                total=scenario.num_points(), label=scenario.name
            )
            if session is not None
            else None
        )
        result = run_scenario(
            scenario, jobs=jobs, progress=progress,
            checkpoint_dir=args.checkpoint_dir,
        )
        results.append(result)
        if session is not None:
            # Scenario-prefixed: one benchmark under two fault models keeps
            # two ledger quality keys.
            session.record_quality([
                {**asdict(point), "benchmark": f"{scenario.name}:{point.benchmark}"}
                for point in result.points
            ])
    matrix = write_scenario_matrix(args.out, results)
    if args.json:
        print(json.dumps(matrix, indent=2, sort_keys=True))
        return 0
    rows = []
    for result in results:
        for point in result.points:
            rows.append([
                result.scenario.name, point.benchmark, point.policy,
                point.parameter, point.error_rate, point.area, point.gates,
            ])
    print(format_table(
        ["scenario", "benchmark", "policy", "param", "error", "area", "gates"],
        rows, precision=5,
    ))
    print(f"wrote {len(results)} scenario(s) to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .flows.report import error_model_report
    from .synth.compile_ import compile_spec

    spec = _load_spec(args.benchmark)
    widths = [("--distances", k) for k in args.distances]
    if args.burst is not None:
        widths.append(("--burst", args.burst))
    for flag, width in widths:
        if width > spec.num_inputs:
            args._parser.error(
                f"argument {flag}: {width} is wider than the "
                f"{spec.num_inputs} inputs of {spec.name}"
            )
    assigned, _ = apply_policy(
        spec, args.policy, fraction=args.fraction, threshold=args.threshold
    )
    synthesis = compile_spec(
        assigned, objective=args.objective, source_spec=spec
    )
    report = error_model_report(
        synthesis.implemented,
        spec,
        synthesis.netlist,
        distances=args.distances,
        burst_width=args.burst,
        samples=args.samples,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps({
            "benchmark": spec.name,
            "policy": args.policy,
            "objective": args.objective,
            "area": synthesis.area,
            "gates": synthesis.num_gates,
            "error_models": report,
        }, indent=2, sort_keys=True))
        return 0
    rows = []
    for row in report:
        detail = ""
        if "stderr" in row:
            detail = (f"± {row['stderr']:.5f} stderr, "
                      f"{row['samples']} samples")
        rows.append([row["model"], row["rate"], detail])
    print(format_table(["fault model", "error rate", "detail"], rows,
                       precision=5))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = generate_spec(
        args.name,
        args.inputs,
        args.outputs,
        target_cf=args.cf,
        dc_fraction=args.dc,
        seed=args.seed,
    )
    print(
        f"generated {spec.name}: C^f={spec_complexity_factor(spec):.3f} "
        f"%DC={100 * spec.dc_fraction():.1f}"
    )
    if args.output:
        write_pla(spec, args.output)
        print(f"wrote {args.output}")
    return 0


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument("--trace", metavar="FILE", default=None,
                       help="record tracing spans (JSONL; .json = Chrome/"
                            "Perfetto trace_event format)")
    group.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the merged metrics snapshot plus an "
                            "embedded run manifest (args, seed, git rev, "
                            "versions, timings) as JSON")
    group.add_argument("--profile", metavar="FILE", default=None,
                       help="sample the run with the stack profiler and "
                            "write flamegraph-ready collapsed stacks here "
                            "(pool workers included)")
    group.add_argument("--progress", action="store_true",
                       help="render live done/total + ETA on stderr")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reliability-driven don't care assignment (DATE 2011 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    obs_parent = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[obs_parent], **kwargs)

    def add_policy_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--policy", default="conventional", choices=POLICIES)
        p.add_argument("--fraction", type=_unit_interval, default=1.0,
                       help="ranking fraction (policy=ranking)")
        p.add_argument("--threshold", type=_unit_interval,
                       default=DEFAULT_THRESHOLD,
                       help="LC^f threshold (policy=cfactor)")

    p_info = add_parser("info", help="benchmark properties")
    p_info.add_argument("benchmark")
    p_info.add_argument("--json", action="store_true",
                        help="machine-readable JSON instead of the table")
    p_info.set_defaults(func=_cmd_info)

    p_assign = add_parser("assign", help="apply a DC-assignment policy")
    p_assign.add_argument("benchmark")
    add_policy_args(p_assign)
    p_assign.add_argument("-o", "--output", help="write assigned PLA here")
    p_assign.set_defaults(func=_cmd_assign)

    p_synth = add_parser(
        "synth", help="run the stage-graph flow (default: the six stages)"
    )
    p_synth.add_argument("benchmark")
    p_synth.add_argument("--config", default=None,
                         help="JSON pipeline config; overrides the policy/"
                              "objective flags below")
    add_policy_args(p_synth)
    p_synth.add_argument("--objective", default="delay", choices=OBJECTIVES)
    p_synth.add_argument("--checkpoint-dir", default=None,
                         help="content-addressed stage checkpoint directory "
                              "(enables resume)")
    p_synth.add_argument("--stop-after", default=None, metavar="STAGE",
                         help="stop after the named stage (checkpoints up "
                              "to it are kept)")
    p_synth.add_argument("--verilog", help="also write the mapped netlist here")
    p_synth.add_argument("--json", action="store_true",
                         help="machine-readable result + pipeline summary")
    p_synth.set_defaults(func=_cmd_synth, _parser=p_synth)

    p_sweep = add_parser("sweep", help="ranking-fraction sweep")
    p_sweep.add_argument("benchmark")
    p_sweep.add_argument("--objective", default="power", choices=OBJECTIVES)
    p_sweep.add_argument("--points", type=_int_at_least(2), default=5,
                         help="evenly spaced fractions from 0 to 1 (>= 2)")
    _add_jobs_arg(p_sweep)
    p_sweep.add_argument("--checkpoint-dir", default=None,
                         help="persist per-stage outputs here so interrupted "
                              "sweeps resume from the last valid stage")
    p_sweep.set_defaults(func=_cmd_sweep)

    from .obs.regress import (
        DEFAULT_QUALITY_TOLERANCE,
        DEFAULT_STAGE_TOLERANCE,
        DEFAULT_WALL_TOLERANCE,
    )

    p_obs = sub.add_parser("obs", help="query the telemetry ledger")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_obs_runs = obs_sub.add_parser("runs", help="list recorded runs")
    p_obs_runs.add_argument("--command", dest="filter_command", default=None,
                            help="only runs of this subcommand")
    p_obs_runs.add_argument("--rev", default=None,
                            help="only runs from this git revision (prefix)")
    p_obs_runs.add_argument("--limit", type=int, default=20)
    p_obs_runs.add_argument("--json", action="store_true",
                            help="full records as JSON")
    p_obs_runs.set_defaults(func=_cmd_obs_runs)

    p_obs_show = obs_sub.add_parser("show", help="show one recorded run")
    p_obs_show.add_argument("run_id", help="run id (unique prefix accepted)")
    p_obs_show.add_argument("--json", action="store_true",
                            help="the full record as JSON")
    p_obs_show.set_defaults(func=_cmd_obs_show)

    p_obs_reg = obs_sub.add_parser(
        "regressions",
        help="compare a run against a baseline (exit 1 on drift)",
    )
    p_obs_reg.add_argument("--baseline", required=True, metavar="REV|RUN",
                           help="baseline run id or git revision prefix")
    p_obs_reg.add_argument("--candidate", default=None, metavar="RUN",
                           help="candidate run id (default: the newest run "
                                "of the baseline's command)")
    p_obs_reg.add_argument("--command", dest="filter_command", default=None,
                           help="restrict baseline/candidate lookup to this "
                                "subcommand")
    p_obs_reg.add_argument("--wall-tolerance", type=float,
                           default=DEFAULT_WALL_TOLERANCE, metavar="FRACTION",
                           help="allowed relative wall-clock slowdown "
                                "(default %(default)s)")
    p_obs_reg.add_argument("--quality-tolerance", type=float,
                           default=DEFAULT_QUALITY_TOLERANCE,
                           metavar="FRACTION",
                           help="allowed relative worsening of quality "
                                "figures (default %(default)s)")
    p_obs_reg.add_argument("--stage-tolerance", type=float,
                           default=DEFAULT_STAGE_TOLERANCE, metavar="FRACTION",
                           help="allowed relative slowdown of any pipeline "
                                "stage both runs executed (default "
                                "%(default)s)")
    p_obs_reg.add_argument("--json", action="store_true",
                           help="the structured diff as JSON")
    p_obs_reg.set_defaults(func=_cmd_obs_regressions)

    p_obs_exp = obs_sub.add_parser(
        "export", help="export the ledger as JSONL"
    )
    p_obs_exp.add_argument("output", help="JSONL output path")
    p_obs_exp.set_defaults(func=_cmd_obs_export)

    p_nodal = add_parser(
        "nodal", help="internal-DC extraction and reassignment (Sec. 4)"
    )
    p_nodal.add_argument("benchmark")
    p_nodal.add_argument("--policy", default="cfactor", choices=POLICIES)
    p_nodal.add_argument("--threshold", type=_unit_interval, default=1.0)
    p_nodal.add_argument("--renode", action="store_true",
                         help="repartition into k-feasible nodes first")
    p_nodal.add_argument("--k", type=_int_at_least(2), default=6,
                         help="renode fanin bound")
    p_nodal.add_argument("--sat", action="store_true",
                         help="use the SAT-complete extractor "
                              "(simulation-propose / SAT-confirm)")
    p_nodal.add_argument("--dc-window", type=_int_at_least(1), default=2,
                         dest="dc_window",
                         help="window depth for the window-limited "
                              "baseline/fallback extractor")
    p_nodal.set_defaults(func=_cmd_nodal)

    p_export = add_parser("export", help="write figure/table data as CSV")
    p_export.add_argument("directory")
    p_export.add_argument("--benchmarks", nargs="*", default=None,
                          choices=benchmark_names(), metavar="NAME",
                          help="benchmark names (default: a fast subset)")
    _add_jobs_arg(p_export)
    p_export.set_defaults(func=_cmd_export)

    p_bench = add_parser(
        "bench", help="run named scenarios (benchmarks × fault model × policies)"
    )
    p_bench.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                         help="registered scenario names (see --list)")
    p_bench.add_argument("--list", action="store_true",
                         help="print the scenario registry and exit")
    _add_jobs_arg(p_bench)
    p_bench.add_argument("--out", default="BENCH_scenarios.json", metavar="FILE",
                         help="scenario matrix to merge results into "
                              "(default %(default)s)")
    p_bench.add_argument("--checkpoint-dir", default=None,
                         help="content-addressed stage checkpoint directory "
                              "shared by all scenario points")
    p_bench.add_argument("--json", action="store_true",
                         help="print the merged matrix as JSON")
    p_bench.set_defaults(func=_cmd_bench)

    p_report = add_parser(
        "report", help="one implementation's error rate under several fault models"
    )
    p_report.add_argument("benchmark")
    add_policy_args(p_report)
    p_report.add_argument("--objective", default="area", choices=OBJECTIVES)
    p_report.add_argument("--distances", type=_int_at_least(1), nargs="*",
                          default=[2], metavar="K",
                          help="multi-bit Hamming distances to report "
                               "(default: 2)")
    p_report.add_argument("--burst", type=_int_at_least(1), default=None,
                          metavar="W",
                          help="also report the burst model of this width")
    p_report.add_argument("--samples", type=_int_at_least(1), default=20_000,
                          help="Monte-Carlo samples (default %(default)s)")
    p_report.add_argument("--seed", type=int, default=0,
                          help="Monte-Carlo seed (default %(default)s)")
    p_report.add_argument("--json", action="store_true",
                          help="machine-readable report")
    p_report.set_defaults(func=_cmd_report, _parser=p_report)

    p_gen = add_parser("gen", help="generate a synthetic benchmark")
    p_gen.add_argument("--name", default="synthetic")
    p_gen.add_argument("--inputs", type=_input_count, required=True,
                       help="input count, 1 to 20")
    p_gen.add_argument("--outputs", type=_int_at_least(1), required=True)
    p_gen.add_argument("--cf", type=_unit_interval, required=True)
    p_gen.add_argument("--dc", type=_unit_interval, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", help="write generated PLA here")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from .obs import ObsSession

    parser = _build_parser()
    args = parser.parse_args(argv)
    session = ObsSession.from_args(args.command, args, argv=argv)
    # Ledger queries must not append to the ledger they are reading.
    session.ledger_enabled = args.command != "obs"
    args._obs_session = session
    try:
        with session:
            status = args.func(args)
            session.exit_status = status
        return status
    except BrokenPipeError:  # e.g. piped into `head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
