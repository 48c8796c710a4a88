"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

They drive the workload functions on 2-point subsets in-process, and
``run.py`` end to end on the smallest workload.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import hostspeed
import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def _isolated_stand_in_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "benchgen"))


def _table1_subset():
    roster = (("bench", ("conventional", "cfactor")),)
    return workloads.Workload("table1-subset", 1,
                              workloads._table1_prepare(roster),
                              workloads._table1_plan(roster))


def _complete_dc_subset(seed=0):
    specs = workloads._complete_dc_prepare(seed)[-1:]
    return workloads.Workload("complete-dc-subset", 1,
                              lambda _seed: specs, workloads._complete_dc_plan)


def _patched_attributes():
    """``(owner, attribute) -> current value`` for every traced target."""
    current = {}
    for owner, attribute, _ in layers._targets():
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if attribute in vars(k))
        current[(owner, attribute)] = vars(owner)[attribute]
    return current


def test_seed0_table1_specs_are_the_mcnc_stand_ins():
    from repro.benchgen.mcnc import mcnc_benchmark

    for roster in (workloads.TABLE1_OPTIMIZE, workloads.TABLE1_ESPRESSO):
        specs = workloads._table1_prepare(roster)(0)
        for name, _ in roster:
            reference = mcnc_benchmark(name)
            assert specs[name].name == reference.name
            assert specs[name].phases.tobytes() == reference.phases.tobytes()


def test_np_transform_keeps_the_generator_targets():
    from repro.benchgen.mcnc import mcnc_benchmark
    from repro.core.complexity import spec_complexity_factor

    spec = mcnc_benchmark("exam")
    moved = workloads.np_transform(spec, 3)
    assert moved.name == spec.name
    assert not (moved.phases == spec.phases).all()
    assert moved.dc_fraction() == spec.dc_fraction()
    assert spec_complexity_factor(moved) == pytest.approx(spec_complexity_factor(spec))
    assert sorted(moved.phases[0]) == sorted(spec.phases[0])
    again = workloads.np_transform(spec, 3)
    assert again.phases.tobytes() == moved.phases.tobytes()


@pytest.mark.parametrize("make", [_table1_subset, _complete_dc_subset])
def test_traced_pass_matches_untraced_and_restores(make, tmp_path):
    workload = make()
    inputs = workload.prepare(0)
    plain = workload.run_pass(inputs, str(tmp_path))
    originals = _patched_attributes()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert all(_patched_attributes()[key] is not value
                   for key, value in originals.items())
        traced = workload.run_pass(inputs, str(tmp_path))
    finally:
        tracer.restore()
    assert all(_patched_attributes()[key] is value
               for key, value in originals.items())
    assert [call.results for call in traced] == [call.results for call in plain]
    assert all(call.results is not None for call in plain)
    assert tracer.stats["espresso"][0] == 2
    assert tracer.stats["optimize"][1] > 0
    if workload.name.startswith("complete-dc"):
        assert tracer.stats["sat.solve"][0] > 0


def test_self_time_excludes_nested_wrapped_calls(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 6.0, 10.0, 11.0])
    monkeypatch.setattr(layers.time, "perf_counter", lambda: next(clock))
    tracer = layers.LayerTracer()
    inner = tracer.wrap("inner", lambda: "x")
    outer = tracer.wrap("outer", lambda: inner())
    assert outer() == "x"   # outer 0..6 around inner 1..3
    assert inner() == "x"   # inner 10..11 at top level
    assert tracer.stats["outer"] == [1, 6.0, 4.0]
    assert tracer.stats["inner"] == [2, 3.0, 3.0]


def test_calls_are_timed_in_reference_seconds(monkeypatch):
    clock = iter([0.0, 3.0, 10.0, 11.0])
    monkeypatch.setattr(child.time, "perf_counter", lambda: next(clock))
    # the host runs at the reference speed, then at half of it
    calibrations = iter([hostspeed.REFERENCE_S] + [2 * hostspeed.REFERENCE_S] * 2)
    monkeypatch.setattr(child, "calibrate", lambda: next(calibrations))
    calls = [workloads.Call(["a"], lambda: []), workloads.Call(["b"], lambda: [])]
    raw, norm = child.time_calls(calls)
    assert raw == [3.0, 1.0]
    assert norm == pytest.approx([2.0, 0.5])
    assert child.median_pass([[1.0, 5.0], [3.0, 1.0], [2.0, 2.0]]) == 4.0


def test_check_pass_flags_a_perturbed_reference_and_a_raising_call():
    calls = [workloads.Call(["a"], results=[{"area": 1.0}]),
             workloads.Call(["b", "c"], error="ValueError: boom")]
    reference = [{"label": "a", "area": 1.0}, {"label": "b", "area": 2.0},
                 {"label": "c", "area": 3.0}]
    failed, problems = child.check_pass(calls, reference)
    assert failed == ["b", "c"]
    reference[0]["area"] = 1.5
    failed, problems = child.check_pass(calls, reference)
    assert failed == ["a", "b", "c"]
    assert any("a: differs" in problem for problem in problems)


def test_traced_measure_emits_every_per_layer_metric(tmp_path):
    workload = _table1_subset()
    result = child.measure(workload, workload.prepare(0), seconds=0, trace=True,
                           workdir=str(tmp_path), golden=None)
    assert set(result["per_layer"]) == set(layers.PER_LAYER_METRICS)
    assert result["passes"] == 3 and result["failed_points"] == []
    assert result["per_layer"]["optimize.literals_out"] <= \
        result["per_layer"]["optimize.literals_in"]


def test_benchmark_json_matches_the_emitted_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER_METRICS


def _run(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=170)


def _copy_benchmark(root: Path) -> Path:
    """A checkout at *root* holding only ``BENCHMARK.json`` and ``perfbench/``."""
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def test_run_reports_every_end_to_end_metric(tmp_path):
    done = _run("--workload", "table1-espresso", "--seconds", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    # one timed pass plus the seed-0 reference pass, 12 points each
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 24
    assert set(last["metrics"]) == set(run.END_TO_END)


def test_run_fails_on_a_perturbed_golden_at_any_seed(tmp_path):
    checkout = _copy_benchmark(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src")
    golden_path = checkout / "perfbench" / "golden" / "seed0.json"
    golden = json.loads(golden_path.read_text())
    golden["workloads"]["table1-espresso"][0]["area"] += 1.0
    golden_path.write_text(json.dumps(golden))
    done = _run("--workload", "table1-espresso", "--seed", "1", "--seconds", "0",
                "--trace", cwd=checkout)
    assert done.returncode != 0
    last = json.loads(done.stdout.splitlines()[-1])
    assert not last["correct"] and last["failed"] == 1
    assert set(last["metrics"]) == set(layers.PER_LAYER_METRICS)
    assert "table1-espresso points_failed 1 count" in done.stdout


def test_run_fails_without_the_program_sources(tmp_path):
    _copy_benchmark(tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = _run("--workload", "table1-espresso", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, env=env)
    assert done.returncode != 0
    assert done.stdout == ""
