"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from layertrace import SpanTimer, WorkCounter, instrumented  # noqa: E402

#: Small stand-ins for the real workloads: same code paths, tiny budgets.
TINY_DIRECT = harness.Workload("tiny_direct", ("gzip", "mcf"),
                               ("fdrt", "issue"), 600, 300)
TINY_ENGINE = harness.Workload("tiny_engine", ("adpcm_enc", "twolf"),
                               ("base", "friendly"), 300, 0,
                               through_engine=True)

#: Per-layer metrics that are exact counts or ratios of counts.
EXACT_METRICS = [
    name for name, unit, _ in harness.PER_LAYER
    if unit != "s" and not name.startswith("trace.")
]


def test_work_counts_and_digests_repeat_for_a_fixed_seed(tmp_path):
    first = harness.measure_traced(TINY_DIRECT, 3, 0.0, str(tmp_path))
    second = harness.measure_traced(TINY_DIRECT, 3, 0.0, str(tmp_path))
    assert first.tally.failed == 0, first.tally.problems
    assert second.tally.failed == 0, second.tally.problems
    assert first.digest == second.digest
    for name in EXACT_METRICS:
        assert first.metrics[name] == second.metrics[name], name
    assert first.metrics["assign.reorder_calls"] > 0
    assert first.metrics["assign.steer_calls"] > 0
    assert first.metrics["cluster.ready_polls_per_cycle"] > 0
    assert first.metrics["tracecache.lines_per_kinst"] > 0


def test_traced_digest_equals_untraced_digest(tmp_path):
    plain = harness.measure(TINY_DIRECT, 3, 0.0, str(tmp_path))
    traced = harness.measure_traced(TINY_DIRECT, 3, 0.0, str(tmp_path))
    assert plain.digest == traced.digest
    other_seed = harness.measure(TINY_DIRECT, 4, 0.0, str(tmp_path))
    assert other_seed.digest != plain.digest


def test_engine_workload_reads_back_its_cold_results(tmp_path):
    report = harness.measure(TINY_ENGINE, 3, 0.0, str(tmp_path))
    assert report.tally.failed == 0, report.tally.problems
    cells = len(TINY_ENGINE.jobs(3))
    warm_loads = harness.WARM_PASSES * cells
    assert report.tally.attempted == report.rounds * (cells + warm_loads)
    traced = harness.measure_traced(TINY_ENGINE, 3, 0.0, str(tmp_path))
    assert traced.tally.failed == 0, traced.tally.problems
    assert traced.metrics["runtime.cache_hit_rate"] == pytest.approx(
        warm_loads / (cells + warm_loads))
    assert traced.metrics["runtime.warm_jobs_per_s"] > 0
    assert list(tmp_path.iterdir()) == []


def test_engine_traced_rounds_build_each_cell_once(tmp_path):
    jobs = TINY_ENGINE.jobs(3)
    counter = WorkCounter()
    harness._probed_round(TINY_ENGINE, jobs, str(tmp_path), counter)
    # The extra construction that times setup_s stays out of traced rounds.
    assert counter.calls["core.construct"] == len(jobs)
    assert counter.calls["workloads.generate"] == len(jobs)


def test_timed_spans_wrap_the_layer_methods_directly():
    job = TINY_DIRECT.jobs(3)[0]
    with instrumented(SpanTimer()):
        pipeline = harness.Simulator(job.benchmark, job.spec, job.config,
                                     seed=job.seed).pipeline
    # No counting closure sits between a timer and the method it times.
    cluster = pipeline.clusters[0]
    for owner, attr in ((cluster, "dispatch_cycle"), (cluster, "accept"),
                        (pipeline.fetch_engine, "fetch")):
        timed = inspect.getclosurevars(getattr(owner, attr)).nonlocals["fn"]
        assert timed.__self__ is owner and timed.__name__ == attr


@pytest.mark.parametrize("workload", [TINY_DIRECT, TINY_ENGINE],
                         ids=lambda workload: workload.name)
def test_raising_cell_is_a_failed_operation(tmp_path, monkeypatch, workload):
    def deadlock(self, instructions):
        raise RuntimeError("pipeline deadlock")

    monkeypatch.setattr(harness.Simulator, "run", deadlock)
    report = harness.measure(workload, 3, 0.0, str(tmp_path))
    assert 0 < report.tally.failed <= report.tally.attempted
    assert "pipeline deadlock" in report.tally.problems[0]


def _moved_slot(result, take: int):
    """``result`` with one lost slot taken from one category and, when
    ``take`` is 0, given to another (the sum is then unchanged)."""
    accounting = json.loads(json.dumps(result.cycle_accounting))
    cluster = next(iter(accounting))
    categories = accounting[cluster]
    source = max(categories, key=categories.get)
    categories[source] -= 1
    if not take:
        target = "fu_contention" if source != "fu_contention" else "rs_full"
        categories[target] = categories.get(target, 0) + 1
    return dataclasses.replace(result, cycle_accounting=accounting)


@pytest.mark.parametrize("take", [0, 1], ids=["moved", "dropped"])
def test_tampered_result_is_a_failed_operation(tmp_path, take):
    jobs = TINY_ENGINE.jobs(3)
    checker = harness.ResultChecker()
    measured = harness.run_round(TINY_ENGINE, jobs, str(tmp_path))
    tally = harness.Tally()
    harness.check_round(measured, jobs, checker, tally)
    assert tally.failed == 0, tally.problems

    measured = harness.run_round(TINY_ENGINE, jobs, str(tmp_path))
    measured.results[1] = _moved_slot(measured.results[1], take)
    tally = harness.Tally()
    harness.check_round(measured, jobs, checker, tally)
    # The tampered cell fails, and so does every warm load of it, which
    # no longer matches.
    assert tally.failed == 1 + harness.WARM_PASSES, tally.problems
    expected = "accounting sums" if take else "first result"
    assert expected in tally.problems[0]


def test_isolate_environment_drops_every_repro_setting(monkeypatch):
    for name in ("REPRO_CACHE_DIR", "REPRO_SERVICE_URL", "REPRO_JOBS",
                 "REPRO_TELEMETRY_DIR", "REPRO_TRACE_DIR",
                 "REPRO_HEARTBEAT_CYCLES"):
        monkeypatch.setenv(name, "1")
    run.isolate_environment()
    assert not [name for name in run.os.environ if name.startswith("REPRO_")]


def test_benchmark_json_names_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fdrt_reorder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_host_speed_scales_by_the_samples_around_a_step(monkeypatch):
    samples = iter([0.02, 0.06, 0.04])
    monkeypatch.setattr(hostspeed, "reference_sample", lambda: next(samples))
    speed = hostspeed.HostSpeed()
    assert speed.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.04)
    assert speed.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.05)
    assert speed.samples == [0.02, 0.06, 0.04]
