"""Quiet-cycle fast-forward is invisible in every simulated result.

:meth:`Pipeline.run` jumps over cycles in which no stage can act.  These
tests run each scenario twice, once through ``run()`` and once through
:func:`stepping_run`, a copy of the cycle loop that steps every cycle,
and require identical results, event logs, hook firings and watchdog
cycles.
"""

import json

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core import pipeline as pipeline_module
from repro.core.simulator import Simulator
from repro.obs.profiler import PhaseProfiler
from repro.obs.timeseries import IntervalRecorder
from repro.obs.tracer import PipelineObserver

PROFILES = ("mcf", "pegwit_enc", "gzip", "jpeg_enc")
STRATEGIES = ("base", "issue", "friendly", "fdrt")
WARMUP = 400
MEASURE = 1200

#: Small structures and long latencies, so full ROBs, full stations,
#: full load/store queues, long fill queues, redirect penalties and
#: I-cache waits all bound quiet spans.
TIGHT = MachineConfig(rob_entries=24, rs_entries=2, load_queue_entries=3,
                      store_buffer_entries=3, fill_unit_latency=120,
                      redirect_penalty=6, icache_size=1024)


def stepping_run(pipeline, max_instructions):
    """Reference cycle loop: ``run()`` without the fast-forward."""
    target = pipeline.stats.retired + max_instructions
    hook = pipeline.progress_hook
    sampler = pipeline.sampler
    while pipeline.stats.retired < target:
        if pipeline._drained():
            break
        pipeline.step()
        if sampler is not None and pipeline.now >= pipeline._next_sample:
            pipeline._next_sample = pipeline.now + max(
                1, pipeline.sample_interval)
            sampler(pipeline)
        if hook is not None and pipeline.now >= pipeline._next_progress:
            pipeline._next_progress = pipeline.now + max(
                1, pipeline.progress_interval)
            hook(pipeline)
        if (pipeline.now - pipeline._last_retire_cycle
                > pipeline_module._WATCHDOG_CYCLES):
            raise RuntimeError(
                f"pipeline deadlock at cycle {pipeline.now}: "
                f"rob={len(pipeline.rob)} frontend={len(pipeline.frontend)}"
            )
    return pipeline.stats


class EventLog(PipelineObserver):
    """Every observer event with the cycle it happened in."""

    def __init__(self):
        self.events = []

    def on_fetch(self, packet, now):
        self.events.append(("fetch", now, tuple(i.seq for i in packet)))

    def on_dispatch(self, inst, now):
        self.events.append(("dispatch", now, inst.seq, inst.cluster))

    def on_retire(self, inst, now):
        self.events.append(("retire", now, inst.seq))

    def on_fill_install(self, line, ready, now):
        self.events.append(("install", now, ready, line.key))


def build(profile, kind, config, stepping):
    simulator = Simulator(profile, StrategySpec(kind=kind), config=config,
                          seed=7)
    pipeline = simulator.pipeline
    if stepping:
        pipeline.run = lambda n: stepping_run(pipeline, n)
    steps = [0]
    step = pipeline.step

    def counted_step():
        steps[0] += 1
        step()

    pipeline.step = counted_step
    return simulator, steps


def measured(profile, kind, config=None, stepping=False):
    """Warmup, reset, measure: the result JSON, event log, final cycle
    and the number of steps taken."""
    simulator, steps = build(profile, kind, config, stepping)
    log = EventLog().attach(simulator.pipeline)
    simulator.warmup(WARMUP)
    result = simulator.run(MEASURE)
    log.detach()
    text = json.dumps(result.to_dict(), sort_keys=True)
    return text, log.events, simulator.pipeline.now, steps[0]


@pytest.mark.parametrize("kind", STRATEGIES)
@pytest.mark.parametrize("profile", PROFILES)
def test_results_match_stepping_every_cycle(profile, kind):
    fast = measured(profile, kind)
    slow = measured(profile, kind, stepping=True)
    assert fast[:3] == slow[:3]
    assert slow[3] == slow[2]


@pytest.mark.parametrize("kind", STRATEGIES)
@pytest.mark.parametrize("profile", ("mcf", "gzip"))
def test_tight_machine_matches_stepping_every_cycle(profile, kind):
    fast = measured(profile, kind, TIGHT)
    slow = measured(profile, kind, TIGHT, stepping=True)
    assert fast[:3] == slow[:3]


def test_memory_bound_cell_skips_most_cycles():
    # Guards against a predicate that never fires, which would pass
    # every equivalence test above.
    _text, _log, cycles, steps = measured("mcf", "base")
    assert steps < 0.6 * cycles


def hooked(stepping):
    """Cycles at which a 7-cycle sampler and a 13-cycle hook fire."""
    simulator, _steps = build("mcf", "fdrt", None, stepping)
    pipeline = simulator.pipeline
    fired = []
    simulator.progress(
        lambda p: fired.append((p.now, p.stats.cycles, p.stats.retired)),
        every=13)
    recorder = IntervalRecorder(interval_cycles=7)
    with recorder.attach(pipeline):
        simulator.warmup(WARMUP)
        recorder.rebase()
        simulator.run(MEASURE)
    return fired, list(recorder.windows), pipeline.now


def test_sampler_and_progress_hook_fire_at_the_same_cycles():
    fast = hooked(stepping=False)
    slow = hooked(stepping=True)
    assert fast[0] and fast[1]
    assert fast == slow


def deadlock(stepping):
    """Cycle and message of the watchdog on a pipeline that never
    completes anything after its first 100 retirements."""
    simulator, _steps = build("gzip", "base", None, stepping)
    pipeline = simulator.pipeline
    pipeline.run(100)
    dispatch = pipeline._on_dispatch

    def never_complete(inst, fu, now):
        dispatch(inst, fu, now)
        inst.complete_cycle = 10 ** 9

    pipeline._on_dispatch = never_complete
    for inst in pipeline.rob:
        if inst.complete_cycle >= 0:
            inst.complete_cycle = 10 ** 9
    with pytest.raises(RuntimeError) as raised:
        pipeline.run(10 ** 6)
    return str(raised.value), pipeline.now, pipeline.stats.cycles


def test_watchdog_trips_at_the_same_cycle():
    fast = deadlock(stepping=False)
    assert fast == deadlock(stepping=True)
    assert "deadlock" in fast[0]


def test_profiler_counts_simulated_cycles():
    def run(profiled):
        simulator, steps = build("mcf", "base", None, stepping=False)
        profiler = PhaseProfiler(sample_cycles=0)
        if profiled:
            profiler.attach(simulator.pipeline)
        result = simulator.run(MEASURE)
        return json.dumps(result.to_dict(), sort_keys=True), profiler, \
            simulator.pipeline.stats.cycles, steps[0]

    plain, _unused, _cycles, _steps = run(profiled=False)
    text, profiler, cycles, steps = run(profiled=True)
    assert text == plain
    assert steps < cycles
    assert profiler.steps == cycles
    assert profiler.cycles_per_second > 0
