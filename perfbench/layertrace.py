"""Layer spans and work counts, taken from outside the simulator.

Nothing here edits the program.  :func:`instrumented` swaps wrappers in
for the public methods each layer exposes: on the objects a
:class:`~repro.core.pipeline.Pipeline` builds (instance attributes, which
the pipeline's own ``self.x.method(...)`` calls find first), and on the
classes whose instances cannot take one (``CycleAccounting``) or are not
built by a pipeline (``SimJob``, ``ResultCache``, ``ExperimentEngine``).
Every patch is undone when the ``with`` block exits, so untraced runs
in the same process execute the unmodified code.

Times and counts are taken in separate rounds.  A :class:`SpanTimer`
round wraps each entry point in a timer and nothing else, so no span
contains the cost of counting.  A :class:`WorkCounter` round wraps the
same entry points in call counters, adds the layer work counters (polls,
rejects, installs, hits), and reads no clock.  Both aggregate in memory
as spans close: storing one record per span would cost more than the
millions of per-cycle calls being measured.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Tuple, Union

import repro.core.simulator as simulator_module
from repro.core.accounting import CycleAccounting
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExperimentEngine
from repro.runtime.job import SimJob


class SpanTimer:
    """Nested span timer: self time per span name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        # Time covered by child spans, one slot per open span.
        self._open: List[float] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name``; nesting follows the call stack."""
        open_spans = self._open
        self_s = self.self_s
        clock = time.perf_counter

        def timed(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration

        return timed


class WorkCounter:
    """Calls per span name, plus work counts at the layer boundaries."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        #: Polls, rejects, installs, cache hits, ...
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted under span ``name``."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted


Probe = Union[SpanTimer, WorkCounter]

#: Spans named with this prefix time the benchmark's own work.
BENCH_PREFIX = "bench."


def instrument_pipeline(pipeline, probe: Probe) -> None:
    """Wrap the layer entry points of one freshly built pipeline."""
    wrap = probe.wrap
    pipeline.step = wrap("core.step", pipeline.step)
    fetch_engine = pipeline.fetch_engine
    fetch_engine.fetch = wrap("core.fetch", fetch_engine.fetch)
    # The functional model has no handle but the stream cursor's.
    source = pipeline.cursor._source
    source.step = wrap("workloads.functional_step", source.step)
    for cluster in pipeline.clusters:
        cluster.dispatch_cycle = wrap("cluster.dispatch",
                                      cluster.dispatch_cycle)
        cluster.accept = wrap("cluster.accept", cluster.accept)
    strategy = pipeline.strategy
    strategy.reorder = wrap("assign.reorder", strategy.reorder)
    if pipeline.steerer is not None:
        pipeline.steerer.steer = wrap("assign.steer", pipeline.steerer.steer)
    fill_unit = pipeline.fill_unit
    fill_unit.retire = wrap("tracecache.fill_retire", fill_unit.retire)
    fill_unit.tick = wrap("tracecache.fill_tick", fill_unit.tick)
    memory = pipeline.memory
    memory.data_access = wrap("memory.data_access", memory.data_access)
    if isinstance(probe, WorkCounter):
        _count_work(pipeline, probe.counts)


def _count_work(pipeline, counts: Counter) -> None:
    """Count the work inside the wrapped entry points (no clock is read)."""
    fetch_engine = pipeline.fetch_engine
    fetch = fetch_engine.fetch

    def counted_fetch(now):
        packet, delay = fetch(now)
        if packet:
            counts["fetched_insts"] += len(packet)
        else:
            counts["empty_fetches"] += 1
        return packet, delay

    fetch_engine.fetch = counted_fetch
    trace_cache = pipeline.trace_cache
    insert = trace_cache.insert

    def counted_insert(line):
        counts["lines_installed"] += 1
        return insert(line)

    trace_cache.insert = counted_insert
    for cluster in pipeline.clusters:
        _count_cluster_work(cluster, counts)


def _count_cluster_work(cluster, counts: Counter) -> None:
    dispatch_cycle = cluster.dispatch_cycle
    accept = cluster.accept

    def counted_dispatch(now, is_ready, on_dispatch):
        counts["rs_occupancy"] += cluster.occupancy

        def polled(inst, when):
            counts["ready_polls"] += 1
            return is_ready(inst, when)

        dispatched = dispatch_cycle(now, polled, on_dispatch)
        counts["dispatches"] += dispatched
        return dispatched

    def counted_accept(inst, now):
        accepted = accept(inst, now)
        if not accepted:
            counts["accept_rejects"] += 1
        return accepted

    cluster.dispatch_cycle = counted_dispatch
    cluster.accept = counted_accept


@contextlib.contextmanager
def instrumented(probe: Probe) -> Iterator[Probe]:
    """Trace every layer of every simulation started inside the block."""
    wrap = probe.wrap
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # Construction is timed on its own.  Installing the wrappers is a
    # span of the benchmark's, so no program span (core.construct, or
    # runtime.job_run around it) holds its time.
    build_pipeline = wrap("core.construct", simulator_module.Pipeline)
    install = wrap(BENCH_PREFIX + "instrument", instrument_pipeline)

    def traced_pipeline(*args, **kwargs):
        pipeline = build_pipeline(*args, **kwargs)
        install(pipeline, probe)
        return pipeline

    load = wrap("runtime.cache_load", ResultCache.load)
    if isinstance(probe, WorkCounter):
        counts = probe.counts
        wrapped_load = load

        def load(cache, job):
            result = wrapped_load(cache, job)
            counts["cache_loads"] += 1
            if result is not None:
                counts["cache_hits"] += 1
            return result

    try:
        patch(simulator_module, "generate_program",
              wrap("workloads.generate", simulator_module.generate_program))
        patch(simulator_module, "Pipeline", traced_pipeline)
        # CycleAccounting has __slots__, so its method is wrapped on the
        # class rather than on the pipeline's instance.
        patch(CycleAccounting, "observe",
              wrap("core.accounting_observe", CycleAccounting.observe))
        patch(SimJob, "key", property(wrap("runtime.job_key",
                                            SimJob.__dict__["key"].fget)))
        patch(SimJob, "run", wrap("runtime.job_run", SimJob.run))
        patch(ResultCache, "load", load)
        patch(ResultCache, "store",
              wrap("runtime.cache_store", ResultCache.store))
        patch(ExperimentEngine, "run",
              wrap("runtime.engine", ExperimentEngine.run))
        yield probe
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
