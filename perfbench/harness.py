"""Workloads, timed rounds, per-operation checks and metrics.

A *round* runs every cell of a workload once, cold; on ``engine_sweep``
it then answers the same cells from the warm result cache.  A run
repeats rounds until its time is up and reports the median round, so
one slow round (a host hiccup) moves no metric.  End-to-end times are
reference seconds: host seconds scaled by a reference loop timed between
the measured steps (hostspeed.py), so drift in the host's speed that is
slower than a step moves no metric either.  Every cell and every
warm load is one operation; an operation whose result fails a check
counts as failed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.accounting import CYCLE_LOSS_CATEGORIES
from repro.core.simulator import SimResult, Simulator
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExperimentEngine
from repro.runtime.job import SimJob
from repro.workloads.profiles import all_profiles

from hostspeed import HostSpeed
from layertrace import BENCH_PREFIX, SpanTimer, WorkCounter, instrumented

#: Seed used when none is given.
DEFAULT_SEED = 1
#: Seed never used while tuning the benchmark or a change: a claimed gain
#: must also hold on it.
HELDOUT_SEED = 29

#: A run makes at least this many rounds, however short ``--seconds``.
MIN_ROUNDS = 3
#: A traced run makes at least this many timed and counted rounds each, so
#: that the work counts can be seen to repeat.
MIN_TRACED_ROUNDS = 2
#: Warm passes over every cell per ``engine_sweep`` round.
WARM_PASSES = 4
#: Jobs per ``engine.run`` call in ``engine_sweep``'s cold pass, and per
#: timed step of its extra construction; the host's speed is sampled
#: between steps.
ENGINE_CHUNK = 8
#: Result-cache fan-out, pinned so the caller's environment cannot move it.
CACHE_SHARDS = 16


@dataclasses.dataclass(frozen=True)
class Workload:
    """A fixed set of cells and how they are driven."""

    name: str
    benchmarks: Tuple[str, ...]
    kinds: Tuple[str, ...]
    instructions: int
    warmup: int
    #: Run the cells through an inline ``ExperimentEngine`` on a fresh
    #: cache rather than calling ``Simulator`` directly.
    through_engine: bool = False

    def jobs(self, seed: int) -> List[SimJob]:
        """The workload's cells; ``seed`` reaches the simulator only here."""
        config = MachineConfig()
        return [
            SimJob(benchmark=benchmark, spec=StrategySpec(kind=kind),
                   config=config, instructions=self.instructions,
                   warmup=self.warmup, seed=seed)
            for benchmark in self.benchmarks
            for kind in self.kinds
        ]


# Why each workload exists is written up in README.md.  The three
# simulator workloads keep BENCH_7.json's budgets (8000 measured after a
# 4000-instruction warmup); engine_sweep has no warmup so that its
# SimResults count every simulated instruction and cycle exactly.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Retire-time FDRT reorder, as in BENCH_7.json.
        Workload("fdrt_reorder", ("gzip", "twolf"), ("fdrt",), 8000, 4000),
        # Memory-bound Base cells: full reservation stations, heavy polling.
        Workload("base_memwait", ("mcf", "pegwit_enc"), ("base",),
                 8000, 4000),
        # High-IPC MediaBench cells under issue-time steering.
        Workload("issue_media", ("adpcm_enc", "jpeg_enc"), ("issue",),
                 8000, 4000),
        # Every profile x strategy through the engine, cold then warm.
        Workload("engine_sweep", tuple(sorted(all_profiles())),
                 ("base", "fdrt", "friendly", "issue"), 500, 0,
                 through_engine=True),
    )
}


# ----------------------------------------------------------------------
# Metric catalogue: (name, unit, better).
# ----------------------------------------------------------------------
END_TO_END = (
    ("sim_kinst_per_s", "kinst/s", "higher"),
    ("sim_kcyc_per_s", "kcyc/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cold_jobs_per_s", "jobs/s", "higher"),
)

#: Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "cluster.dispatch": "cluster.dispatch_s",
    "cluster.accept": "cluster.accept_s",
    "assign.reorder": "assign.reorder_s",
    "assign.steer": "assign.steer_s",
    "tracecache.fill_retire": "tracecache.fill_retire_s",
    "tracecache.fill_tick": "tracecache.fill_tick_s",
    "core.step": "core.step_self_s",
    "core.construct": "core.construct_s",
    "core.accounting_observe": "core.accounting_observe_s",
    "core.fetch": "core.fetch_s",
    "memory.data_access": "memory.data_access_s",
    "workloads.generate": "workloads.generate_s",
    "workloads.functional_step": "workloads.functional_step_s",
    "runtime.job_key": "runtime.job_key_s",
    "runtime.cache_load": "runtime.cache_load_s",
    "runtime.cache_store": "runtime.cache_store_s",
    "runtime.engine": "runtime.engine_self_s",
    "runtime.job_run": "runtime.job_run_s",
}

#: Root span of a traced round; its self time is what no layer covers.
ROUND_SPAN = BENCH_PREFIX + "round"

PER_LAYER = (
    tuple((metric, "s", "lower") for metric in SPAN_METRICS.values())
    + (
        ("core.cycles", "count", "lower"),
        ("core.insts", "count", "lower"),
        ("cluster.ready_polls_per_cycle", "1/cycle", "lower"),
        ("cluster.dispatches_per_poll", "ratio", "higher"),
        ("cluster.accept_rejects_per_kinst", "1/kinst", "lower"),
        ("cluster.rs_occupancy_mean", "insts", "lower"),
        ("assign.reorder_calls", "count", "lower"),
        ("assign.steer_calls", "count", "lower"),
        ("tracecache.lines_per_kinst", "1/kinst", "lower"),
        ("core.fetch_empty_frac", "ratio", "lower"),
        ("core.insts_per_packet", "insts", "higher"),
        ("memory.accesses_per_kinst", "1/kinst", "lower"),
        ("runtime.cache_hit_rate", "ratio", "higher"),
        ("runtime.warm_jobs_per_s", "jobs/s", "higher"),
        ("sim.ipc", "inst/cycle", "higher"),
        ("sim.tc_hit_rate", "ratio", "higher"),
        ("sim.l1d_hit_rate", "ratio", "higher"),
        ("sim.pct_intra_cluster_forwarding", "ratio", "higher"),
        ("sim.fill_migration_rate", "ratio", "lower"),
    )
    + tuple((f"sim.cpi_loss.{category}", "cycle/inst", "lower")
            for category in CYCLE_LOSS_CATEGORIES)
    + (
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
        ("host.reference_s", "s", "lower"),
    )
)


# ----------------------------------------------------------------------
# Rounds.
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Round:
    """What one pass over a workload's cells measured."""

    #: Set-up, job and simulation times are in reference seconds (see
    #: hostspeed.py) in untraced rounds and in host seconds in traced ones.
    setup_s: float = 0.0
    #: Seconds until every cell had its cold result.
    jobs_s: float = 0.0
    #: Seconds of simulation the instruction/cycle rates divide by.
    sim_s: float = 0.0
    #: Host seconds of each warm pass over every cell.
    warm_pass_s: List[float] = dataclasses.field(default_factory=list)
    insts: int = 0
    cycles: int = 0
    #: Host seconds of the round, less ``engine_sweep``'s extra
    #: construction for ``setup_s`` and the host-speed samples.
    wall_s: float = 0.0
    results: List[SimResult] = dataclasses.field(default_factory=list)
    warmup_retired: List[Optional[int]] = dataclasses.field(
        default_factory=list)
    #: Cache hits seen by the cold pass (any is a stale-cache leak).
    cold_hits: int = 0
    #: Results of each warm pass, with the cache hits the engine reported
    #: for it; dropped once checked.
    warm_passes: List[Tuple[List[Optional[SimResult]], int]] = (
        dataclasses.field(default_factory=list))
    #: Why a cell has no result, by cell index.
    errors: Dict[int, str] = dataclasses.field(default_factory=dict)


def make_engine(cache_root: str) -> ExperimentEngine:
    """An inline engine on a private cache: no pool, server or telemetry."""
    cache = ResultCache(root=cache_root, enabled=True, shards=CACHE_SHARDS,
                        remote=False)
    # keep_going: a quarantined job leaves None, a failed operation,
    # rather than ending the run without a result.
    return ExperimentEngine(jobs=1, cache=cache, retries=0, keep_going=True,
                            telemetry=None, serve=None, heartbeat_cycles=0,
                            backoff=0.0)


def _engine_pass(engine: ExperimentEngine, jobs: Sequence[SimJob]
                 ) -> Tuple[List[Optional[SimResult]], Dict[int, str], int]:
    """One ``engine.run``: results, why each missing one is missing, and
    how many the cache answered.

    The engine lets an exception raised by a simulation propagate, which
    ends its pass; every cell of that pass then counts as failed.
    """
    try:
        results = engine.run(jobs)
    except Exception as exc:
        reason = f"engine pass raised {type(exc).__name__}: {exc}"
        return ([None] * len(jobs), dict.fromkeys(range(len(jobs)), reason),
                0)
    report = engine.report
    return (results, {failure["index"]: failure["reason"]
                      for failure in report.failures}, report.cache_hits)


def _warm_passes(engine: ExperimentEngine, jobs: Sequence[SimJob],
                 measured: Round) -> None:
    clock = time.perf_counter
    for _ in range(WARM_PASSES):
        start = clock()
        results, _, hits = _engine_pass(engine, jobs)
        measured.warm_pass_s.append(clock() - start)
        measured.warm_passes.append((results, hits))


def _direct_round(jobs: Sequence[SimJob], scale) -> Round:
    measured = Round()
    clock = time.perf_counter
    for index, job in enumerate(jobs):
        start = built = clock()
        try:
            simulator = Simulator(job.benchmark, job.spec, job.config,
                                  seed=job.seed)
            built = clock()
            # Simulator.warmup, split so the warmup's retired count is seen.
            pipeline = simulator.pipeline
            pipeline.run(job.warmup)
            warmed = pipeline.stats.retired
            pipeline.reset_stats()
            result = simulator.run(job.instructions)
        except Exception as exc:  # a failed operation, not a failed run
            measured.errors[index] = f"{type(exc).__name__}: {exc}"
            result, warmed = None, None
        else:
            measured.insts += warmed + result.retired
            measured.cycles += pipeline.now
        done = clock()
        factor = scale()
        measured.setup_s += (built - start) * factor
        measured.sim_s += (done - built) * factor
        measured.wall_s += done - start
        measured.results.append(result)
        measured.warmup_retired.append(warmed)
    measured.jobs_s = measured.setup_s + measured.sim_s
    return measured


def _chunks(jobs: Sequence[SimJob]) -> List[Sequence[SimJob]]:
    return [jobs[i:i + ENGINE_CHUNK] for i in range(0, len(jobs),
                                                    ENGINE_CHUNK)]


def _engine_round(jobs: Sequence[SimJob], work_dir: str, prebuild: bool,
                  scale) -> Round:
    measured = Round()
    clock = time.perf_counter
    with tempfile.TemporaryDirectory(dir=work_dir) as root:
        if prebuild:
            # The engine builds each cell's simulator inside its cold pass,
            # where the construction cannot be timed apart from the run;
            # the same constructions are timed here, ahead of it.  The
            # engine builds them again, so this is not part of the round's
            # wall time.
            for chunk in _chunks(jobs):
                start = clock()
                for job in chunk:
                    Simulator(job.benchmark, job.spec, job.config,
                              seed=job.seed)
                measured.setup_s += (clock() - start) * scale()
        start = clock()
        engine = make_engine(root)
        built = clock()
        measured.wall_s += built - start
        measured.setup_s += (built - start) * scale()
        # The cold pass runs in chunks so that the host's speed is
        # sampled every few jobs; no chunk's cells are in the cache yet,
        # so every chunk is cold.
        results: List[Optional[SimResult]] = []
        for chunk in _chunks(jobs):
            start = clock()
            chunk_results, errors, hits = _engine_pass(engine, chunk)
            done = clock()
            measured.wall_s += done - start
            measured.jobs_s += (done - start) * scale()
            measured.errors.update((len(results) + index, reason)
                                   for index, reason in errors.items())
            measured.cold_hits += hits
            results.extend(chunk_results)
        measured.sim_s = measured.jobs_s
        measured.results = results
        measured.warmup_retired = [None] * len(jobs)
        measured.insts = sum(r.retired for r in results if r is not None)
        measured.cycles = sum(r.cycles for r in results if r is not None)
        start = clock()
        _warm_passes(engine, jobs, measured)
        measured.wall_s += clock() - start
    return measured


def run_round(workload: Workload, jobs: Sequence[SimJob], work_dir: str,
              speed: Optional[HostSpeed] = None) -> Round:
    """One pass over ``jobs``: cold, then warm on an engine workload.

    With ``speed``, the round's set-up and job times are in reference
    seconds, scaled by samples taken between its steps, and
    ``engine_sweep`` builds every cell once more ahead of its cold pass,
    only to time ``setup_s``.  Without it (traced rounds) times are host
    seconds and the extra construction is left out, so the layer figures
    are the program's own.
    """
    scale = speed.scale if speed is not None else _unscaled
    if workload.through_engine:
        return _engine_round(jobs, work_dir, speed is not None, scale)
    return _direct_round(jobs, scale)


def _unscaled() -> float:
    return 1.0


# ----------------------------------------------------------------------
# Checks.
# ----------------------------------------------------------------------
def canonical(result: SimResult) -> str:
    """Byte-exact text form of a result (sorted keys, no spaces)."""
    return json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def digest(results: Sequence[SimResult]) -> str:
    """SHA-256 over the canonical forms of ``results``, in cell order."""
    text = "\n".join(canonical(result) if result is not None else "null"
                     for result in results)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultChecker:
    """Per-operation checks; remembers each cell's first result in a run."""

    def __init__(self) -> None:
        self._first: Dict[int, str] = {}

    def check(self, index: int, job: SimJob, result: Optional[SimResult],
              warmup_retired: Optional[int] = None) -> List[str]:
        """Problems with cell ``index``'s ``result`` (empty when sound)."""
        if result is None:
            return ["no result"]
        problems = []
        lost = sum(slots for per_cluster in result.cycle_accounting.values()
                   for slots in per_cluster.values())
        if lost != result.width * result.cycles - result.retired:
            problems.append(
                f"accounting sums to {lost}, not width*cycles-retired = "
                f"{result.width * result.cycles - result.retired}")
        if not job.instructions <= result.retired < (
                job.instructions + result.width):
            problems.append(f"retired {result.retired} for a budget of "
                            f"{job.instructions}")
        if warmup_retired is not None and not job.warmup <= warmup_retired < (
                job.warmup + result.width):
            problems.append(f"warmup retired {warmup_retired} for a budget "
                            f"of {job.warmup}")
        text = canonical(result)
        if SimResult.from_dict(json.loads(text)) != result:
            problems.append("to_dict/JSON/from_dict round trip differs")
        first = self._first.setdefault(index, text)
        if text != first:
            problems.append("differs from this cell's first result")
        return problems


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed over a run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.problems.append(reason)


def check_round(measured: Round, jobs: Sequence[SimJob],
                checker: ResultChecker, tally: Tally) -> None:
    """Check every cold cell and warm load of one round."""
    texts = []
    for index, job in enumerate(jobs):
        result = measured.results[index]
        tally.attempted += 1
        problems = checker.check(index, job, result,
                                 measured.warmup_retired[index])
        if index in measured.errors:
            problems.append(measured.errors[index])
        if problems:
            tally.fail(1, f"{job.label}: {'; '.join(problems)}")
        texts.append(canonical(result) if result is not None else None)
    if measured.cold_hits:
        tally.fail(measured.cold_hits,
                   f"cold pass served {measured.cold_hits} cells from cache")
    for results, hits in measured.warm_passes:
        tally.attempted += len(results)
        differ = [jobs[index].label for index, result in enumerate(results)
                  if result is None or canonical(result) != texts[index]]
        misses = len(results) - hits
        # A load that both missed and differs is one failed operation.
        if differ or misses:
            tally.fail(max(len(differ), misses),
                       f"warm pass: {misses} cache misses; results that "
                       f"differ from cold: {', '.join(differ) or 'none'}")
    # Kept results would grow the heap, and so the collector's work, from
    # round to round.
    measured.warm_passes = []


# ----------------------------------------------------------------------
# Runs.
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Report:
    """What one run prints."""

    tally: Tally
    metrics: Dict[str, float]
    digest: str
    rounds: int


def end_to_end_metrics(rounds: Sequence[Round], cells: int) -> Dict[str, float]:
    """Median over rounds of each end-to-end metric."""
    median = statistics.median
    return {
        "sim_kinst_per_s": median(_ratio(r.insts, r.sim_s) / 1e3
                                  for r in rounds),
        "sim_kcyc_per_s": median(_ratio(r.cycles, r.sim_s) / 1e3
                                 for r in rounds),
        "setup_s": median(r.setup_s for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
        "cold_jobs_per_s": median(_ratio(cells, r.jobs_s) for r in rounds),
    }


def warm_jobs_per_s(rounds: Sequence[Round], cells: int) -> float:
    """Cells per second from a warm cache: median over every warm pass.

    Not an end-to-end metric: every cache hit rewrites the cache's stats
    file, and on the machine where the bounds were set the file system's
    latency swung this rate by more than the largest bound allowed.
    """
    passes = [s for r in rounds for s in r.warm_pass_s]
    return cells / statistics.median(passes) if passes else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclasses.dataclass
class Rounds:
    """Every round of one run, with what was checked over them."""

    jobs: List[SimJob]
    tally: Tally
    plain: List[Round]
    timed: List[Tuple[Round, SpanTimer]]
    counted: List[Tuple[Round, WorkCounter]]
    speed: HostSpeed


def _probed_round(workload: Workload, jobs: Sequence[SimJob], work_dir: str,
                  probe) -> Round:
    with instrumented(probe):
        return probe.wrap(ROUND_SPAN, run_round)(workload, jobs, work_dir)


def _run_rounds(workload: Workload, seed: int, seconds: float,
                work_dir: str, traced: bool) -> Rounds:
    """Rounds until ``seconds`` have passed; traced runs add a timed and a
    counted round after each untraced one."""
    jobs = workload.jobs(seed)
    checker = ResultChecker()
    run = Rounds(jobs, Tally(), [], [], [], HostSpeed())
    clock = time.perf_counter
    start = clock()
    while True:
        measured = run_round(workload, jobs, work_dir, run.speed)
        check_round(measured, jobs, checker, run.tally)
        run.plain.append(measured)
        # Every round starts from a collected heap, so garbage left by
        # the last one neither slows it nor raises the peak.
        gc.collect()
        if traced:
            for probe, probed in ((SpanTimer(), run.timed),
                                  (WorkCounter(), run.counted)):
                measured = _probed_round(workload, jobs, work_dir, probe)
                check_round(measured, jobs, checker, run.tally)
                probed.append((measured, probe))
                gc.collect()
            enough = len(run.timed) >= MIN_TRACED_ROUNDS
        else:
            enough = len(run.plain) >= MIN_ROUNDS
        if enough and clock() - start >= seconds:
            return run


def measure(workload: Workload, seed: int, seconds: float,
            work_dir: str) -> Report:
    """Untraced run: end-to-end metrics, medians over rounds."""
    run = _run_rounds(workload, seed, seconds, work_dir, traced=False)
    return Report(run.tally, end_to_end_metrics(run.plain, len(run.jobs)),
                  digest(run.plain[0].results), len(run.plain))


def work_counts(counter: WorkCounter) -> Dict[str, int]:
    """The exact counts of a counted round: span calls plus layer counts."""
    counts = {f"calls.{name}": calls for name, calls in counter.calls.items()}
    counts.update(counter.counts)
    return counts


def time_metrics(timer: SpanTimer) -> Dict[str, float]:
    """Per-layer self times of one timed round."""
    self_s = timer.self_s
    metrics = {metric: self_s.get(span, 0.0)
               for span, metric in SPAN_METRICS.items()}
    metrics["trace.unattributed_frac"] = _ratio(
        sum(seconds for span, seconds in self_s.items()
            if span.startswith(BENCH_PREFIX)),
        sum(self_s.values()))
    return metrics


def count_metrics(counter: WorkCounter) -> Dict[str, float]:
    """Per-layer work counts, and ratios of them, of one counted round."""
    calls = counter.calls
    counts = counter.counts
    cycles = calls["core.step"]
    insts = calls["tracecache.fill_retire"]
    kinst = insts / 1e3
    polls = counts["ready_polls"]
    fetches = calls["core.fetch"]
    packets = fetches - counts["empty_fetches"]
    return {
        "core.cycles": cycles,
        "core.insts": insts,
        "cluster.ready_polls_per_cycle": _ratio(polls, cycles),
        "cluster.dispatches_per_poll": _ratio(counts["dispatches"], polls),
        "cluster.accept_rejects_per_kinst": _ratio(
            counts["accept_rejects"], kinst),
        "cluster.rs_occupancy_mean": _ratio(counts["rs_occupancy"], cycles),
        "assign.reorder_calls": calls["assign.reorder"],
        "assign.steer_calls": calls["assign.steer"],
        "tracecache.lines_per_kinst": _ratio(
            counts["lines_installed"], kinst),
        "core.fetch_empty_frac": _ratio(counts["empty_fetches"], fetches),
        "core.insts_per_packet": _ratio(counts["fetched_insts"], packets),
        "memory.accesses_per_kinst": _ratio(
            calls["memory.data_access"], kinst),
        "runtime.cache_hit_rate": _ratio(counts["cache_hits"],
                                         counts["cache_loads"]),
    }


def simulated_metrics(results: Sequence[Optional[SimResult]]
                      ) -> Dict[str, float]:
    """Exact simulated statistics, pooled over a workload's cells.

    IPC and the CPI stack pool cycles, instructions and lost slots; the
    rates are plain means over cells.  ``1/width`` plus the
    ``sim.cpi_loss.*`` terms is the pooled CPI exactly.  Cells without a
    result (already counted as failed) are left out.
    """
    results = [r for r in results if r is not None]
    if not results:
        return {}
    retired = sum(r.retired for r in results)
    cycles = sum(r.cycles for r in results)
    lost = {category: 0 for category in CYCLE_LOSS_CATEGORIES}
    for result in results:
        for per_cluster in result.cycle_accounting.values():
            for category, slots in per_cluster.items():
                lost[category] += slots
    width = results[0].width

    def mean(field: str) -> float:
        return statistics.fmean(getattr(r, field) for r in results)

    metrics = {
        "sim.ipc": _ratio(retired, cycles),
        "sim.tc_hit_rate": mean("tc_hit_rate"),
        "sim.l1d_hit_rate": mean("l1d_hit_rate"),
        "sim.pct_intra_cluster_forwarding": mean(
            "pct_intra_cluster_forwarding"),
        "sim.fill_migration_rate": mean("fill_migration_rate"),
    }
    for category, slots in lost.items():
        metrics[f"sim.cpi_loss.{category}"] = _ratio(slots, width * retired)
    return metrics


def measure_traced(workload: Workload, seed: int, seconds: float,
                   work_dir: str) -> Report:
    """Traced run: untraced, timed and counted rounds take turns.

    Times are medians over the timed rounds, whose wrappers read the
    clock and do nothing else.  Counts come from the first counted round,
    whose wrappers count and read no clock, and must repeat exactly in
    the others.  Every traced cell is checked byte-identical to the first
    untraced round's, so the digest of the traced results, which this
    reports, equals the untraced digest.  The overhead is the timed
    round's wall time over the untraced one's, minus one.
    """
    run = _run_rounds(workload, seed, seconds, work_dir, traced=True)
    first_counts = work_counts(run.counted[0][1])
    for _, counter in run.counted[1:]:
        if work_counts(counter) != first_counts:
            run.tally.fail(len(run.jobs),
                           "work counts differ between counted rounds")
    # A workload whose every cell failed has no simulated statistics.
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    per_round = [time_metrics(timer) for _, timer in run.timed]
    metrics.update({name: statistics.median(m[name] for m in per_round)
                    for name in per_round[0]})
    metrics.update(count_metrics(run.counted[0][1]))
    metrics.update(simulated_metrics(run.timed[0][0].results))
    metrics["runtime.warm_jobs_per_s"] = warm_jobs_per_s(run.plain,
                                                         len(run.jobs))
    metrics["host.reference_s"] = statistics.median(run.speed.samples)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r, _ in run.timed)
        / statistics.median(r.wall_s for r in run.plain) - 1.0)
    return Report(run.tally, metrics, digest(run.timed[0][0].results),
                  len(run.timed))
