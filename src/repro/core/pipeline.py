"""Cycle-level timing model of the clustered trace cache processor.

One :class:`Pipeline` instance simulates the paper's Figure 2 pipeline:

    fetch(3) -> decode -> rename -> issue/steer -> RS dispatch -> execute
    -> writeback/forward -> retire -> fill unit

Modelling decisions (each mirrors the paper or is a standard trace-driven
approximation, see DESIGN.md):

* Trace-driven correct-path execution: mispredicted branches stall fetch
  until they resolve plus a redirect penalty instead of executing
  wrong-path instructions.
* Renaming links each source operand to its in-flight producer.  At issue
  the operand is classified *forwarded* (producer not yet retired) or
  *register file* (value already architectural, ready ``rf_latency``
  cycles after issue).
* An instruction wakes up in its cluster when every operand has arrived:
  forwarded values arrive ``hop_latency x distance`` cycles after the
  producer completes (zero within the cluster).  The operand arriving
  last is the **critical input** on which all of the paper's forwarding
  statistics are computed.  Wake-up is event-driven: an entry still
  waiting for a producer is parked on that producer's dependents and
  re-examined when it dispatches; one whose wake-up time is known sleeps
  in its cluster's calendar until that cycle.
* Loads do not pass older stores with unresolved addresses (no
  speculative disambiguation), stores complete into the store buffer, and
  loads may forward from it.  A load held back by an older store is
  parked until a store dispatch makes it the oldest.
* The cycle loop fast-forwards over *quiet* cycles, in which no stage can
  act: nothing retires, no reservation-station entry is awake or due in
  a calendar, no fill line is due, the front-end head cannot issue, and
  fetch is stalled or the front end is full.  Each stage reports the
  earliest cycle in which it could act, and :meth:`Pipeline.run` jumps
  straight to the earliest of them, booking the skipped cycles (cycle
  count and cycle accounting) in one batch.  A skipped cycle would have
  changed nothing else, so results are byte-identical to stepping every
  cycle.  :meth:`Pipeline.step` still simulates exactly one cycle.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.assign.base import AssignmentContext, StrategySpec, make_strategy
from repro.assign.issue_time import IssueTimeSteering
from repro.cluster.cluster import Cluster
from repro.cluster.config import MachineConfig
from repro.cluster.interconnect import Interconnect
from repro.core.accounting import CycleAccounting
from repro.core.fetch import FetchEngine, StreamCursor
from repro.core.stats import SimStats
from repro.isa import NEVER, DynInst
from repro.isa.instruction import LeaderFollower
from repro.isa.registers import RegisterFile
from repro.memory.hierarchy import MemoryHierarchy
from repro.tracecache.fill_unit import FillUnit
from repro.tracecache.trace_cache import TraceCache
from repro.workloads.execution import FunctionalSimulator
from repro.workloads.program import Program

#: Cycles without a retirement before the simulator declares deadlock.
_WATCHDOG_CYCLES = 50_000


def _last_arrival(arrivals: List[int]) -> int:
    """Index of the latest of one or two operand arrivals (first on a tie)."""
    return 1 if len(arrivals) > 1 and arrivals[1] > arrivals[0] else 0


class Pipeline:
    """The assembled CTCP timing simulator."""

    def __init__(
        self,
        program: Program,
        config: MachineConfig,
        spec: StrategySpec,
        seed: Optional[int] = None,
    ) -> None:
        self.program = program
        self.config = config
        self.spec = spec
        self.stats = SimStats()
        self.interconnect = Interconnect(config)
        self.context = AssignmentContext(config, self.interconnect)
        self.memory = MemoryHierarchy(
            perfect=config.perfect_dcache,
            l1_size=config.l1d_size,
            l1_assoc=config.l1d_assoc,
            l1_latency=config.l1d_latency,
            l2_size=config.l2_size,
            l2_assoc=config.l2_assoc,
            l2_latency=config.l2_latency,
            memory_latency=config.memory_latency,
            mshrs=config.mshrs,
            dcache_ports=config.dcache_ports,
            tlb_entries=config.tlb_entries,
            tlb_assoc=config.tlb_assoc,
            tlb_miss_latency=config.tlb_miss_latency,
            store_buffer_entries=config.store_buffer_entries,
            load_queue_entries=config.load_queue_entries,
        )
        self.trace_cache = TraceCache(
            config.tc_entries, config.tc_assoc, config.tc_latency
        )
        self.strategy = make_strategy(spec, self.context)
        self.fill_unit = FillUnit(config, self.trace_cache, self.strategy)
        functional = FunctionalSimulator(program, seed=seed)
        self.cursor = StreamCursor(functional)
        self.fetch_engine = FetchEngine(
            config, self.cursor, self.trace_cache, self.memory.l2, self.stats
        )
        self.steerer = (
            IssueTimeSteering(self.context) if spec.kind == "issue" else None
        )
        self.clusters = [
            Cluster(i, config.rs_entries, config.rs_write_ports)
            for i in range(config.num_clusters)
        ]
        self.regfile = RegisterFile()
        #: Optional :class:`repro.obs.tracer.PipelineObserver`.  ``None``
        #: (the default) keeps the hot paths at one attribute test per
        #: event; attach via ``observer.attach(pipeline)``.
        self.observer = None
        #: Optional :class:`repro.obs.profiler.PhaseProfiler` timing the
        #: step phases; same ``is not None`` fast path as ``observer``.
        self.profiler = None
        #: Optional in-run progress hook ``hook(pipeline)`` invoked every
        #: ``progress_interval`` cycles inside :meth:`run` (e.g. a
        #: :class:`repro.obs.heartbeat.HeartbeatWriter`).  Hooks must
        #: only *read* pipeline state: results stay byte-identical with
        #: a hook installed or not.
        self.progress_hook = None
        self.progress_interval = 0
        self._next_progress = 0
        #: Optional interval sampler ``sampler(pipeline)`` invoked every
        #: ``sample_interval`` cycles inside :meth:`run` (an
        #: :class:`repro.obs.timeseries.IntervalRecorder`).  Read-only,
        #: same ``is not None`` fast path as ``progress_hook``.
        self.sampler = None
        self.sample_interval = 0
        self._next_sample = 0
        #: Always-on top-down cycle-loss attribution (read-only over the
        #: machine state, so it cannot perturb timing).
        self.accounting = CycleAccounting(config.width)
        self.rob: Deque[DynInst] = deque()
        self.frontend: Deque[Tuple[int, DynInst]] = deque()
        self._pending_stores: List[Tuple[int, DynInst]] = []
        #: Loads parked behind an older pending store, by ``seq``.
        self._parked_loads: List[Tuple[int, DynInst]] = []
        self._inflight_stores = 0
        #: Chain-formation confidence: observations per candidate leader pc.
        self._chain_observations: Dict[int, int] = {}
        self.now = 0
        self._last_retire_cycle = 0
        self._frontend_depth = (
            config.fetch_stages
            + config.decode_stages
            + config.rename_stages
            + config.issue_stages
            + (spec.steer_latency if spec.kind == "issue" else 0)
        )
        self._distances = self.interconnect.distances
        self._hop_latency = config.hop_latency
        mode = config.forward_latency_mode
        self._mode = mode
        self._zero_all = mode == "zero_all"
        self._zero_critical = mode == "zero_critical"
        self._zero_intra = mode == "zero_intra_trace"
        self._zero_inter = mode == "zero_inter_trace"

    # ------------------------------------------------------------------
    # Public driving interface.
    # ------------------------------------------------------------------
    def run(self, max_instructions: int) -> SimStats:
        """Simulate until ``max_instructions`` retire (or stream ends).

        Each iteration either steps one cycle or, when the current cycle
        is quiet (:meth:`_next_action_cycle`), fast-forwards to the first
        cycle in which some stage could act.  A jump also stops at the
        next sampler or progress-hook cycle and at the watchdog's
        deadline, so hooks fire, and a deadlock raises, at the same
        cycles as when stepping every cycle.  The loop ends as soon as
        the target retires, so no quiet span is booked after it.
        """
        target = self.stats.retired + max_instructions
        hook = self.progress_hook
        sampler = self.sampler
        while self.stats.retired < target:
            if self._drained():
                break
            wake = self._next_action_cycle()
            if wake > self.now:
                wake = min(
                    wake,
                    self._last_retire_cycle + _WATCHDOG_CYCLES + 1,
                    self._next_sample if sampler is not None else NEVER,
                    self._next_progress if hook is not None else NEVER,
                )
            if wake > self.now:
                self._skip_to(wake)
            else:
                self.step()
            if sampler is not None and self.now >= self._next_sample:
                self._next_sample = self.now + max(1, self.sample_interval)
                sampler(self)
            if hook is not None and self.now >= self._next_progress:
                self._next_progress = self.now + max(
                    1, self.progress_interval)
                hook(self)
            if self.now - self._last_retire_cycle > _WATCHDOG_CYCLES:
                raise RuntimeError(
                    f"pipeline deadlock at cycle {self.now}: "
                    f"rob={len(self.rob)} frontend={len(self.frontend)}"
                )
        return self.stats

    def reset_stats(self) -> None:
        """Zero all statistics after warmup; machine state is preserved."""
        self.stats.reset()
        self.accounting.reset()
        self.fill_unit.reset_stats()
        self.strategy.reset_stats()
        self.fetch_engine.reset_stats()
        self.trace_cache.reset_stats()
        self.memory.reset_stats()

    def _drained(self) -> bool:
        return (
            not self.rob
            and not self.frontend
            and self.cursor.exhausted
        )

    # ------------------------------------------------------------------
    # Quiet cycles.
    # ------------------------------------------------------------------
    def _next_action_cycle(self) -> int:
        """First cycle from ``now`` on in which some stage could act.

        ``now`` unless the current cycle is quiet.  A cycle is quiet when
        stepping it would change nothing but the cycle count and the
        cycle accounting:

        * retire: the ROB head has not dispatched, or completes later;
        * select: no cluster has an awake entry or a calendar entry due;
        * fill: no line is due for installation;
        * issue: the front end is empty, the ROB is full, the head is
          not ready yet, it has no LSQ slot, or (slot-based issue only)
          its cluster has no station entry free for it.  Write ports
          free up every cycle, so they never make a cycle quiet;
        * fetch: the front end is full, or fetch is stalled.

        Every future cycle at which one of those conditions lapses, or a
        threshold :meth:`CycleAccounting._classify` reads passes, bounds
        the result.  Pure.
        """
        now = self.now
        wake = NEVER
        rob = self.rob
        if rob:
            # An undispatched head (complete_cycle < 0) needs a dispatch,
            # and a dispatch needs a wake-up the clusters report below.
            complete = rob[0].complete_cycle
            if complete >= 0:
                if complete <= now:
                    return now
                wake = complete
        for cluster in self.clusters:
            cycle = cluster.next_select_cycle(now)
            if cycle < wake:
                if cycle <= now:
                    return now
                wake = cycle
        cycle = self.fill_unit.next_install_cycle()
        if cycle < wake:
            if cycle <= now:
                return now
            wake = cycle
        frontend = self.frontend
        if frontend:
            ready, head = frontend[0]
            if ready > now:
                if ready < wake:
                    wake = ready
            elif (len(rob) < self.config.rob_entries
                  and self._mem_slot_available(head)
                  and (self.steerer is not None
                       or self.clusters[head.slot_cluster].has_space(
                           head, now))):
                return now
        cycle = self.fetch_engine.next_fetch_cycle(now)
        if cycle <= now:
            if len(frontend) < 2 * self.config.width:
                return now
        elif cycle < wake:
            wake = cycle
        return wake

    def _skip_to(self, cycle: int) -> None:
        """Book the quiet cycles ``now .. cycle - 1`` without stepping."""
        skipped = cycle - self.now
        self.accounting.observe_idle(self, skipped)
        self.stats.cycles += skipped
        self.now = cycle

    # ------------------------------------------------------------------
    # One cycle.
    # ------------------------------------------------------------------
    def step(self) -> None:
        profiler = self.profiler
        if profiler is not None:
            return self._step_profiled(profiler)
        now = self.now
        retired_before = self.stats.retired
        self._retire(now)
        # Classified post-retire: the (new) ROB head is exactly the
        # instruction that blocked this cycle's unfilled retire slots.
        self.accounting.observe(self, self.stats.retired - retired_before)
        self._execute(now)
        self.fill_unit.tick(now)
        self._issue(now)
        self._fetch(now)
        self.stats.cycles += 1
        self.now = now + 1

    def _step_profiled(self, profiler) -> None:
        """One cycle with per-phase wall-clock timing.

        Must mirror :meth:`step` exactly — same calls, same order — so
        a profiled run is byte-identical to an unprofiled one; the only
        additions are clock reads between phases.
        """
        clock = profiler._clock
        now = self.now
        retired_before = self.stats.retired
        t0 = clock()
        self._retire(now)
        self.accounting.observe(self, self.stats.retired - retired_before)
        self._execute(now)
        t1 = clock()
        self.fill_unit.tick(now)
        t2 = clock()
        self._issue(now)
        t3 = clock()
        self._fetch(now)
        t4 = clock()
        profiler.account(t1 - t0, t2 - t1, t3 - t2, t4 - t3, now)
        self.stats.cycles += 1
        self.now = now + 1

    # ------------------------------------------------------------------
    # Retire.
    # ------------------------------------------------------------------
    def _retire(self, now: int) -> None:
        rob = self.rob
        retired = 0
        last_seq = -1
        width = self.config.width
        observer = self.observer
        while rob and retired < width:
            head = rob[0]
            if head.complete_cycle < 0 or head.complete_cycle > now:
                break
            rob.popleft()
            head.retire_cycle = now
            dest = head.static.dest
            if dest is not None:
                self.regfile.clear_producer(dest, head)
            if head.static.is_store:
                self._inflight_stores -= 1
            self.fill_unit.retire(head, now)
            if observer is not None:
                observer.on_retire(head, now)
            self.stats.retired += 1
            if head.from_trace_cache:
                self.stats.retired_from_tc += 1
            last_seq = head.seq
            retired += 1
        if retired:
            self.memory.retire_up_to(last_seq)
            self._last_retire_cycle = now

    # ------------------------------------------------------------------
    # Execute.
    # ------------------------------------------------------------------
    def _execute(self, now: int) -> None:
        is_ready = self._is_ready
        on_dispatch = self._on_dispatch
        for cluster in self.clusters:
            cluster.dispatch_cycle(now, is_ready, on_dispatch)

    def _is_ready(self, inst: DynInst, now: int) -> Optional[bool]:
        """Readiness of the awake ``inst`` under the
        :meth:`Cluster.dispatch_cycle` contract.

        Returns None after parking ``inst`` on whatever it waits for: an
        incomplete producer, a known future wake-up cycle, or an older
        pending store.  A memory op refused a D-cache port returns False
        and stays awake, since ports are a per-cycle limit.
        """
        ready = inst.ready_time
        if ready is None:
            ready = self._compute_ready(inst)
            if ready is None:
                producer = inst.wait_producer
                dependents = producer.dependents
                if dependents is None:
                    producer.dependents = [inst]
                else:
                    dependents.append(inst)
                return None
            inst.ready_time = ready
        if ready > now:
            self.clusters[inst.cluster].wake_at(inst, ready)
            return None
        static = inst.static
        if static.is_mem:
            if not self.memory.port_available(now):
                return False
            # No speculative disambiguation: a load may not execute until
            # every older store has generated its address.
            if static.is_load and self._oldest_pending_store_seq() < inst.seq:
                heapq.heappush(self._parked_loads, (inst.seq, inst))
                return None
        return True

    def _oldest_pending_store_seq(self) -> int:
        heap = self._pending_stores
        while heap and heap[0][1].dispatch_cycle >= 0:
            heapq.heappop(heap)
        return heap[0][0] if heap else 1 << 62

    def _forward_latency(self, producer: DynInst, consumer: DynInst) -> int:
        if self._zero_all:
            return 0
        same_trace = producer.trace_instance == consumer.trace_instance
        if self._zero_intra and same_trace:
            return 0
        if self._zero_inter and not same_trace:
            return 0
        return (self._distances[producer.cluster][consumer.cluster]
                * self._hop_latency)

    def _compute_ready(self, inst: DynInst) -> Optional[int]:
        """Wake-up time of ``inst`` in its cluster; None if unknown yet."""
        issue_cycle = inst.issue_cycle
        base = issue_cycle + 1
        producers = inst.src_producers
        if not producers:
            inst.critical_src = -1
            return base
        forwarded = inst.src_forwarded
        rf_ready = issue_cycle + self.config.rf_latency
        arrivals: List[int] = []
        for i, producer in enumerate(producers):
            if forwarded[i]:
                complete = producer.complete_cycle
                if complete < 0:
                    inst.wait_producer = producer
                    return None
                arrivals.append(complete + self._forward_latency(producer, inst))
            else:
                arrivals.append(rf_ready)
        # Critical input: the operand arriving last (at most two sources;
        # the lower index wins a tie).
        critical = _last_arrival(arrivals)
        if self._zero_critical:
            # Figure 5 "No Crit Fwd Lat": the last-arriving *forwarded*
            # value loses its forwarding latency.
            fwd_indices = [i for i in range(len(arrivals)) if forwarded[i]]
            if fwd_indices:
                last_fwd = max(fwd_indices, key=arrivals.__getitem__)
                arrivals[last_fwd] = producers[last_fwd].complete_cycle
                critical = _last_arrival(arrivals)
        # Interconnect activity: every forwarded operand travels the
        # producer-to-consumer distance once (energy accounting).
        stats = self.stats
        cluster = inst.cluster
        distances = self._distances
        for i, producer in enumerate(producers):
            if forwarded[i]:
                stats.forwarded_operands += 1
                stats.forwarded_hops += distances[producer.cluster][cluster]
        inst.critical_src = critical
        if forwarded[critical]:
            producer = producers[critical]
            inst.critical_forwarded = True
            inst.critical_producer = producer
            inst.critical_distance = distances[producer.cluster][cluster]
            inst.critical_inter_trace = (
                producer.trace_instance != inst.trace_instance
            )
        return max(base, max(arrivals))

    def _on_dispatch(self, inst: DynInst, fu, now: int) -> None:
        inst.dispatch_cycle = now
        exec_latency = fu.dispatch(inst, now)
        static = inst.static
        if static.is_mem:
            mem_latency = self.memory.data_access(
                inst.seq, inst.mem_addr, static.is_store, now + exec_latency
            )
            inst.complete_cycle = now + exec_latency + mem_latency
            if static.is_store and self._parked_loads:
                self._wake_loads()
        else:
            inst.complete_cycle = now + exec_latency
        dependents = inst.dependents
        if dependents is not None:
            inst.dependents = None
            clusters = self.clusters
            for consumer in dependents:
                clusters[consumer.cluster].wake(consumer)
        self.stats.record_critical(inst, self.interconnect)
        if self.observer is not None:
            self.observer.on_dispatch(inst, now)
        if self.strategy.uses_chains:
            self._chain_feedback(inst)

    def _wake_loads(self) -> None:
        """Wake the parked loads no older store holds back any more."""
        oldest_store = self._oldest_pending_store_seq()
        parked = self._parked_loads
        while parked and parked[0][0] < oldest_store:
            load = heapq.heappop(parked)[1]
            self.clusters[load.cluster].wake(load)

    # ------------------------------------------------------------------
    # FDRT chain feedback (Table 4).
    # ------------------------------------------------------------------
    def _chain_feedback(self, inst: DynInst) -> None:
        """Apply leader/follower marking when the critical input crossed
        a trace boundary (the Section 4.1 chaining mechanism)."""
        if not inst.critical_forwarded or not inst.critical_inter_trace:
            return
        producer = inst.critical_producer
        pinning = self.strategy.pinning
        producer_lf = producer.leader_follower
        if producer_lf == LeaderFollower.NONE:
            # Table 4 leader criteria: not already in a chain, forwards
            # data to an inter-trace consumer.  Pin to where it executed.
            # The profile fields live in trace cache storage, so marking
            # is only possible for instructions fetched from it —
            # I-cache-fetched instances have nowhere to keep the state.
            if not producer.from_trace_cache:
                return
            confidence = self.spec.chain_confidence
            if confidence > 1:
                pc = producer.static.pc
                seen = self._chain_observations.get(pc, 0) + 1
                self._chain_observations[pc] = seen
                if seen < confidence:
                    return
            producer.leader_follower = LeaderFollower.LEADER
            # Pin toward the middle: the paper funnels producers of
            # downstream consumers to the middle clusters to bound
            # worst-case forwarding distances, so a fresh chain anchors
            # on the middle cluster nearest to where the leader ran.
            producer.chain_cluster = (
                self.interconnect.nearest_middle[producer.cluster])
            self._persist_profile(producer)
        elif not pinning and producer_lf == LeaderFollower.LEADER:
            # Without pinning the chain target drifts with execution.
            if producer.chain_cluster != producer.cluster:
                producer.chain_cluster = producer.cluster
                self._persist_profile(producer)
        if producer.chain_cluster < 0 or not inst.from_trace_cache:
            return
        consumer_lf = inst.leader_follower
        if consumer_lf == LeaderFollower.NONE:
            # Table 4 follower criteria: not already in a chain; producer
            # is a chain member from a different trace supplying the last
            # input (all established above).
            inst.leader_follower = LeaderFollower.FOLLOWER
            inst.chain_cluster = producer.chain_cluster
            self._persist_profile(inst)
        elif not pinning and inst.chain_cluster != producer.chain_cluster:
            # Unpinned chains may be re-joined to any chain, including
            # demoting a leader to a follower — the instability Table 9
            # measures.
            inst.leader_follower = LeaderFollower.FOLLOWER
            inst.chain_cluster = producer.chain_cluster
            self._persist_profile(inst)

    def _persist_profile(self, inst: DynInst) -> None:
        if inst.from_trace_cache and inst.trace_key is not None:
            self.trace_cache.update_profile(
                inst.trace_key,
                inst.slot_in_packet,
                chain_cluster=inst.chain_cluster,
                leader_follower=inst.leader_follower,
            )

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------
    def _issue(self, now: int) -> None:
        frontend = self.frontend
        if not frontend:
            return
        rob_space = self.config.rob_entries - len(self.rob)
        if rob_space <= 0:
            return
        width = min(self.config.width, rob_space)
        if self.steerer is not None:
            self._issue_steered(now, width)
            return
        cap = self.config.max_issue_per_cluster
        issued_per_cluster = [0] * self.config.num_clusters
        issued = 0
        while frontend and issued < width:
            ready, inst = frontend[0]
            if ready > now:
                break
            cluster_id = inst.slot_cluster
            if issued_per_cluster[cluster_id] >= cap:
                break
            if not self._mem_slot_available(inst):
                break
            if not self.clusters[cluster_id].accept(inst, now):
                break
            frontend.popleft()
            self._note_issue(inst, cluster_id, now)
            issued_per_cluster[cluster_id] += 1
            issued += 1

    def _issue_steered(self, now: int, width: int) -> None:
        frontend = self.frontend
        window: List[DynInst] = []
        for ready, inst in frontend:
            if ready > now or len(window) >= width:
                break
            window.append(inst)
        if not window:
            return
        loads = [cluster.occupancy for cluster in self.clusters]
        choices = self.steerer.steer(window, loads)
        for inst, cluster_id in zip(window, choices):
            if cluster_id is None:
                break
            if not self._mem_slot_available(inst):
                break
            if not self.clusters[cluster_id].accept(inst, now):
                break
            frontend.popleft()
            self._note_issue(inst, cluster_id, now)

    def _mem_slot_available(self, inst: DynInst) -> bool:
        """Issue-time LSQ allocation (program order, freed at retire)."""
        static = inst.static
        if static.is_load:
            return not self.memory.load_queue.full
        if static.is_store:
            return self._inflight_stores < self.memory.store_buffer.capacity
        return True

    def _note_issue(self, inst: DynInst, cluster_id: int, now: int) -> None:
        inst.issue_cycle = now
        inst.cluster = cluster_id
        producers = inst.src_producers
        if producers:
            flags = []
            for i, producer in enumerate(producers):
                forwarded = (
                    producer is not None
                    and (producer.retire_cycle < 0 or producer.retire_cycle > now)
                )
                flags.append(forwarded)
                if forwarded:
                    self.stats.record_forwarded_input(
                        inst.static.pc, i, producer.static.pc
                    )
            inst.src_forwarded = tuple(flags)
        if inst.static.is_store:
            heapq.heappush(self._pending_stores, (inst.seq, inst))
            self._inflight_stores += 1
        elif inst.static.is_load:
            self.memory.load_queue.insert(inst.seq)
        self.rob.append(inst)

    # ------------------------------------------------------------------
    # Fetch / decode / rename.
    # ------------------------------------------------------------------
    def _fetch(self, now: int) -> None:
        if len(self.frontend) >= 2 * self.config.width:
            return
        packet, extra_delay = self.fetch_engine.fetch(now)
        if not packet:
            return
        if self.observer is not None:
            self.observer.on_fetch(packet, now)
        ready = now + self._frontend_depth + extra_delay
        regfile = self.regfile
        for inst in packet:
            srcs = inst.static.srcs
            if srcs:
                inst.src_producers = tuple(
                    regfile.producer(reg) for reg in srcs
                )
            dest = inst.static.dest
            if dest is not None:
                regfile.set_producer(dest, inst)
            self.frontend.append((ready, inst))
