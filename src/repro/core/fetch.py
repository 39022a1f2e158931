"""Instruction fetch: trace cache path with L1 I-cache fallback.

Trace-driven timing model: the committed dynamic stream (from the
functional simulator) is consumed through a :class:`StreamCursor`, and the
fetch engine decides, per packet, whether the trace cache or the I-cache
supplies the instructions, which branch predictions are made, and where
mispredictions interrupt fetch.  Wrong-path instructions are not executed;
a misprediction blocks fetch until the branch resolves plus a redirect
penalty, which is the standard trace-driven approximation.

Multiple-branch prediction for trace selection follows the trace cache
literature: the predictor supplies directions for the (up to two) internal
conditional branches, and the candidate line whose embedded path matches
is fetched.  If the fetched path later diverges from the committed stream,
the divergent branch is a misprediction and the packet is truncated there.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa import NEVER, BranchKind, DynInst
from repro.cluster.config import MachineConfig
from repro.core.stats import SimStats
from repro.frontend import BranchTargetBuffer, HybridPredictor, ReturnAddressStack
from repro.memory.cache import Cache
from repro.tracecache.trace import TraceLine
from repro.tracecache.trace_cache import TraceCache
from repro.workloads.execution import FunctionalSimulator


class StreamCursor:
    """Buffered lookahead over the committed instruction stream."""

    def __init__(self, source: FunctionalSimulator) -> None:
        self._source = source
        self._buffer: List[DynInst] = []
        self._exhausted = False

    def peek(self, index: int) -> Optional[DynInst]:
        """The ``index``-th not-yet-fetched instruction, or ``None``."""
        while len(self._buffer) <= index and not self._exhausted:
            inst = self._source.step()
            if inst is None:
                self._exhausted = True
                break
            self._buffer.append(inst)
        if index < len(self._buffer):
            return self._buffer[index]
        return None

    def advance(self, count: int) -> None:
        """Consume ``count`` instructions."""
        del self._buffer[:count]

    @property
    def exhausted(self) -> bool:
        """True once the source produced its last instruction."""
        return self._exhausted and not self._buffer


class FetchEngine:
    """Trace cache + I-cache fetch with branch prediction."""

    def __init__(
        self,
        config: MachineConfig,
        cursor: StreamCursor,
        trace_cache: TraceCache,
        icache_next_level,
        stats: SimStats,
    ) -> None:
        self.config = config
        self.cursor = cursor
        self.trace_cache = trace_cache
        self.stats = stats
        self.predictor = HybridPredictor(config.predictor_entries)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_depth)
        self.icache = Cache(
            "L1I", config.icache_size, config.icache_assoc,
            config.icache_line, config.icache_latency, icache_next_level,
            mshrs=4,
        )
        self._packet_counter = 0
        self._blocked_branch: Optional[DynInst] = None
        self._blocked_until = 0
        #: Partial-match fetches (only with ``tc_partial_matching``).
        self.partial_hits = 0

    # ------------------------------------------------------------------
    def blocked(self, now: int) -> bool:
        """True while fetch is stalled on a misprediction or cache miss."""
        branch = self._blocked_branch
        if branch is not None:
            resolve = branch.complete_cycle
            if resolve >= 0 and now >= resolve + self.config.redirect_penalty:
                self._blocked_branch = None
            else:
                return True
        return now < self._blocked_until

    def stall_kind(self, now: int) -> Optional[str]:
        """Why fetch is stalled right now, without touching state.

        ``'mispredict'`` while an unresolved mispredicted branch (plus
        its redirect penalty) blocks fetch, ``'icache_miss'`` while the
        front end waits on an instruction line, else ``None``.  Pure —
        unlike :meth:`blocked`, which clears resolved redirects — so
        cycle accounting can classify front-end stalls mid-cycle.
        """
        branch = self._blocked_branch
        if branch is not None:
            resolve = branch.complete_cycle
            if resolve < 0 or now < resolve + self.config.redirect_penalty:
                return "mispredict"
        if now < self._blocked_until:
            return "icache_miss"
        return None

    def next_fetch_cycle(self, now: int) -> int:
        """Earliest cycle from ``now`` on in which :meth:`fetch` could
        deliver a packet or its stall could change kind.

        ``now`` when fetch is free to run; the end of a pending redirect
        penalty or I-cache wait when one is due later;
        :data:`~repro.isa.NEVER` when it waits on a mispredicted branch
        that has not dispatched, or the stream is exhausted.  Pure, like
        :meth:`stall_kind`.
        """
        wake = NEVER
        branch = self._blocked_branch
        if branch is not None:
            resolve = branch.complete_cycle
            if resolve >= 0:
                resume = resolve + self.config.redirect_penalty
                if resume <= now:
                    branch = None
                else:
                    wake = resume
        if now < self._blocked_until:
            return min(wake, self._blocked_until)
        if branch is not None:
            return wake
        return NEVER if self.cursor.exhausted else now

    def fetch(self, now: int) -> Tuple[List[DynInst], int]:
        """Fetch one packet; returns (instructions, extra_ready_delay).

        The empty packet means fetch produced nothing this cycle (blocked
        or stream exhausted).  ``extra_ready_delay`` is additional
        front-end latency beyond the standard stages (I-cache misses).
        """
        if self.blocked(now):
            return [], 0
        head = self.cursor.peek(0)
        if head is None:
            return [], 0
        line, prefix = self._select_trace_line(head.static.pc)
        self.trace_cache.record_fetch(line)
        if line is not None:
            return self._fetch_from_trace(line, now, prefix), 0
        return self._fetch_from_icache(now)

    # ------------------------------------------------------------------
    # Trace cache path.
    # ------------------------------------------------------------------
    def _select_trace_line(self, pc: int):
        """Pick a candidate line matching predictions.

        Returns ``(line, prefix)`` where ``prefix`` limits how many
        logical instructions may be fetched (``None`` = the whole line).
        Without partial matching only full-path matches hit; with it, the
        longest predicted-path prefix of the MRU candidate is used.
        """
        if self.config.perfect_branch_prediction:
            # Oracle front end: select by the actual upcoming path.
            for line in self.trace_cache.lines_starting_at(pc):
                ordered = line.logical_order()
                if all(
                    (dyn := self.cursor.peek(k)) is not None
                    and dyn.static.pc == slot.instr.pc
                    for k, slot in enumerate(ordered)
                ):
                    return line, None
            return None, None
        best_partial = None
        best_prefix = 0
        for line in self.trace_cache.lines_starting_at(pc):
            matched = self._prediction_match_length(line)
            if matched is None:
                return line, None
            if self.config.tc_partial_matching and matched > best_prefix:
                best_partial = line
                best_prefix = matched
        if best_partial is not None:
            self.partial_hits += 1
            return best_partial, best_prefix
        return None, None

    def _prediction_match_length(self, line: TraceLine) -> Optional[int]:
        """``None`` if the whole path matches predictions; otherwise the
        number of logical instructions up to and including the first
        mispredicted internal branch (the usable prefix)."""
        ordered = line.logical_order()
        dirs = line.key[1]
        branch_index = 0
        for position, slot in enumerate(ordered[:-1]):
            if slot.instr.branch_kind == BranchKind.CONDITIONAL:
                predicted = self.predictor.predict(slot.instr.pc)
                if predicted != dirs[branch_index]:
                    return position + 1
                branch_index += 1
        return None

    def _fetch_from_trace(self, line: TraceLine, now: int,
                          prefix: Optional[int] = None) -> List[DynInst]:
        ordered = line.logical_order()
        if prefix is not None:
            ordered = ordered[:prefix]
        per = self.config.slots_per_cluster
        cluster_of_logical = {}
        for p, slot in enumerate(line.slots):
            if slot is not None:
                cluster_of_logical[slot.logical] = p // per
        trace_instance = self._packet_counter
        self._packet_counter += 1
        packet: List[DynInst] = []
        for k, slot in enumerate(ordered):
            dyn = self.cursor.peek(k)
            if dyn is None or dyn.static.pc != slot.instr.pc:
                # Wrong-path region after an earlier divergence; the
                # divergent branch below already truncated the packet, so
                # reaching here means the line went stale (the static
                # program cannot change, so this only guards corruption).
                break
            dyn.from_trace_cache = True
            dyn.trace_key = line.key
            dyn.trace_instance = trace_instance
            dyn.slot_in_packet = slot.logical
            dyn.slot_cluster = cluster_of_logical[slot.logical]
            dyn.chain_cluster = slot.chain_cluster
            dyn.leader_follower = slot.leader_follower
            dyn.fetch_cycle = now
            packet.append(dyn)
            if not self._check_control_flow(dyn, in_trace=True):
                break
        self.cursor.advance(len(packet))
        self.stats.tc_fetches += 1
        self.stats.tc_fetch_instructions += len(packet)
        return packet

    # ------------------------------------------------------------------
    # I-cache path.
    # ------------------------------------------------------------------
    def _fetch_from_icache(self, now: int) -> Tuple[List[DynInst], int]:
        head = self.cursor.peek(0)
        latency = self.icache.access(head.static.pc, now)
        extra = max(0, latency - self.config.icache_latency)
        if extra:
            # The front end waits for the line; no further fetch until then.
            self._blocked_until = max(self._blocked_until, now + extra)
        trace_instance = self._packet_counter
        self._packet_counter += 1
        packet: List[DynInst] = []
        block_id = head.static.block_id
        per = self.config.slots_per_cluster
        for k in range(self.config.icache_fetch_width):
            dyn = self.cursor.peek(k)
            if dyn is None or dyn.static.block_id != block_id:
                break
            dyn.from_trace_cache = False
            dyn.trace_instance = trace_instance
            dyn.slot_in_packet = k
            dyn.slot_cluster = (k // per) % self.config.num_clusters
            dyn.fetch_cycle = now
            packet.append(dyn)
            if not self._check_control_flow(dyn, in_trace=False):
                break
        self.cursor.advance(len(packet))
        return packet, extra

    # ------------------------------------------------------------------
    # Branch prediction bookkeeping.
    # ------------------------------------------------------------------
    def _check_control_flow(self, dyn: DynInst, in_trace: bool) -> bool:
        """Predict/train on ``dyn``; False ends the packet (mispredict).

        Within a trace, targets are embedded in the line, so only
        direction (and return-target) mispredictions redirect; on the
        I-cache path a BTB miss for a taken branch also redirects.
        """
        kind = dyn.static.branch_kind
        if kind == BranchKind.NOT_BRANCH:
            return True
        if self.config.perfect_branch_prediction:
            # Oracle front end: train nothing, never redirect.
            if kind == BranchKind.CONDITIONAL:
                self.stats.cond_branches += 1
            return True
        if kind == BranchKind.CONDITIONAL:
            self.stats.cond_branches += 1
            predicted = self.predictor.predict_and_update(dyn.static.pc, dyn.taken)
            if predicted != dyn.taken:
                self._mispredict(dyn)
                return False
            if dyn.taken and not in_trace:
                return self._btb_check(dyn)
            return True
        if kind == BranchKind.CALL:
            if dyn.fall_target is not None:
                self.ras.push(dyn.fall_target)
            if not in_trace:
                return self._btb_check(dyn)
            return True
        if kind == BranchKind.RETURN:
            predicted_target = self.ras.pop()
            if predicted_target != dyn.target:
                self._mispredict(dyn)
                return False
            return True
        # Unconditional jump.
        if not in_trace:
            return self._btb_check(dyn)
        return True

    def _btb_check(self, dyn: DynInst) -> bool:
        """BTB lookup for a taken branch on the I-cache path."""
        target = self.btb.lookup(dyn.static.pc)
        self.btb.update(dyn.static.pc, dyn.target)
        if target != dyn.target:
            self._mispredict(dyn)
            return False
        return True

    def _mispredict(self, dyn: DynInst) -> None:
        dyn.mispredicted = True
        self.stats.mispredicts += 1
        self._blocked_branch = dyn

    def reset_stats(self) -> None:
        """Zero predictor/cache statistics (state kept)."""
        self.predictor.lookups = 0
        self.predictor.mispredictions = 0
        self.btb.lookups = 0
        self.btb.misses = 0
        self.icache.reset_stats()
