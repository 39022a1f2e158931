"""Feedback-directed retire-time (FDRT) cluster assignment — the paper's
primary contribution (Section 4).

The fill unit walks the finalised trace oldest-to-youngest and classifies
every instruction by three predicates (Table 5): does it have a *critical
intra-trace producer* (the producer of its last-arriving input, within
this trace), is it an *inter-trace chain member* (its trace cache
leader/follower profile field is set, giving it a suggested chain
cluster), and does it have an *intra-trace consumer*?  The resulting
placement priorities are:

========  =====================================================
Option A  intra-trace producer only: producer's cluster, then a
          neighbour of it, then skip
Option B  chain member only: the chain cluster, then a neighbour
          of it, then skip
Option C  both: chain cluster, then the producer's cluster, then
          a neighbour of the chain cluster, then skip
Option D  no forwarded input but an intra-trace consumer: a
          middle cluster (shortening later forwarding), else skip
Option E  neither producers nor consumers: skip
========  =====================================================

Skipped instructions are placed afterwards with Friendly's slot-centric
method over the remaining slots.

The chain feedback itself (leader/follower marking, Table 4) happens at
execution time in the pipeline and is stored in the trace cache profile
fields; this class only consumes those fields.  ``pinning`` controls
whether the pipeline may reassign chain clusters (Table 9/10 study) and
``intra_only`` disables the chain inputs entirely (the Section 5.3
ablation that isolates the intra-trace half of FDRT).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.assign.base import (
    AssignmentContext,
    ClusterCapacity,
    RetireTimeStrategy,
    consumer_flags,
    intra_trace_producers,
)
from repro.isa.instruction import LeaderFollower


class FDRTStrategy(RetireTimeStrategy):
    """Table 5 placement with chain feedback from the trace cache."""

    name = "fdrt"

    def __init__(
        self,
        context: AssignmentContext,
        pinning: bool = True,
        intra_only: bool = False,
        middle_funnel: bool = True,
        chain_precedence: bool = True,
    ) -> None:
        super().__init__(context)
        self.pinning = pinning
        self.intra_only = intra_only
        self.middle_funnel = middle_funnel
        self.chain_precedence = chain_precedence
        self.uses_chains = not intra_only
        #: Dynamic counts per Table 5 option (Figure 7 data).
        self.option_counts: Dict[str, int] = {
            "A": 0, "B": 0, "C": 0, "D": 0, "E": 0, "skipped": 0,
        }
        middle = context.config.middle_clusters
        self._middle = list(middle)
        self._neighbor_order = self._make_neighbor_orders()

    def _make_neighbor_orders(self) -> List[List[int]]:
        """Neighbours of each cluster, central clusters first."""
        interconnect = self.context.interconnect
        center = (self.context.num_clusters - 1) / 2.0
        orders = []
        for c in range(self.context.num_clusters):
            neighbors = sorted(
                interconnect.neighbors(c),
                key=lambda x: (abs(x - center), x),
            )
            orders.append(neighbors)
        return orders

    def reset_stats(self) -> None:
        for key in self.option_counts:
            self.option_counts[key] = 0

    # ------------------------------------------------------------------
    def _critical_intra_producer(
        self, inst, index_of: Dict[int, int], position: int
    ) -> Optional[int]:
        """Logical index of the critical in-trace producer, if any."""
        producer = inst.critical_producer
        if producer is None or not inst.critical_forwarded:
            return None
        j = index_of.get(id(producer))
        if j is not None and j < position:
            return j
        return None

    def reorder(self, insts: Sequence) -> List[Optional[int]]:
        context = self.context
        width = context.width
        per = context.slots_per_cluster
        n = min(len(insts), width)
        index_of = {id(inst): i for i, inst in enumerate(insts[:n])}
        producers = intra_trace_producers(insts[:n])
        consumers = consumer_flags(producers)

        capacity = ClusterCapacity(context.num_clusters, per)
        cluster_of: Dict[int, int] = {}
        pending: List[int] = []

        def try_place(logical: int, targets: List[int]) -> bool:
            op_class = insts[logical].static.op_class
            for cluster in targets:
                if capacity.can_place(cluster, op_class):
                    capacity.place(cluster, op_class)
                    cluster_of[logical] = cluster
                    return True
            return False

        counts = self.option_counts
        for i in range(n):
            inst = insts[i]
            producer_idx = self._critical_intra_producer(inst, index_of, i)
            producer_cluster = (
                cluster_of.get(producer_idx) if producer_idx is not None else None
            )
            has_intra = producer_cluster is not None
            is_chain = (
                not self.intra_only
                and inst.leader_follower != LeaderFollower.NONE
                and 0 <= inst.chain_cluster < context.num_clusters
            )
            chain = inst.chain_cluster if is_chain else None

            if has_intra and not is_chain:
                counts["A"] += 1
                targets = [producer_cluster] + self._neighbor_order[producer_cluster]
            elif is_chain and not has_intra:
                counts["B"] += 1
                targets = [chain] + self._neighbor_order[chain]
            elif is_chain and has_intra:
                counts["C"] += 1
                if self.chain_precedence:
                    targets = [chain, producer_cluster] + self._neighbor_order[chain]
                else:
                    targets = [producer_cluster, chain] + \
                        self._neighbor_order[producer_cluster]
            elif consumers[i]:
                counts["D"] += 1
                pool = self._middle if self.middle_funnel else list(
                    range(context.num_clusters))
                targets = sorted(pool, key=lambda c: -capacity.free_slots[c])
            else:
                counts["E"] += 1
                pending.append(i)
                continue
            if not try_place(i, targets):
                counts["skipped"] += 1
                pending.append(i)

        # Remaining instructions take the remaining slots via Friendly's
        # slot-centric method.
        slots: List[Optional[int]] = [None] * width
        taken_slots_per_cluster = [0] * context.num_clusters
        # First materialise the placements chosen above into actual slots.
        for logical in sorted(cluster_of):
            cluster = cluster_of[logical]
            slot = cluster * per + taken_slots_per_cluster[cluster]
            taken_slots_per_cluster[cluster] += 1
            slots[slot] = logical

        if pending:
            # Pass 1 (Friendly's slot-centric method, port-aware): prefer
            # an instruction with an in-trace producer in the slot's
            # cluster, else the oldest that fits the cluster's budgets.
            for slot in range(width):
                if not pending:
                    break
                if slots[slot] is not None:
                    continue
                cluster = slot // per
                pick = None
                for logical in pending:
                    op_class = insts[logical].static.op_class
                    if not capacity.can_place(cluster, op_class):
                        continue
                    if pick is None:
                        pick = logical  # oldest that fits, as fallback
                    if any(cluster_of.get(p) == cluster
                           for p in producers[logical]):
                        pick = logical
                        break
                if pick is None:
                    continue
                pending.remove(pick)
                capacity.place(cluster, insts[pick].static.op_class)
                slots[slot] = pick
                cluster_of[pick] = cluster
            # Pass 2: the trace oversubscribes some station class; place
            # the leftovers anywhere (they will take an extra issue cycle).
            if pending:
                leftover_slots = [p for p in range(width) if slots[p] is None]
                for slot, logical in zip(leftover_slots, list(pending)):
                    pending.remove(logical)
                    slots[slot] = logical
                    cluster_of[logical] = slot // per
        return slots
