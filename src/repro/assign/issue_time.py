"""Issue-time dependency/balance steering (paper Section 2.3).

Instructions are steered "to the cluster where one or more of their data
inputs are known to be generated": at issue, in program order, each
instruction prefers the cluster of the in-flight producer of its
(expected) last input, falling back to the least-loaded cluster.  At most
``slots_per_cluster`` instructions enter each cluster per cycle, which
both simplifies the hardware and balances workloads.

Cluster choice is a table walk, with no per-instruction sort.  The
interconnect precomputes, for each cluster, the other clusters grouped by
distance (``Interconnect.distance_groups``).  When the preferred cluster
is full, the steerer walks its groups nearest first and takes the
least-loaded, lowest-id cluster of the first group with a free slot; on
the ring both one-hop clusters share a group, on the crossbar every
remote cluster does.

The steering/routing *latency* (0 for the ideal study, 4 cycles for the
realistic one, 2 for the eight-wide machine) is applied by the pipeline as
extra front-end stages via ``StrategySpec.steer_latency``; this class only
chooses clusters.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.assign.base import AssignmentContext


class IssueTimeSteering:
    """Per-cycle cluster chooser for issue-time assignment."""

    name = "issue"

    def __init__(self, context: AssignmentContext) -> None:
        self.context = context
        self._cap = context.slots_per_cluster
        self._anywhere = (tuple(range(context.num_clusters)),)
        self._groups = context.interconnect.distance_groups

    def steer(self, insts: Sequence, cluster_load: List[int]) -> List[Optional[int]]:
        """Choose a cluster per instruction for one issue cycle.

        ``insts`` is the window considered this cycle in program order;
        ``cluster_load`` is the current occupancy of each cluster (used
        for balance) and is *not* mutated.  Returns one cluster id (or
        ``None`` = cannot issue this cycle) per instruction, respecting
        the per-cluster per-cycle cap.

        Each instruction prefers the cluster of its youngest producer
        still in flight (the best guess for its last input), else of its
        youngest completed producer, whose value may already sit in the
        register file.  Both intra-trace and inter-trace producers are
        visible at issue time: the information advantage issue-time
        steering has over retire-time schemes.  A producer steered
        earlier in this same window counts with its tentative cluster.
        """
        cap = self._cap
        anywhere = self._anywhere
        groups = self._groups
        issued = [0] * len(anywhere[0])
        load = list(cluster_load)
        result: List[Optional[int]] = []
        tentative: dict = {}
        for inst in insts:
            preferred = -1
            preferred_seq = -1
            done_cluster = -1
            done_seq = -1
            for producer in inst.src_producers:
                if producer is None:
                    continue
                cluster = producer.cluster
                if cluster < 0:
                    cluster = tentative.get(id(producer), -1)
                    if cluster < 0:
                        continue
                seq = producer.seq
                if producer.complete_cycle < 0:
                    if seq > preferred_seq:
                        preferred = cluster
                        preferred_seq = seq
                elif seq > done_seq:
                    done_cluster = cluster
                    done_seq = seq
            if preferred < 0:
                preferred = done_cluster
            if preferred >= 0 and issued[preferred] < cap:
                choice = preferred
            else:
                # The least-loaded, lowest-id cluster with a free slot in
                # the nearest group that has one.  With no known producer
                # every cluster is one group: balance on load.
                choice = None
                for group in groups[preferred] if preferred >= 0 else anywhere:
                    for c in group:
                        if issued[c] < cap and (choice is None
                                                or load[c] < load[choice]):
                            choice = c
                    if choice is not None:
                        break
            result.append(choice)
            if choice is not None:
                tentative[id(inst)] = choice
                issued[choice] += 1
                load[choice] += 1
        return result
