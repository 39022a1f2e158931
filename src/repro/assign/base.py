"""Strategy interfaces and the strategy factory.

Retire-time strategies implement :meth:`RetireTimeStrategy.reorder`: given
the instructions of a finalised trace in logical order, return the
physical slot layout (slot index -> logical index, ``None`` = empty slot).
Physical slot ``p`` issues to cluster ``p // slots_per_cluster``.

Issue-time strategies implement per-cycle steering in the pipeline and are
configured through :class:`StrategySpec` (see ``issue_time.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.cluster.config import MachineConfig
from repro.cluster.interconnect import Interconnect

if TYPE_CHECKING:
    from repro.isa import DynInst


@dataclasses.dataclass(frozen=True)
class AssignmentContext:
    """Geometry shared by all strategies."""

    config: MachineConfig
    interconnect: Interconnect

    @property
    def num_clusters(self) -> int:
        return self.config.num_clusters

    @property
    def slots_per_cluster(self) -> int:
        return self.config.slots_per_cluster

    @property
    def width(self) -> int:
        return self.config.width


@dataclasses.dataclass(frozen=True)
class StrategySpec:
    """Declarative description of a cluster assignment strategy.

    ``kind`` is one of ``'base'``, ``'issue'``, ``'friendly'``, ``'fdrt'``.
    The remaining fields select variants:

    * ``steer_latency`` — extra issue-stage cycles for issue-time steering
      (0 models the paper's "No-lat Issue-time", 4 the realistic one).
    * ``middle_bias`` — Friendly variant that funnels default placements
      to the middle clusters (paper Section 5.3's "+4.7%" adjustment).
    * ``pinning`` — FDRT leader pinning (Table 9/10 study).
    * ``intra_only`` — FDRT ablation using only intra-trace heuristics.
    """

    kind: str = "fdrt"
    steer_latency: int = 0
    middle_bias: bool = False
    pinning: bool = True
    intra_only: bool = False
    #: FDRT ablations: disable Option D's middle-cluster funneling, or
    #: give the intra-trace producer precedence over the chain cluster in
    #: Option C (the paper claims the precedence "does not matter").
    middle_funnel: bool = True
    chain_precedence: bool = True
    #: FDRT extension: observations of an inter-trace critical producer
    #: required before it is marked as a chain leader.  1 reproduces the
    #: paper (mark on first observation); higher values gate chain
    #: formation on producer-repetition confidence (motivated by Table 3)
    #: and shift the option mix from B toward A.
    chain_confidence: int = 1
    #: ``kind='static'`` only: the per-pc cluster map from
    #: :func:`repro.assign.static_pc.train_static_assignment`.
    static_mapping: Optional[Dict[int, int]] = dataclasses.field(
        default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("base", "issue", "friendly", "fdrt", "static"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "static" and self.static_mapping is None:
            raise ValueError("static strategy needs a static_mapping")

    @property
    def label(self) -> str:
        """Short human-readable name used in experiment tables."""
        if self.kind == "base":
            return "Base"
        if self.kind == "issue":
            if self.steer_latency == 0:
                return "No-lat Issue-time"
            return f"Issue-time({self.steer_latency})"
        if self.kind == "friendly":
            return "Friendly+middle" if self.middle_bias else "Friendly"
        if self.kind == "static":
            return "Static"
        parts = ["FDRT"]
        if not self.pinning:
            parts.append("no-pin")
        if self.intra_only:
            parts.append("intra-only")
        if not self.middle_funnel:
            parts.append("no-middle")
        if not self.chain_precedence:
            parts.append("producer-first")
        if self.chain_confidence > 1:
            parts.append(f"conf{self.chain_confidence}")
        return "/".join(parts)


class RetireTimeStrategy:
    """Base class for fill-unit (retire-time) reordering strategies."""

    name = "identity"
    #: Whether the pipeline should run the FDRT chain-feedback mechanism.
    uses_chains = False
    #: Whether chain assignments are pinned (only meaningful with chains).
    pinning = True

    def __init__(self, context: AssignmentContext) -> None:
        self.context = context

    def reorder(self, insts: Sequence["DynInst"]) -> List[Optional[int]]:
        """Return physical slots: ``slots[p]`` = logical index or ``None``.

        The default keeps logical order (slot-based assignment).
        """
        slots: List[Optional[int]] = [None] * self.context.width
        for i in range(min(len(insts), self.context.width)):
            slots[i] = i
        return slots

    def reset_stats(self) -> None:
        """Clear any per-run statistics (subclasses override)."""


#: Reservation-station group per op class (mirrors the cluster design:
#: one mem station, one branch, one complex, two simple).
_RS_GROUP = {
    0: "simple",  # OpClass.SIMPLE_INT
    1: "mem",     # OpClass.INT_MEM
    2: "br",      # OpClass.BRANCH
    3: "cpx",     # OpClass.COMPLEX_INT
    4: "simple",  # OpClass.SIMPLE_FP
    5: "cpx",     # OpClass.COMPLEX_FP
    6: "mem",     # OpClass.FP_MEM
}

#: Instructions of each group that can be written into one cluster in one
#: cycle (stations x write ports): the fill unit respects these so a
#: reordered trace can issue in a single cycle.
_GROUP_BUDGET = {"simple": 4, "mem": 2, "br": 2, "cpx": 2}


class ClusterCapacity:
    """Per-trace placement budget: slots and RS write ports per cluster.

    Retire-time strategies consult this so that the physical layout they
    produce does not oversubscribe any cluster's reservation-station
    write ports, which would stall slot-based issue (the line could no
    longer be consumed in one cycle).  ``strict=False`` checks only the
    raw slot count, used as a last resort when a trace simply contains
    more instructions of one class than the budgets allow.
    """

    def __init__(self, num_clusters: int, slots_per_cluster: int) -> None:
        self.free_slots = [slots_per_cluster] * num_clusters
        self._ports = [dict(_GROUP_BUDGET) for _ in range(num_clusters)]

    def can_place(self, cluster: int, op_class, strict: bool = True) -> bool:
        """True if an instruction of ``op_class`` fits in ``cluster``."""
        if self.free_slots[cluster] <= 0:
            return False
        if not strict:
            return True
        return self._ports[cluster][_RS_GROUP[int(op_class)]] > 0

    def place(self, cluster: int, op_class) -> None:
        """Consume a slot (and a port, when available) in ``cluster``."""
        self.free_slots[cluster] -= 1
        group = _RS_GROUP[int(op_class)]
        if self._ports[cluster][group] > 0:
            self._ports[cluster][group] -= 1


def intra_trace_producers(insts: Sequence["DynInst"]) -> List[List[int]]:
    """For each instruction, logical indices of its in-trace producers.

    Uses the renamed producer links (``src_producers``), which within one
    trace instance coincide with the fill unit's static dependency
    analysis.
    """
    index_of = {id(inst): i for i, inst in enumerate(insts)}
    result: List[List[int]] = []
    for i, inst in enumerate(insts):
        producers = []
        for producer in inst.src_producers:
            if producer is None:
                continue
            j = index_of.get(id(producer))
            if j is not None and j < i:
                producers.append(j)
        result.append(producers)
    return result


def intra_trace_consumers(insts: Sequence["DynInst"]) -> List[bool]:
    """For each instruction, whether a later in-trace instruction reads it."""
    return consumer_flags(intra_trace_producers(insts))


def consumer_flags(producers: Sequence[Sequence[int]]) -> List[bool]:
    """:func:`intra_trace_consumers` from already-built producer lists."""
    has_consumer = [False] * len(producers)
    for plist in producers:
        for j in plist:
            has_consumer[j] = True
    return has_consumer


def make_strategy(spec: StrategySpec, context: AssignmentContext):
    """Build the retire-time strategy object for ``spec``.

    Returns a :class:`RetireTimeStrategy`; for ``'base'`` and ``'issue'``
    kinds this is the identity reorder (issue-time steering is configured
    separately in the pipeline from the same spec).
    """
    from repro.assign.fdrt import FDRTStrategy
    from repro.assign.friendly import FriendlyRetireTime
    from repro.assign.slot import SlotBaseline
    from repro.assign.static_pc import StaticAssignment

    if spec.kind in ("base", "issue"):
        return SlotBaseline(context)
    if spec.kind == "static":
        return StaticAssignment(context, spec.static_mapping)
    if spec.kind == "friendly":
        return FriendlyRetireTime(context, middle_bias=spec.middle_bias)
    return FDRTStrategy(context, pinning=spec.pinning,
                        intra_only=spec.intra_only,
                        middle_funnel=spec.middle_funnel,
                        chain_precedence=spec.chain_precedence)
