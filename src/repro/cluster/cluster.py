"""One execution cluster (paper Figure 3).

A cluster bundles five reservation stations and eight special-purpose
functional units behind an intra-cluster crossbar.  Results forward within
the cluster in the dispatch cycle (zero latency) and to other clusters via
the interconnect.  The cluster itself is policy-free: readiness and
completion are delegated to the pipeline, which knows about producers,
forwarding latencies and the memory system.

Select is event-driven, like real wake-up logic: it polls only the
cluster's *awake* entries.  An entry that cannot be ready yet is parked
by the pipeline and comes back through :meth:`Cluster.wake` (its
producer or an older store dispatched) or the cluster's cycle calendar
(:meth:`Cluster.wake_at`).  With nothing awake, the calendar's first
cycle is the earliest one in which select can act
(:meth:`Cluster.next_select_cycle`).
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.isa import NEVER, DynInst, OpClass
from repro.cluster.functional_units import FunctionalUnit, make_cluster_units
from repro.cluster.reservation_station import ReservationStation

#: Which reservation station buffers each op class.
_RS_FOR_CLASS = {
    OpClass.INT_MEM: "mem",
    OpClass.FP_MEM: "mem",
    OpClass.BRANCH: "br",
    OpClass.COMPLEX_INT: "cpx",
    OpClass.COMPLEX_FP: "cpx",
    # SIMPLE_INT / SIMPLE_FP go to one of the two simple stations.
}

_SELECT_KEY = attrgetter("select_key")


class Cluster:
    """Reservation stations + functional units of one cluster."""

    def __init__(self, cluster_id: int, rs_entries: int = 8,
                 rs_write_ports: int = 2) -> None:
        self.cluster_id = cluster_id
        self.stations: Dict[str, ReservationStation] = {
            name: ReservationStation(f"c{cluster_id}.{name}", rs_entries,
                                     rs_write_ports)
            for name in ("mem", "br", "cpx", "simple0", "simple1")
        }
        self._station_order = tuple(self.stations.values())
        #: Rank of each station in select order.
        self._rank = {station: rank
                      for rank, station in enumerate(self._station_order)}
        #: Entries select polls this cycle, in ``select_key`` order
        #: unless ``_unsorted``.
        self._awake: List[DynInst] = []
        self._unsorted = False
        #: Parked entries by the cycle they become ready in.
        self._calendar: Dict[int, List[DynInst]] = defaultdict(list)
        self.units: List[FunctionalUnit] = make_cluster_units()
        self._units_by_class: Dict[OpClass, List[FunctionalUnit]] = {}
        for unit in self.units:
            self._units_by_class.setdefault(unit.kind, []).append(unit)
        self._simple_toggle = 0
        #: Total buffered instructions across all stations.
        self.occupancy = 0

    # ------------------------------------------------------------------
    # Issue side.
    # ------------------------------------------------------------------
    def _station_for(self, op_class: OpClass, now: int) -> Optional[ReservationStation]:
        name = _RS_FOR_CLASS.get(op_class)
        if name is not None:
            station = self.stations[name]
            return station if station.can_insert(now) else None
        # Simple int/FP: pick between the two simple stations, preferring
        # the emptier one (ties broken by a toggle for balance).
        s0 = self.stations["simple0"]
        s1 = self.stations["simple1"]
        first, second = (s0, s1) if (len(s0), self._simple_toggle) <= (len(s1), 1 - self._simple_toggle) else (s1, s0)
        for station in (first, second):
            if station.can_insert(now):
                self._simple_toggle ^= 1
                return station
        return None

    def has_space(self, inst: DynInst, now: int) -> bool:
        """True if ``inst`` can be written into a station this cycle.

        Pure: unlike :meth:`accept` it leaves the simple-station balance
        toggle alone, so accounting and other read-only callers may use
        it without perturbing placement.
        """
        name = _RS_FOR_CLASS.get(inst.static.op_class)
        if name is not None:
            return self.stations[name].can_insert(now)
        return (self.stations["simple0"].can_insert(now)
                or self.stations["simple1"].can_insert(now))

    def accept(self, inst: DynInst, now: int) -> bool:
        """Insert ``inst`` into its reservation station; False if full."""
        station = self._station_for(inst.static.op_class, now)
        if station is None:
            return False
        station.insert(inst, now)
        key = inst.select_key = (self._rank[station], inst.seq)
        self.occupancy += 1
        awake = self._awake
        if awake and awake[-1].select_key > key:
            self._unsorted = True
        awake.append(inst)
        return True

    # ------------------------------------------------------------------
    # Execute side.
    # ------------------------------------------------------------------
    def dispatch_cycle(
        self,
        now: int,
        is_ready: Callable[[DynInst, int], Optional[bool]],
        on_dispatch: Callable[[DynInst, FunctionalUnit, int], None],
    ) -> int:
        """Select and dispatch ready instructions onto free units.

        Must run once per cycle, with consecutive ``now`` values.  Entries
        parked with :meth:`wake_at` for this cycle wake first.  Then only
        the awake entries are polled, station by station (mem, br, cpx,
        simple0, simple1) and oldest first within a station, and
        ``is_ready(inst, now)`` answers:

        * ``True``: ``inst`` may dispatch this cycle;
        * ``False``: not this cycle; poll it again next cycle;
        * ``None``: the caller has parked ``inst``.  It is not polled
          again until :meth:`wake` or the cycle given to :meth:`wake_at`.

        Every poll happens before any dispatch, so an entry woken by
        ``on_dispatch`` is polled this cycle only if its cluster has not
        run yet.  Ready instructions then compete oldest-first for the
        free units of their class.  Returns the number of dispatches.
        """
        awake = self._awake
        due = self._calendar.pop(now, None)
        if due is not None:
            awake.extend(due)
            self._unsorted = True
        if not awake:
            return 0
        if self._unsorted:
            awake.sort(key=_SELECT_KEY)
            self._unsorted = False
        ready_by_class: dict = {}
        # Compact in place: parked entries drop out of ``awake``.
        kept = 0
        for inst in awake:
            ready = is_ready(inst, now)
            if ready is None:
                continue
            awake[kept] = inst
            kept += 1
            if ready:
                key = inst.static.op_class
                bucket = ready_by_class.get(key)
                if bucket is None:
                    ready_by_class[key] = bucket = []
                bucket.append((inst.seq, inst))
        del awake[kept:]
        if not ready_by_class:
            return 0
        stations = self._station_order
        dispatched = 0
        for kind, candidates in ready_by_class.items():
            free_units = [
                u for u in self._units_by_class[kind] if now >= u.busy_until
            ]
            if not free_units:
                continue
            if len(candidates) > 1:
                candidates.sort()
            for unit, (_seq, inst) in zip(free_units, candidates):
                stations[inst.select_key[0]].remove(inst)
                self.occupancy -= 1
                awake.remove(inst)
                on_dispatch(inst, unit, now)
                dispatched += 1
        return dispatched

    def wake(self, inst: DynInst) -> None:
        """Make the buffered ``inst`` pollable by select again."""
        awake = self._awake
        if awake and awake[-1].select_key > inst.select_key:
            self._unsorted = True
        awake.append(inst)

    def wake_at(self, inst: DynInst, cycle: int) -> None:
        """Park the buffered ``inst`` until ``cycle`` (a later cycle)."""
        self._calendar[cycle].append(inst)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def next_select_cycle(self, now: int) -> int:
        """Earliest cycle from ``now`` on in which select has an entry to
        poll: ``now`` while anything is awake, else the first calendar
        cycle, else :data:`~repro.isa.NEVER` (every entry waits on a
        :meth:`wake`).  Pure.
        """
        if self._awake:
            return now
        calendar = self._calendar
        return min(calendar) if calendar else NEVER

    def clear(self) -> None:
        """Drop all buffered instructions and select state (pipeline reset).

        A cleared cluster places and selects exactly like a fresh one.
        Entries the caller parked outside the cluster (on a producer, or
        behind a store) are the caller's to drop.
        """
        for station in self._station_order:
            station.clear()
        self._awake.clear()
        self._unsorted = False
        self._calendar.clear()
        self._simple_toggle = 0
        self.occupancy = 0
        for unit in self.units:
            unit.busy_until = -1
