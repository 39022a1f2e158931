"""Unit tests for functional units and reservation stations."""

import pytest

from repro.cluster.functional_units import FunctionalUnit, make_cluster_units
from repro.cluster.reservation_station import ReservationStation
from repro.isa import Opcode, OpClass
from tests.conftest import make_dyn


class TestFunctionalUnits:
    def test_cluster_has_eight_units(self):
        units = make_cluster_units()
        assert len(units) == 8

    def test_unit_mix_matches_figure3(self):
        units = make_cluster_units()
        counts = {}
        for unit in units:
            counts[unit.kind] = counts.get(unit.kind, 0) + 1
        assert counts[OpClass.SIMPLE_INT] == 2
        assert counts[OpClass.INT_MEM] == 1
        assert counts[OpClass.BRANCH] == 1
        assert counts[OpClass.COMPLEX_INT] == 1
        assert counts[OpClass.SIMPLE_FP] == 1
        assert counts[OpClass.COMPLEX_FP] == 1
        assert counts[OpClass.FP_MEM] == 1

    def test_pipelined_unit_free_next_cycle(self):
        unit = FunctionalUnit(OpClass.SIMPLE_INT, "alu")
        latency = unit.dispatch(make_dyn(0, Opcode.ADD), now=10)
        assert latency == 1
        assert not unit.free(10)
        assert unit.free(11)

    def test_divider_blocks_for_issue_latency(self):
        unit = FunctionalUnit(OpClass.COMPLEX_INT, "cpx")
        latency = unit.dispatch(make_dyn(0, Opcode.DIV), now=0)
        assert latency == 20
        assert not unit.free(18)
        assert unit.free(19)


class TestReservationStation:
    def test_capacity_bound(self):
        station = ReservationStation("rs", capacity=2, write_ports=4)
        station.insert(make_dyn(0), now=0)
        station.insert(make_dyn(1), now=0)
        assert not station.can_insert(0)

    def test_write_ports_bound_per_cycle(self):
        station = ReservationStation("rs", capacity=8, write_ports=2)
        station.insert(make_dyn(0), now=5)
        station.insert(make_dyn(1), now=5)
        assert not station.can_insert(5)
        assert station.can_insert(6)
        station.insert(make_dyn(2), now=6)

    def test_insert_without_room_raises(self):
        station = ReservationStation("rs", capacity=1, write_ports=2)
        station.insert(make_dyn(0), now=0)
        with pytest.raises(RuntimeError):
            station.insert(make_dyn(1), now=0)

    def test_remove_and_clear(self):
        station = ReservationStation("rs")
        inst = make_dyn(0)
        station.insert(inst, now=0)
        station.remove(inst)
        assert len(station) == 0
        station.insert(make_dyn(1), now=1)
        station.clear()
        assert len(station) == 0
