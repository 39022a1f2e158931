"""Unit tests for the cluster: station routing and dispatch selection."""

from repro.cluster.cluster import Cluster
from repro.isa import Opcode
from tests.conftest import make_dyn


def always_ready(inst, now):
    return True


def counting(is_ready):
    """``is_ready`` plus a list of the ``(now, seq)`` polls it answered."""
    polls = []

    def polled(inst, now):
        polls.append((now, inst.seq))
        return is_ready(inst, now)

    return polled, polls


class TestStationRouting:
    def test_memory_ops_go_to_mem_station(self):
        cluster = Cluster(0)
        load = make_dyn(0, Opcode.LOAD, dest=8, srcs=(1,))
        assert cluster.accept(load, now=0)
        assert len(cluster.stations["mem"]) == 1

    def test_branches_go_to_br_station(self):
        cluster = Cluster(0)
        branch = make_dyn(0, Opcode.BEQ, dest=None, srcs=(1,))
        assert cluster.accept(branch, now=0)
        assert len(cluster.stations["br"]) == 1

    def test_complex_int_and_fp_share_cpx_station(self):
        cluster = Cluster(0)
        cluster.accept(make_dyn(0, Opcode.MUL), now=0)
        cluster.accept(make_dyn(1, Opcode.FMUL, dest=40), now=0)
        assert len(cluster.stations["cpx"]) == 2

    def test_simple_ops_balance_across_two_stations(self):
        cluster = Cluster(0)
        for i in range(8):
            assert cluster.accept(make_dyn(i, Opcode.ADD), now=i // 2)
        assert len(cluster.stations["simple0"]) == 4
        assert len(cluster.stations["simple1"]) == 4

    def test_write_port_limit_respected(self):
        cluster = Cluster(0, rs_write_ports=2)
        # 4 simple ops per cycle fit (2 stations x 2 ports); the 5th fails.
        for i in range(4):
            assert cluster.accept(make_dyn(i, Opcode.ADD), now=0)
        assert not cluster.has_space(make_dyn(4, Opcode.ADD), now=0)
        assert cluster.has_space(make_dyn(4, Opcode.ADD), now=1)

    def test_full_station_rejects(self):
        cluster = Cluster(0, rs_entries=2, rs_write_ports=8)
        assert cluster.accept(make_dyn(0, Opcode.MUL), now=0)
        assert cluster.accept(make_dyn(1, Opcode.MUL), now=0)
        assert not cluster.accept(make_dyn(2, Opcode.MUL), now=0)


class TestDispatch:
    def test_dispatches_ready_instruction(self):
        cluster = Cluster(0)
        inst = make_dyn(0, Opcode.ADD)
        cluster.accept(inst, now=0)
        dispatched = []
        n = cluster.dispatch_cycle(1, always_ready,
                                   lambda i, u, now: dispatched.append(i))
        assert n == 1 and dispatched == [inst]
        assert cluster.occupancy == 0

    def test_two_alus_dispatch_two_simple_ops(self):
        cluster = Cluster(0)
        insts = [make_dyn(i, Opcode.ADD) for i in range(4)]
        for inst in insts:
            cluster.accept(inst, now=0)
        dispatched = []
        cluster.dispatch_cycle(1, always_ready,
                               lambda i, u, now: dispatched.append(i))
        assert len(dispatched) == 2  # only two simple-int ALUs
        assert [i.seq for i in dispatched] == [0, 1]  # oldest first

    def test_oldest_first_across_stations(self):
        cluster = Cluster(0)
        # Interleave so the two simple stations hold non-monotonic seqs.
        for seq in (5, 1, 4, 2):
            cluster.accept(make_dyn(seq, Opcode.ADD), now=seq)
        dispatched = []
        cluster.dispatch_cycle(10, always_ready,
                               lambda i, u, now: dispatched.append(i))
        assert [i.seq for i in dispatched] == [1, 2]

    def test_not_ready_not_dispatched(self):
        # False: not this cycle, so the entry stays awake and is polled
        # again next cycle.
        cluster = Cluster(0)
        cluster.accept(make_dyn(0, Opcode.ADD), now=0)
        is_ready, polls = counting(lambda i, now: False)
        for now in (1, 2):
            n = cluster.dispatch_cycle(now, is_ready, lambda i, u, now: None)
            assert n == 0
        assert cluster.occupancy == 1
        assert polls == [(1, 0), (2, 0)]

    def test_parked_entries_cost_no_polls(self):
        # None: the caller parked the entry; it stays buffered but is not
        # polled again until it is woken.
        cluster = Cluster(0)
        inst = make_dyn(0, Opcode.ADD)
        cluster.accept(inst, now=0)
        is_ready, polls = counting(lambda i, now: None if now == 1 else True)
        for now in (1, 2, 3):
            assert cluster.dispatch_cycle(now, is_ready,
                                          lambda i, u, now: None) == 0
        assert polls == [(1, 0)]
        assert cluster.occupancy == 1
        cluster.wake(inst)
        assert cluster.dispatch_cycle(4, is_ready,
                                      lambda i, u, now: None) == 1
        assert polls == [(1, 0), (4, 0)]
        assert cluster.occupancy == 0

    def test_wake_at_polls_again_in_that_cycle(self):
        cluster = Cluster(0)
        inst = make_dyn(0, Opcode.ADD)
        cluster.accept(inst, now=0)

        def until_five(i, now):
            if now < 5:
                cluster.wake_at(i, 5)
                return None
            return True

        is_ready, polls = counting(until_five)
        dispatched = []
        for now in range(1, 7):
            cluster.dispatch_cycle(now, is_ready,
                                   lambda i, u, now: dispatched.append(now))
        assert polls == [(1, 0), (5, 0)]
        assert dispatched == [5]

    def test_woken_entries_poll_in_station_then_age_order(self):
        # Poll order, and so the order classes dispatch in, is station
        # order (mem before the simple stations), then oldest first,
        # whatever order the wake-ups came in.
        cluster = Cluster(0)
        add = make_dyn(0, Opcode.ADD)
        loads = [make_dyn(seq, Opcode.LOAD) for seq in (1, 2)]
        for inst in [add] + loads:
            assert cluster.accept(inst, now=inst.seq)
        is_ready, polls = counting(lambda i, now: None if now == 1 else False)
        cluster.dispatch_cycle(1, is_ready, lambda i, u, now: None)
        assert polls == [(1, 1), (1, 2), (1, 0)]
        for inst in [add] + loads[::-1]:
            cluster.wake(inst)
        cluster.dispatch_cycle(2, is_ready, lambda i, u, now: None)
        assert polls[3:] == [(2, 1), (2, 2), (2, 0)]

    def test_busy_unit_blocks_class(self):
        cluster = Cluster(0)
        div0, div1 = make_dyn(0, Opcode.DIV), make_dyn(1, Opcode.DIV)
        cluster.accept(div0, now=0)
        cluster.accept(div1, now=0)
        cluster.dispatch_cycle(1, always_ready, lambda i, u, now: u.dispatch(i, now))
        n = cluster.dispatch_cycle(2, always_ready,
                                   lambda i, u, now: u.dispatch(i, now))
        assert n == 0  # divider busy for 19 cycles
        n = cluster.dispatch_cycle(20, always_ready,
                                   lambda i, u, now: u.dispatch(i, now))
        assert n == 1

    def test_branch_and_alu_dispatch_same_cycle(self):
        cluster = Cluster(0)
        cluster.accept(make_dyn(0, Opcode.ADD), now=0)
        cluster.accept(make_dyn(1, Opcode.BEQ, dest=None), now=0)
        dispatched = []
        cluster.dispatch_cycle(1, always_ready,
                               lambda i, u, now: dispatched.append((i, u.kind)))
        assert len(dispatched) == 2

    def test_clear(self):
        cluster = Cluster(0)
        cluster.accept(make_dyn(0, Opcode.ADD), now=0)
        cluster.clear()
        assert cluster.occupancy == 0

    def test_cleared_cluster_behaves_like_fresh(self):
        used = Cluster(0)
        # Leave select state behind: a flipped balance toggle, an awake
        # entry, one parked in the calendar, and a busy divider.
        used.accept(make_dyn(90, Opcode.ADD), now=0)
        used.accept(make_dyn(91, Opcode.MUL), now=0)
        used.accept(make_dyn(92, Opcode.DIV), now=0)

        def park_mul(inst, now):
            if inst.seq == 91:
                used.wake_at(inst, 6)
                return None
            return inst.seq == 92

        used.dispatch_cycle(1, park_mul, lambda i, u, now: u.dispatch(i, now))
        used.clear()
        fresh = Cluster(0)

        def replay(cluster):
            placed, dispatched = [], []
            for seq in range(6):
                inst = make_dyn(seq, Opcode.ADD if seq % 3 else Opcode.MUL)
                assert cluster.accept(inst, now=2 + seq // 2)
                placed.extend(name for name, station
                              in cluster.stations.items()
                              if inst in station.entries)
            is_ready, polls = counting(always_ready)
            for now in range(5, 9):
                cluster.dispatch_cycle(
                    now, is_ready,
                    lambda i, u, now: (u.dispatch(i, now),
                                       dispatched.append((now, i.seq, u.name))))
            return placed, dispatched, polls

        assert replay(used) == replay(fresh)
