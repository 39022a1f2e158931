"""Integration-level tests of the cycle-accurate pipeline."""

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.pipeline import Pipeline
from repro.isa import Opcode
from repro.isa.instruction import LeaderFollower
from repro.workloads.execution import FunctionalSimulator
from tests.conftest import link, make_dyn


@pytest.fixture(params=["base", "issue", "friendly", "fdrt"])
def any_spec(request):
    return StrategySpec(kind=request.param)


def make_pipeline(program, spec=None, config=None):
    return Pipeline(program, config or MachineConfig(),
                    spec or StrategySpec(kind="base"))


class TestArchitecturalCorrectness:
    def test_retirement_matches_functional_order(self, tiny_program, any_spec):
        """The timing simulator must retire exactly the committed stream."""
        pipeline = make_pipeline(tiny_program, any_spec)
        retired = []
        original = pipeline.fill_unit.retire

        def spy(inst, now):
            retired.append(inst)
            original(inst, now)

        pipeline.fill_unit.retire = spy
        pipeline.run(600)
        reference = FunctionalSimulator(tiny_program).run(len(retired))
        assert [i.seq for i in retired] == [i.seq for i in reference]
        assert [i.pc for i in retired] == [i.pc for i in reference]

    def test_retire_cycles_monotonic(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        cycles = []
        original = pipeline.fill_unit.retire
        pipeline.fill_unit.retire = lambda inst, now: (
            cycles.append(inst.retire_cycle), original(inst, now))
        pipeline.run(500)
        assert cycles == sorted(cycles)

    def test_instruction_lifecycle_ordering(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        checked = []
        original = pipeline.fill_unit.retire

        def spy(inst, now):
            checked.append(inst)
            original(inst, now)

        pipeline.fill_unit.retire = spy
        pipeline.run(500)
        assert len(checked) >= 400
        for inst in checked:
            assert inst.fetch_cycle >= 0
            assert inst.issue_cycle > inst.fetch_cycle
            assert inst.dispatch_cycle > inst.issue_cycle
            assert inst.complete_cycle >= inst.dispatch_cycle
            assert inst.retire_cycle >= inst.complete_cycle

    def test_rob_never_exceeds_capacity(self, tiny_program):
        config = MachineConfig(rob_entries=32)
        pipeline = make_pipeline(tiny_program, config=config)
        max_seen = 0
        for _ in range(2000):
            pipeline.step()
            max_seen = max(max_seen, len(pipeline.rob))
        assert max_seen <= 32

    def test_cluster_assignment_within_range(self, tiny_program, any_spec):
        pipeline = make_pipeline(tiny_program, any_spec)
        seen = []
        original = pipeline.fill_unit.retire
        pipeline.fill_unit.retire = lambda inst, now: (
            seen.append(inst.cluster), original(inst, now))
        pipeline.run(500)
        assert all(0 <= c < 4 for c in seen)


class TestTimingBehaviour:
    def test_forwarding_latency_visible_in_wakeup(self, tiny_program):
        """zero_all forwarding must never be slower than the baseline."""
        base = make_pipeline(tiny_program)
        base.run(3000)
        ideal = make_pipeline(
            tiny_program,
            config=MachineConfig(forward_latency_mode="zero_all"),
        )
        ideal.run(3000)
        assert ideal.stats.ipc >= base.stats.ipc

    def test_wider_rob_never_hurts(self, tiny_program):
        small = make_pipeline(tiny_program, config=MachineConfig(rob_entries=16))
        small.run(3000)
        large = make_pipeline(tiny_program, config=MachineConfig(rob_entries=256))
        large.run(3000)
        assert large.stats.ipc >= small.stats.ipc * 0.98

    def test_critical_stats_populated(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        pipeline.run(3000)
        stats = pipeline.stats
        assert stats.critical_forwarded > 0
        assert stats.forwarded_inputs >= stats.critical_forwarded
        assert 0.0 < stats.pct_deps_critical <= 1.0

    def test_trace_cache_warms_up(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        pipeline.run(6000)
        assert pipeline.stats.pct_tc_instructions > 0.5

    def test_watchdog_raises_on_deadlock(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        pipeline.run(100)
        # Freeze retirement artificially by blocking completion.
        if pipeline.rob:
            for inst in pipeline.rob:
                inst.complete_cycle = 10**9
            inst = pipeline.rob[0]
            with pytest.raises(RuntimeError):
                pipeline.run(10**6)


class TestChainFeedback:
    def test_fdrt_builds_chains(self, tiny_program):
        pipeline = make_pipeline(tiny_program, StrategySpec(kind="fdrt"))
        pipeline.run(6000)
        marked = []
        original = pipeline.fill_unit.retire
        pipeline.fill_unit.retire = lambda inst, now: (
            marked.append(inst.leader_follower), original(inst, now))
        pipeline.run(2000)
        assert LeaderFollower.LEADER in marked
        assert LeaderFollower.FOLLOWER in marked

    def test_base_strategy_builds_no_chains(self, tiny_program):
        pipeline = make_pipeline(tiny_program, StrategySpec(kind="base"))
        pipeline.run(6000)
        marked = []
        original = pipeline.fill_unit.retire
        pipeline.fill_unit.retire = lambda inst, now: (
            marked.append(inst.leader_follower), original(inst, now))
        pipeline.run(2000)
        assert set(marked) == {LeaderFollower.NONE}

    def test_pinned_leader_keeps_cluster(self, tiny_program):
        pipeline = make_pipeline(tiny_program, StrategySpec(kind="fdrt", pinning=True))
        pipeline.run(12000)
        # Sample chain clusters per pc from the trace cache: pinned values
        # must be stable within a line (they are stored per slot).
        lines = [
            line
            for ways in pipeline.trace_cache._sets
            for line in ways
        ]
        leaders = [
            slot for line in lines for slot in line.slots
            if slot is not None and slot.leader_follower == LeaderFollower.LEADER
        ]
        assert leaders
        assert all(0 <= s.chain_cluster < 4 for s in leaders)


class TestStatsReset:
    def test_reset_stats_preserves_state(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        pipeline.run(4000)
        resident = pipeline.trace_cache.resident_lines()
        pipeline.reset_stats()
        assert pipeline.stats.retired == 0
        assert pipeline.trace_cache.resident_lines() == resident
        pipeline.run(1000)
        assert pipeline.stats.retired >= 1000


class TestEventDrivenWakeup:
    """A parked entry is polled again in the first cycle its blocker can
    have cleared: the same cycle if its cluster runs after the one that
    cleared it, otherwise the next.  Until then it costs no polls."""

    @staticmethod
    def record_polls(pipeline):
        polls = []
        for cluster in pipeline.clusters:
            def counted(now, is_ready, on_dispatch,
                        _dispatch=cluster.dispatch_cycle):
                def polled(inst, when):
                    polls.append((when, inst.seq))
                    return is_ready(inst, when)
                return _dispatch(now, polled, on_dispatch)
            cluster.dispatch_cycle = counted
        return polls

    @staticmethod
    def issue(pipeline, inst, cluster_id, now=0):
        assert pipeline.clusters[cluster_id].accept(inst, now)
        pipeline._note_issue(inst, cluster_id, now)
        return inst

    @staticmethod
    def polled_at(polls, seq):
        return [now for now, s in polls if s == seq]

    def test_consumer_wake_cycle_follows_cluster_order(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        producer = self.issue(pipeline, make_dyn(0, srcs=()), 1)
        producer.ready_time = 3
        consumers = {}
        for seq, cluster_id in ((1, 0), (2, 1), (3, 2)):
            consumer = link(make_dyn(seq, srcs=(8,)), producer)
            consumers[cluster_id] = self.issue(pipeline, consumer, cluster_id)
        polls = self.record_polls(pipeline)
        for now in (1, 2, 3):
            pipeline._execute(now)
        assert producer.dispatch_cycle == 3
        # Cluster 2 runs after cluster 1 in the same cycle.
        assert self.polled_at(polls, 3) == [1, 3]
        assert consumers[2].ready_time is not None
        assert self.polled_at(polls, 1) == [1]
        assert self.polled_at(polls, 2) == [1]
        pipeline._execute(4)
        assert self.polled_at(polls, 1) == [1, 4]
        assert self.polled_at(polls, 2) == [1, 4]
        # Parked until cycle 3; no poll in cycle 2.
        assert self.polled_at(polls, 0) == [1, 3]

    def test_load_parked_behind_older_store(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        store = self.issue(pipeline, make_dyn(0, Opcode.STORE, dest=None,
                                              srcs=()), 0)
        store.ready_time = 3
        load = self.issue(pipeline, make_dyn(1, Opcode.LOAD, srcs=()), 0)
        polls = self.record_polls(pipeline)
        for now in range(1, 6):
            pipeline._execute(now)
        assert store.dispatch_cycle == 3
        # Polled once, parked while the store is pending, woken by its
        # dispatch and polled again in the next cycle (same cluster).
        assert self.polled_at(polls, 1) == [1, 4]
        assert load.dispatch_cycle == 4

    def test_port_blocked_load_polled_next_cycle(self, tiny_program):
        pipeline = make_pipeline(tiny_program,
                                 config=MachineConfig(dcache_ports=1))
        load = self.issue(pipeline, make_dyn(0, Opcode.LOAD, srcs=()), 2)
        # Another access holds the only D-cache port in cycle 1.
        pipeline.memory.data_access(99, 0x9000, False, 1)
        polls = self.record_polls(pipeline)
        pipeline._execute(1)
        assert load.dispatch_cycle < 0
        pipeline._execute(2)
        assert self.polled_at(polls, 0) == [1, 2]
        assert load.dispatch_cycle == 2

    def test_parked_entries_cost_no_polls(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        producer = self.issue(pipeline, make_dyn(0, srcs=()), 0)
        producer.ready_time = 50
        for seq in range(1, 5):
            self.issue(pipeline, link(make_dyn(seq, srcs=(8,)), producer),
                       seq % 4)
        polls = self.record_polls(pipeline)
        for now in range(1, 50):
            pipeline._execute(now)
        assert len(polls) == 5  # one poll each, in cycle 1
        assert sum(c.occupancy for c in pipeline.clusters) == 5
