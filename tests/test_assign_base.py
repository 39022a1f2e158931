"""Unit tests for strategy specs, factory, and shared dependency helpers."""

import pytest

from repro.assign.base import (
    StrategySpec,
    consumer_flags,
    intra_trace_consumers,
    intra_trace_producers,
    make_strategy,
)
from repro.assign.fdrt import FDRTStrategy
from repro.assign.friendly import FriendlyRetireTime
from repro.assign.slot import SlotBaseline
from tests.conftest import link, make_dyn


class TestStrategySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StrategySpec(kind="magic")

    def test_labels(self):
        assert StrategySpec(kind="base").label == "Base"
        assert StrategySpec(kind="issue").label == "No-lat Issue-time"
        assert StrategySpec(kind="issue", steer_latency=4).label == "Issue-time(4)"
        assert StrategySpec(kind="friendly").label == "Friendly"
        assert StrategySpec(kind="friendly", middle_bias=True).label == "Friendly+middle"
        assert StrategySpec(kind="fdrt").label == "FDRT"
        assert StrategySpec(kind="fdrt", pinning=False).label == "FDRT/no-pin"
        assert StrategySpec(kind="fdrt", intra_only=True).label == "FDRT/intra-only"

    def test_factory_types(self, context):
        assert isinstance(make_strategy(StrategySpec(kind="base"), context),
                          SlotBaseline)
        assert isinstance(make_strategy(StrategySpec(kind="issue"), context),
                          SlotBaseline)
        assert isinstance(make_strategy(StrategySpec(kind="friendly"), context),
                          FriendlyRetireTime)
        assert isinstance(make_strategy(StrategySpec(kind="fdrt"), context),
                          FDRTStrategy)

    def test_fdrt_variants_wired(self, context):
        strategy = make_strategy(StrategySpec(kind="fdrt", pinning=False), context)
        assert strategy.pinning is False
        strategy = make_strategy(StrategySpec(kind="fdrt", intra_only=True), context)
        assert strategy.intra_only is True
        assert strategy.uses_chains is False


class TestDependencyHelpers:
    def test_intra_trace_producers(self):
        a = make_dyn(0)
        b = link(make_dyn(1), a)
        c = link(make_dyn(2), a, b)
        producers = intra_trace_producers([a, b, c])
        assert producers == [[], [0], [0, 1]]

    def test_external_producers_ignored(self):
        outside = make_dyn(99)
        a = link(make_dyn(0), outside)
        producers = intra_trace_producers([a])
        assert producers == [[]]

    def test_later_instruction_not_a_producer(self):
        """A link pointing forward (impossible architecturally) is ignored."""
        b = make_dyn(1)
        a = link(make_dyn(0), b)
        producers = intra_trace_producers([a, b])
        assert producers == [[], []]

    def test_intra_trace_consumers(self):
        a = make_dyn(0)
        b = link(make_dyn(1), a)
        c = make_dyn(2)
        consumers = intra_trace_consumers([a, b, c])
        assert consumers == [True, False, False]

    def test_consumer_flags_from_producer_lists(self):
        a = make_dyn(0)
        b = link(make_dyn(1), a)
        c = link(make_dyn(2), a, b)
        producers = intra_trace_producers([a, b, c])
        assert consumer_flags(producers) == [True, True, False]
        assert consumer_flags(producers) == intra_trace_consumers([a, b, c])


class TestIdentityReorder:
    def test_identity_layout(self, context):
        strategy = SlotBaseline(context)
        insts = [make_dyn(i) for i in range(10)]
        slots = strategy.reorder(insts)
        assert len(slots) == 16
        assert slots[:10] == list(range(10))
        assert slots[10:] == [None] * 6

    def test_full_line(self, context):
        strategy = SlotBaseline(context)
        slots = strategy.reorder([make_dyn(i) for i in range(16)])
        assert slots == list(range(16))
