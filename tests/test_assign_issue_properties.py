"""Property test: table-driven issue-time steering equals the sort rule.

``IssueTimeSteering.steer`` walks the interconnect's precomputed distance
groups.  The reference below is the sort-based rule it replaced: each
instruction prefers the cluster of its youngest in-flight producer (else
its youngest completed one), and takes the first cluster with a free slot
in ``sorted(clusters, key=(distance, load, id))``; with no known producer
it takes the least-loaded, lowest-id cluster with a free slot.  Random
windows on chain, ring and crossbar machines must steer identically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.base import AssignmentContext
from repro.assign.issue_time import IssueTimeSteering
from repro.cluster.config import MachineConfig
from repro.cluster.interconnect import Interconnect
from tests.conftest import link, make_dyn


def reference_steer(context, insts, cluster_load):
    """The sort-based steering rule, kept as the specification."""
    interconnect = context.interconnect
    clusters = range(context.num_clusters)
    cap = context.slots_per_cluster
    issued = [0] * context.num_clusters
    load = list(cluster_load)
    tentative = {}

    def cluster_of(producer):
        if producer.cluster >= 0:
            return producer.cluster
        return tentative.get(id(producer), -1)

    def preferred_cluster(inst):
        best_cluster = -1
        best_seq = -1
        for producer in inst.src_producers:
            if producer is None or cluster_of(producer) < 0:
                continue
            if producer.complete_cycle < 0 and producer.seq > best_seq:
                best_cluster = cluster_of(producer)
                best_seq = producer.seq
        if best_cluster < 0:
            for producer in inst.src_producers:
                if producer is None:
                    continue
                cluster = cluster_of(producer)
                if cluster >= 0 and producer.seq > best_seq:
                    best_cluster = cluster
                    best_seq = producer.seq
        return best_cluster if best_cluster >= 0 else None

    def pick(preferred):
        if preferred is not None:
            for cluster in sorted(
                clusters,
                key=lambda c: (interconnect.distance(preferred, c),
                               load[c], c),
            ):
                if issued[cluster] < cap:
                    return cluster
            return None
        candidates = [c for c in clusters if issued[c] < cap]
        if not candidates:
            return None
        return min(candidates, key=lambda c: (load[c], c))

    result = []
    for inst in insts:
        cluster = pick(preferred_cluster(inst))
        result.append(cluster)
        if cluster is not None:
            tentative[id(inst)] = cluster
            issued[cluster] += 1
            load[cluster] += 1
    return result


@st.composite
def steering_case(draw):
    """A machine, the cluster loads and one issue window."""
    num_clusters = draw(st.sampled_from([2, 4]))
    per = draw(st.sampled_from([1, 2, 4]))
    topology = draw(st.sampled_from(["chain", "ring", "xbar"]))
    config = MachineConfig(width=num_clusters * per,
                           num_clusters=num_clusters, interconnect=topology)
    context = AssignmentContext(config, Interconnect(config))
    # Small loads so that load ties, and with them the id tie-break, are
    # common.
    loads = draw(st.lists(st.integers(0, 3), min_size=num_clusters,
                          max_size=num_clusters))
    # Producers already issued before this window: on a cluster or not,
    # in flight or completed.  Sequence numbers may repeat, which pins
    # the first-listed tie-break of the youngest-producer rule.
    outside = []
    for _ in range(draw(st.integers(0, 5))):
        producer = make_dyn(draw(st.integers(0, 6)))
        producer.cluster = draw(st.integers(-1, num_clusters - 1))
        producer.complete_cycle = draw(st.sampled_from([-1, -1, 0, 7]))
        outside.append(producer)
    window = []
    for i in range(draw(st.integers(0, 3 * num_clusters * per))):
        pool = [None] + outside + window
        sources = draw(st.lists(st.sampled_from(pool), max_size=3))
        window.append(link(make_dyn(10 + i), *sources))
    return context, loads, window


@given(steering_case())
@settings(max_examples=400, deadline=None)
def test_table_driven_steer_matches_sort_rule(case):
    context, loads, window = case
    expected = reference_steer(context, window, loads)
    assert IssueTimeSteering(context).steer(window, loads) == expected
