"""Inter-cluster data forwarding network.

The baseline network is a linear chain: forwarding to an adjacent cluster
costs ``hop_latency`` cycles and each additional hop costs the same again;
the end clusters do not communicate directly (paper Section 2.2).  The
"mesh" variant of Figure 8 (after Parcerisa et al.) closes the chain into
a ring so clusters 1 and 4 are adjacent, eliminating three-hop traffic.
A third topology, ``xbar``, models an idealised full crossbar where every
remote cluster is one hop away — the expensive alternative the
point-to-point literature argues against; it is provided for extension
studies, not used by any paper artifact.  Intra-cluster forwarding is
free (same cycle as dispatch).  There are no bandwidth limits between
clusters, matching the paper.
"""

from __future__ import annotations

from itertools import groupby
from typing import Tuple

from repro.cluster.config import MachineConfig


class Interconnect:
    """Distance/latency oracle for a given machine configuration."""

    def __init__(self, config: MachineConfig) -> None:
        self.num_clusters = config.num_clusters
        self.hop_latency = config.hop_latency
        self.topology = config.interconnect
        n = self.num_clusters
        #: ``distances[src][dst]``: cluster hops, precomputed so the hot
        #: path is a table lookup.
        self.distances = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if a == b:
                    d = 0
                elif self.topology == "ring":
                    d = min(abs(a - b), n - abs(a - b))
                elif self.topology == "xbar":
                    d = 1
                else:
                    d = abs(a - b)
                self.distances[a][b] = d
        # Distance orders, built once so cluster choice is a table read.
        #: ``orders[c]``: every cluster sorted by (distance from ``c``, id),
        #: ``c`` itself first.
        self.orders = tuple(
            tuple(sorted(range(n),
                         key=lambda b, a=a: (self.distances[a][b], b)))
            for a in range(n)
        )
        #: ``distance_groups[c]``: the other clusters grouped by distance
        #: from ``c``, nearest group first, ids ascending within a group.
        self.distance_groups = tuple(
            tuple(
                tuple(group) for _, group in
                groupby(self.orders[a][1:], key=self.distances[a].__getitem__)
            )
            for a in range(n)
        )
        #: ``nearest_middle[c]``: the middle cluster nearest ``c`` (lowest
        #: id on a tie), where a fresh FDRT chain anchors.
        middles = config.middle_clusters
        self.nearest_middle = tuple(
            min(middles, key=lambda m, a=a: self.distances[a][m])
            for a in range(n)
        )

    def distance(self, src: int, dst: int) -> int:
        """Number of cluster hops from ``src`` to ``dst``."""
        return self.distances[src][dst]

    def forward_latency(self, src: int, dst: int) -> int:
        """Cycles to forward a result from ``src`` to ``dst``.

        Zero within a cluster; ``hop_latency`` per hop otherwise.
        """
        return self.distances[src][dst] * self.hop_latency

    def neighbors(self, cluster: int) -> Tuple[int, ...]:
        """Clusters exactly one hop from ``cluster``."""
        return tuple(
            c for c in range(self.num_clusters)
            if self.distances[cluster][c] == 1
        )

    def ordered_by_distance(self, cluster: int) -> Tuple[int, ...]:
        """All clusters sorted by distance from ``cluster`` (self first)."""
        return self.orders[cluster]
