"""Grid → cluster → node → processor topology model.

The paper's experiments always use *two* clusters with the allocated
processors split evenly between them (1+1, 2+2, … 32+32) and two
processors per node (dual-CPU Itanium-2 boxes).  The model here is more
general — any number of clusters, any node widths — because the load
balancer and the network chain dispatch on topology queries
(:meth:`GridTopology.same_node`, :meth:`GridTopology.same_cluster`).

Processor numbering is *global and dense*: PE ids run 0..P-1 across the
whole grid, cluster by cluster, node by node, matching how the runtime
and applications address processors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import TopologyError


@dataclass(frozen=True)
class Processor:
    """One physical processor (PE)."""

    pe: int          # global dense index
    node: int        # global dense node index
    cluster: int     # cluster index


@dataclass(frozen=True)
class Node:
    """One machine hosting one or more processors."""

    node: int
    cluster: int
    pes: Tuple[int, ...]


@dataclass(frozen=True)
class Cluster:
    """A named collection of nodes connected by a low-latency LAN."""

    index: int
    name: str
    nodes: Tuple[Node, ...]
    #: Flattened PE list, precomputed once: ``cluster_pes`` sits on the
    #: multicast-relay hot path, so rebuilding the tuple per call would
    #: be paid once per collective hop.
    pes: Tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pes",
            tuple(pe for node in self.nodes for pe in node.pes))


class GridTopology:
    """Immutable description of the machines an experiment runs on.

    Parameters
    ----------
    cluster_sizes:
        Number of *processors* in each cluster, in cluster order.
    pes_per_node:
        Processors per node (the paper's machines are dual-CPU, so 2).
        The last node of a cluster may be narrower if the count does not
        divide evenly.
    cluster_names:
        Optional display names; defaults to ``cluster0``, ``cluster1``, …
    """

    def __init__(self, cluster_sizes: Sequence[int], pes_per_node: int = 2,
                 cluster_names: Iterable[str] = ()) -> None:
        if not cluster_sizes:
            raise TopologyError("need at least one cluster")
        if any(s <= 0 for s in cluster_sizes):
            raise TopologyError(f"non-positive cluster size in {cluster_sizes}")
        if pes_per_node <= 0:
            raise TopologyError(f"pes_per_node must be positive: {pes_per_node}")

        names = list(cluster_names)
        if not names:
            names = [f"cluster{i}" for i in range(len(cluster_sizes))]
        if len(names) != len(cluster_sizes):
            raise TopologyError("cluster_names length must match cluster_sizes")

        self._clusters: List[Cluster] = []
        self._pe_to_cluster: Dict[int, int] = {}
        self._pe_to_node: Dict[int, int] = {}
        pe = 0
        node_id = 0
        for ci, size in enumerate(cluster_sizes):
            nodes: List[Node] = []
            remaining = size
            while remaining > 0:
                width = min(pes_per_node, remaining)
                pes = tuple(range(pe, pe + width))
                nodes.append(Node(node=node_id, cluster=ci, pes=pes))
                for p in pes:
                    self._pe_to_cluster[p] = ci
                    self._pe_to_node[p] = node_id
                pe += width
                node_id += 1
                remaining -= width
            self._clusters.append(Cluster(index=ci, name=names[ci],
                                          nodes=tuple(nodes)))
        self._num_pes = pe
        self._pes_per_node = pes_per_node

    # -- factory helpers ---------------------------------------------------

    @classmethod
    def single_cluster(cls, num_pes: int, pes_per_node: int = 2,
                       name: str = "local") -> "GridTopology":
        """A conventional one-cluster machine (baseline/no-grid runs)."""
        return cls([num_pes], pes_per_node, [name])

    @classmethod
    def two_cluster(cls, total_pes: int, pes_per_node: int = 2,
                    names: Tuple[str, str] = ("siteA", "siteB")
                    ) -> "GridTopology":
        """The paper's co-allocation: *total_pes* split evenly in two.

        Odd totals are rejected — the paper always uses 1+1 … 32+32.
        """
        if total_pes < 2 or total_pes % 2 != 0:
            raise TopologyError(
                f"two_cluster requires an even total >= 2, got {total_pes}")
        half = total_pes // 2
        return cls([half, half], pes_per_node, list(names))

    # -- queries -------------------------------------------------------------

    @property
    def num_pes(self) -> int:
        """Total processors across all clusters."""
        return self._num_pes

    @property
    def num_clusters(self) -> int:
        return len(self._clusters)

    @property
    def clusters(self) -> Tuple[Cluster, ...]:
        return tuple(self._clusters)

    def pes(self) -> range:
        """All global PE indices."""
        return range(self._num_pes)

    def cluster_of(self, pe: int) -> int:
        """Cluster index hosting *pe*."""
        try:
            return self._pe_to_cluster[pe]
        except KeyError:
            raise TopologyError(f"unknown PE {pe}") from None

    def node_of(self, pe: int) -> int:
        """Global node index hosting *pe*."""
        try:
            return self._pe_to_node[pe]
        except KeyError:
            raise TopologyError(f"unknown PE {pe}") from None

    def same_node(self, pe_a: int, pe_b: int) -> bool:
        """Do two PEs share a physical machine (shared-memory reachable)?"""
        return self.node_of(pe_a) == self.node_of(pe_b)

    def same_cluster(self, pe_a: int, pe_b: int) -> bool:
        """Do two PEs live in the same cluster (LAN reachable)?"""
        return self.cluster_of(pe_a) == self.cluster_of(pe_b)

    def crosses_wan(self, pe_a: int, pe_b: int) -> bool:
        """Would a message between these PEs traverse the wide area?"""
        # Asked once per runtime send (the load database's WAN count),
        # so the common case reads the cluster map directly.
        clusters = self._pe_to_cluster
        try:
            return clusters[pe_a] != clusters[pe_b]
        except KeyError:
            # Unknown PE: cluster_of raises the TopologyError naming it.
            return not self.same_cluster(pe_a, pe_b)

    def cluster_pes(self, cluster: int) -> Tuple[int, ...]:
        """All PE indices belonging to *cluster*."""
        try:
            return self._clusters[cluster].pes
        except IndexError:
            raise TopologyError(f"unknown cluster {cluster}") from None

    def describe(self) -> str:
        """One-line human summary, e.g. ``siteA:8 + siteB:8 (2 PEs/node)``."""
        parts = [f"{c.name}:{len(c.pes)}" for c in self._clusters]
        return " + ".join(parts) + f" ({self._pes_per_node} PEs/node)"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GridTopology({self.describe()})"
