"""Network model for neighbourhood load balancing.

A :class:`Network` is an undirected graph whose nodes represent processors
(resources) and whose edges represent communication links.  Every node ``i``
carries an integer *speed* ``s_i >= 1`` (heterogeneous processing rates, see
Section 3 of the paper).

The network is an array core.  It is built once, from the node count and
the canonical edge arrays (``u < v``, sorted lexicographically), into

* read-only int64 endpoint arrays :attr:`Network.edge_sources` /
  :attr:`Network.edge_targets` — every per-edge flow in the library is a
  vector aligned with them;
* a CSR adjacency (:attr:`Network.adjacency`: row offsets, sorted
  neighbours and the edge index of every directed slot);
* per-node degrees (``bincount`` of the endpoints) and the edge list
  :attr:`Network.edges` as one stored tuple of ``(u, v)`` pairs (made on
  first access, then returned as is).

networkx lives only at the boundary.  ``Network(nx.Graph)`` converts the
graph to arrays and takes the same path; array-built topologies (see
:mod:`repro.network.topologies`) never touch networkx unless a caller asks
for :attr:`Network.graph`, which is built on first access.

Nodes are always labelled ``0 .. n-1``.  Graphs supplied as
:class:`networkx.Graph` instances with arbitrary hashable labels are relabelled
to integers (the original labels are kept in :attr:`Network.node_labels`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..exceptions import NetworkError

__all__ = ["Adjacency", "Edge", "Network"]

#: An undirected edge, always stored with ``u < v``.
Edge = Tuple[int, int]


class Adjacency(NamedTuple):
    """CSR adjacency: node ``i``'s directed slots are ``offsets[i]:offsets[i+1]``.

    ``neighbors[k]`` is the slot's other endpoint (ascending within a row)
    and ``edge_ids[k]`` the index of the slot's undirected edge in
    :attr:`Network.edges`.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    edge_ids: np.ndarray


def _canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical (sorted) representation of an undirected edge."""
    return (u, v) if u < v else (v, u)


def _frozen(array: Sequence[int]) -> np.ndarray:
    """A read-only int64 copy of ``array``."""
    array = np.array(array, dtype=np.int64)
    array.flags.writeable = False
    return array


class Network:
    """An undirected network of processors with per-node speeds.

    Parameters
    ----------
    graph:
        A :class:`networkx.Graph`.  Self loops are rejected; multi-edges are
        collapsed.  The graph may be disconnected, but most balancing
        processes only make sense on connected graphs, so a validation
        helper :meth:`require_connected` is provided.
    speeds:
        Optional sequence of integer speeds, one per node, each ``>= 1``.
        Defaults to uniform speed 1.
    name:
        Optional human readable name (topology generators fill this in).

    Notes
    -----
    The per-edge flow bookkeeping used throughout the library indexes
    undirected edges by position in :attr:`edges`; :meth:`edge_index` maps an
    unordered node pair to that position.  :meth:`from_arrays` builds a
    network without networkx.
    """

    def __init__(
        self,
        graph: nx.Graph,
        speeds: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise NetworkError("a network must contain at least one node")
        if nx.number_of_selfloops(graph) > 0:
            raise NetworkError("self loops are not allowed in a network")

        node_labels = list(graph.nodes())
        sortable = _is_sortable(node_labels)
        relabelled = nx.convert_node_labels_to_integers(
            graph, ordering="sorted" if sortable else "default"
        )
        n = relabelled.number_of_nodes()
        pairs = np.array(list(relabelled.edges()), dtype=np.int64).reshape(-1, 2)
        low, high = pairs.min(axis=1), pairs.max(axis=1)
        # Sorted unique keys give the canonical edge order (and collapse
        # multi-edges).
        keys = np.unique(low * n + high)
        self._build(n, keys // n, keys % n, speeds, name,
                    sorted(node_labels) if sortable else node_labels, None)
        self.__dict__["graph"] = relabelled  # already built: keep it as .graph

    @classmethod
    def from_arrays(
        cls,
        num_nodes: int,
        sources: Sequence[int],
        targets: Sequence[int],
        speeds: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
        graph_factory: Optional[Callable[[], nx.Graph]] = None,
    ) -> "Network":
        """Build a network from canonical edge arrays, without networkx.

        ``sources[k] < targets[k]`` for every edge and the pairs must be
        sorted lexicographically without repeats.  ``graph_factory`` (a
        picklable zero-argument callable) builds :attr:`graph` on first
        access; by default it is assembled from the arrays (nodes ``0..n-1``,
        edges in canonical order).
        """
        network = cls.__new__(cls)
        network._build(num_nodes, sources, targets, speeds, name, None, graph_factory)
        return network

    def _build(self, num_nodes: int, sources, targets,
               speeds: Optional[Sequence[float]], name: Optional[str],
               node_labels: Optional[List],
               graph_factory: Optional[Callable[[], nx.Graph]]) -> None:
        """The one constructor path: validate the arrays and derive the CSR."""
        n = int(num_nodes)
        if n < 1:
            raise NetworkError("a network must contain at least one node")
        sources, targets = _frozen(sources), _frozen(targets)
        if sources.shape != targets.shape or sources.ndim != 1:
            raise NetworkError("edge endpoint arrays must be 1-d and of equal length")
        keys = sources * n + targets
        if sources.size and (sources.min() < 0 or targets.max() >= n
                             or np.any(sources >= targets) or np.any(np.diff(keys) <= 0)):
            raise NetworkError(
                "edge arrays must be canonical: 0 <= u < v < n, sorted, no repeats")

        self._n = n
        self.name: str = name or "network"
        self.node_labels: List = list(range(n)) if node_labels is None else list(node_labels)
        self._sources = sources
        self._targets = targets
        self._edge_keys = keys  # sorted: edge_indices() searches it
        self._degrees = _frozen(np.bincount(sources, minlength=n)
                                + np.bincount(targets, minlength=n))

        # Directed slots sorted by (source, neighbour): row i of the CSR.
        m = sources.size
        slot_src = np.concatenate((sources, targets))
        slot_dst = np.concatenate((targets, sources))
        order = np.lexsort((slot_dst, slot_src))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=offsets[1:])
        self._adjacency = Adjacency(
            offsets=_frozen(offsets),
            neighbors=_frozen(slot_dst[order]),
            edge_ids=_frozen(np.concatenate((np.arange(m), np.arange(m)))[order]),
        )
        self._graph_factory = graph_factory
        self._speeds = self._validated_speeds(speeds)

    def _validated_speeds(self, speeds: Optional[Sequence[float]]) -> np.ndarray:
        if speeds is None:
            return np.ones(self._n, dtype=float)
        speeds = np.asarray(list(speeds), dtype=float)
        if speeds.shape != (self._n,):
            raise NetworkError(
                f"expected {self._n} speeds, got shape {speeds.shape}"
            )
        if np.any(speeds < 1):
            raise NetworkError("all speeds must be >= 1 (scale so min speed is 1)")
        if not np.all(np.isfinite(speeds)):
            raise NetworkError("speeds must be finite")
        return speeds

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @cached_property
    def graph(self) -> nx.Graph:
        """The :class:`networkx.Graph` with integer labels, built on first access."""
        if self._graph_factory is not None:
            return self._graph_factory()
        graph = nx.Graph()
        graph.add_nodes_from(range(self._n))
        graph.add_edges_from(self.edges)
        return graph

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._sources.size)

    @property
    def nodes(self) -> range:
        """The node identifiers ``0 .. n-1``."""
        return range(self._n)

    @cached_property
    def edges(self) -> Tuple[Edge, ...]:
        """All undirected edges in canonical ``(u, v), u < v`` form."""
        return tuple(zip(self._sources.tolist(), self._targets.tolist()))

    @property
    def edge_sources(self) -> np.ndarray:
        """The ``u`` endpoint of every edge (read-only int64, aligned with :attr:`edges`)."""
        return self._sources

    @property
    def edge_targets(self) -> np.ndarray:
        """The ``v`` endpoint of every edge (read-only int64, aligned with :attr:`edges`)."""
        return self._targets

    @property
    def adjacency(self) -> Adjacency:
        """The read-only CSR adjacency (see :class:`Adjacency`)."""
        return self._adjacency

    @property
    def speeds(self) -> np.ndarray:
        """Per-node speeds (read-only copy)."""
        return self._speeds.copy()

    @property
    def total_speed(self) -> float:
        """The network capacity ``S = s_1 + ... + s_n``."""
        return float(self._speeds.sum())

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degrees (copy)."""
        return self._degrees.copy()

    @property
    def max_degree(self) -> int:
        """The maximum degree ``d`` of the network."""
        return int(self._degrees.max())

    @property
    def min_degree(self) -> int:
        """The minimum degree of the network."""
        return int(self._degrees.min())

    @property
    def is_regular(self) -> bool:
        """Whether every node has the same degree."""
        return bool(self._degrees.min() == self._degrees.max())

    @property
    def has_uniform_speeds(self) -> bool:
        """Whether every node has speed exactly 1."""
        return bool(np.all(self._speeds == 1.0))

    # ------------------------------------------------------------------ #
    # topology queries
    # ------------------------------------------------------------------ #

    def speed(self, node: int) -> float:
        """Return the speed of ``node``."""
        self._check_node(node)
        return float(self._speeds[node])

    def degree(self, node: int) -> int:
        """Return the degree of ``node``."""
        self._check_node(node)
        return int(self._degrees[node])

    @cached_property
    def _neighbor_tuples(self) -> List[Tuple[int, ...]]:
        neighbors = self._adjacency.neighbors.tolist()
        bounds = self._adjacency.offsets.tolist()
        return [tuple(neighbors[bounds[i]:bounds[i + 1]]) for i in range(self._n)]

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Return the sorted tuple of neighbours of ``node``."""
        self._check_node(node)
        return self._neighbor_tuples[node]

    @cached_property
    def _edge_index(self) -> Dict[Edge, int]:
        return {edge: k for k, edge in enumerate(self.edges)}

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return _canonical_edge(u, v) in self._edge_index

    def edge_index(self, u: int, v: int) -> int:
        """Return the index of edge ``{u, v}`` in :attr:`edges`.

        Raises
        ------
        NetworkError
            If the edge does not exist.
        """
        key = _canonical_edge(u, v)
        try:
            return self._edge_index[key]
        except KeyError:
            raise NetworkError(f"edge {key} does not exist") from None

    def edge_indices(self, us: Sequence[int], vs: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`edge_index` over node pairs; ``-1`` marks absent edges."""
        n = self._n
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        low, high = np.minimum(us, vs), np.maximum(us, vs)
        queries = low * n + high
        keys = self._edge_keys
        slots = np.searchsorted(keys, queries)
        found = (low >= 0) & (high < n) & (slots < keys.size)
        found[found] = keys[slots[found]] == queries[found]
        return np.where(found, slots, -1)

    def incident_edges(self, node: int) -> List[int]:
        """Return the indices of all edges incident to ``node`` (neighbour order)."""
        self._check_node(node)
        start, stop = self._adjacency.offsets[node], self._adjacency.offsets[node + 1]
        return self._adjacency.edge_ids[start:stop].tolist()

    @cached_property
    def _connected(self) -> bool:
        # Frontier BFS from node 0 over the CSR, one numpy step per level.
        offsets, neighbors, _ = self._adjacency
        seen = np.zeros(self._n, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            starts = offsets[frontier]
            counts = offsets[frontier + 1] - starts
            firsts = np.cumsum(counts) - counts
            slots = np.arange(counts.sum()) + np.repeat(starts - firsts, counts)
            reached = neighbors[slots]
            frontier = np.unique(reached[~seen[reached]])
            seen[frontier] = True
        return bool(seen.all())

    def is_connected(self) -> bool:
        """Whether the network is connected (single-node networks are)."""
        return self._connected

    def require_connected(self) -> None:
        """Raise :class:`NetworkError` unless the network is connected."""
        if not self.is_connected():
            raise NetworkError(
                f"network '{self.name}' must be connected for this operation"
            )

    def diameter(self) -> int:
        """Return the graph diameter (requires a connected network)."""
        self.require_connected()
        if self._n == 1:
            return 0
        return int(nx.diameter(self.graph))

    # ------------------------------------------------------------------ #
    # matrices
    # ------------------------------------------------------------------ #

    def adjacency_matrix(self) -> np.ndarray:
        """Return the dense ``n x n`` adjacency matrix."""
        a = np.zeros((self._n, self._n), dtype=float)
        a[self._sources, self._targets] = 1.0
        a[self._targets, self._sources] = 1.0
        return a

    def laplacian_matrix(self) -> np.ndarray:
        """Return the dense combinatorial Laplacian ``L = D - A``."""
        lap = -self.adjacency_matrix()
        np.fill_diagonal(lap, self._degrees.astype(float))
        return lap

    # ------------------------------------------------------------------ #
    # derived networks
    # ------------------------------------------------------------------ #

    def with_speeds(self, speeds: Sequence[float]) -> "Network":
        """Return this network with different node speeds.

        The result shares this network's immutable edge arrays, CSR and
        already-built caches; only the speeds are validated and replaced.
        """
        clone = object.__new__(Network)
        clone.__dict__.update(self.__dict__)
        clone._speeds = self._validated_speeds(speeds)
        return clone

    def subnetwork(self, nodes: Iterable[int]) -> "Network":
        """Return the sub-network induced by ``nodes`` (relabelled 0..k-1)."""
        nodes = sorted(set(nodes))
        for node in nodes:
            self._check_node(node)
        sub = self.graph.subgraph(nodes).copy()
        speeds = [self._speeds[node] for node in nodes]
        return Network(sub, speeds=speeds, name=f"{self.name}[sub]")

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(name={self.name!r}, n={self._n}, m={self.num_edges}, "
            f"max_degree={self.max_degree}, uniform_speeds={self.has_uniform_speeds})"
        )

    def _check_node(self, node: int) -> None:
        if not (isinstance(node, (int, np.integer)) and 0 <= node < self._n):
            raise NetworkError(f"node {node!r} is not a valid node id (0..{self._n - 1})")


def _is_sortable(labels: List) -> bool:
    """Whether a list of node labels can be sorted with ``sorted``."""
    try:
        sorted(labels)
        return True
    except TypeError:
        return False
