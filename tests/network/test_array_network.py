"""Differential tests for the array-native :class:`Network` core.

The regular topologies are built from edge arrays without networkx; these
tests pin them to the networkx constructions they replace (numbering, edge
order, neighbours, degrees, labels, names and the adjacency order of the
lazily built ``.graph``, which the greedy edge colouring depends on), and
pin the CSR connectivity test and the vectorised alpha helpers to their
scalar definitions.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NetworkError, ProcessError
from repro.network import topologies
from repro.network.graph import Network
from repro.network.matchings import edge_coloring
from repro.network.spectral import AlphaScheme, alphas_to_array, compute_alphas


def _networkx_reference(graph: nx.Graph, name: str) -> Network:
    """The networkx construction the array builders replace."""
    return Network(nx.convert_node_labels_to_integers(graph), name=name)


def _assert_same_network(built: Network, reference: Network) -> None:
    assert built.num_nodes == reference.num_nodes
    assert built.edges == reference.edges
    assert [built.neighbors(i) for i in built.nodes] == [
        reference.neighbors(i) for i in reference.nodes]
    np.testing.assert_array_equal(built.degrees, reference.degrees)
    assert built.node_labels == reference.node_labels
    assert built.name == reference.name
    # Same node order and adjacency order: nx.line_graph + greedy colouring
    # (the periodic matching schedule) iterate them.
    built_graph, reference_graph = built.graph, reference.graph
    assert list(built_graph.nodes()) == list(reference_graph.nodes())
    assert all(list(built_graph.adj[u]) == list(reference_graph.adj[u])
               for u in reference_graph)


class TestTopologyBuildersMatchNetworkx:
    @pytest.mark.parametrize("side", [2, 3, 4, 7, 16])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_torus(self, side, dims):
        reference = _networkx_reference(
            nx.grid_graph(dim=[side] * dims, periodic=True), f"torus-{dims}d-{side}")
        _assert_same_network(topologies.torus(side, dims), reference)

    @pytest.mark.parametrize("dimension", range(1, 11))
    def test_hypercube(self, dimension):
        reference = _networkx_reference(nx.hypercube_graph(dimension),
                                        f"hypercube-{dimension}")
        _assert_same_network(topologies.hypercube(dimension), reference)

    @pytest.mark.parametrize("n", [3, 4, 5, 16, 33])
    def test_cycle(self, n):
        _assert_same_network(topologies.cycle(n),
                             _networkx_reference(nx.cycle_graph(n), f"cycle-{n}"))

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 33])
    def test_path(self, n):
        _assert_same_network(topologies.path(n),
                             _networkx_reference(nx.path_graph(n), f"path-{n}"))

    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_complete(self, n):
        _assert_same_network(topologies.complete(n),
                             _networkx_reference(nx.complete_graph(n), f"complete-{n}"))

    @pytest.mark.parametrize("dimension", [3, 7])
    def test_edge_colouring_unchanged(self, dimension):
        reference = _networkx_reference(nx.hypercube_graph(dimension), "reference")
        assert edge_coloring(topologies.hypercube(dimension)) == edge_coloring(reference)


@st.composite
def graphs(draw):
    """Small graphs, connected or not, including the single-node graph."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1])
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(draw(st.lists(pairs, max_size=3 * n)))
    return graph


class TestCsrConnectivity:
    @given(graph=graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx(self, graph):
        assert Network(graph).is_connected() == nx.is_connected(graph)

    def test_single_node_is_connected(self):
        single = nx.Graph()
        single.add_node(0)
        assert Network(single).is_connected()

    def test_isolated_node_disconnects(self):
        graph = nx.path_graph(4)
        graph.add_node(9)
        network = Network(graph)
        assert not network.is_connected()
        with pytest.raises(NetworkError):
            network.require_connected()


class TestArrayCore:
    def test_edges_is_one_stored_tuple(self):
        network = topologies.torus(4)
        assert network.edges is network.edges

    def test_endpoint_and_csr_arrays_are_read_only_int64(self):
        network = topologies.torus(5)
        arrays = (network.edge_sources, network.edge_targets) + tuple(network.adjacency)
        for array in arrays:
            assert array.dtype == np.int64
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_endpoint_arrays_align_with_edges(self):
        network = topologies.hypercube(4)
        assert list(zip(network.edge_sources.tolist(),
                        network.edge_targets.tolist())) == list(network.edges)

    def test_csr_rows_are_the_neighbour_lists(self):
        network = topologies.random_regular(30, 3, seed=5)
        offsets, neighbors, edge_ids = network.adjacency
        for node in network.nodes:
            row = slice(offsets[node], offsets[node + 1])
            assert tuple(neighbors[row].tolist()) == network.neighbors(node)
            assert edge_ids[row].tolist() == [
                network.edge_index(node, j) for j in network.neighbors(node)]

    def test_graph_is_built_lazily_and_round_trips(self):
        network = topologies.torus(6, dims=3)
        assert "graph" not in vars(network)
        assert Network(network.graph).edges == network.edges
        assert network.graph is network.graph

    def test_default_lazy_graph_round_trips(self):
        network = Network.from_arrays(4, [0, 0, 2], [1, 3, 3], name="square-ish")
        assert Network(network.graph).edges == network.edges

    def test_with_speeds_shares_the_topology(self):
        network = topologies.torus(4)
        fast = network.with_speeds(np.arange(1, 17))
        assert fast.edges == network.edges
        assert np.shares_memory(fast.edge_sources, network.edge_sources)
        assert np.shares_memory(fast.edge_targets, network.edge_targets)
        assert fast.speed(15) == 16.0
        assert network.has_uniform_speeds

    def test_with_speeds_still_validates(self):
        with pytest.raises(NetworkError):
            topologies.cycle(4).with_speeds([1, 1, 0.5, 1])
        with pytest.raises(NetworkError):
            topologies.cycle(4).with_speeds([1, 1, 1])

    @pytest.mark.parametrize("sources, targets", [
        ([1, 0], [2, 1]),      # not sorted
        ([0, 0], [1, 1]),      # repeated edge
        ([1], [0]),            # u > v
        ([0], [4]),            # out of range
    ])
    def test_from_arrays_rejects_non_canonical_edges(self, sources, targets):
        with pytest.raises(NetworkError):
            Network.from_arrays(4, sources, targets)

    def test_edge_indices_match_edge_index(self):
        network = topologies.torus(3)
        us = [0, 1, 0, 8, 0, -1, 0]
        vs = [1, 0, 4, 6, 0, 0, 12]
        expected = [network.edge_index(u, v) if network.has_edge(u, v) else -1
                    for u, v in zip(us, vs)]
        assert network.edge_indices(us, vs).tolist() == expected


def _scalar_alphas(network, scheme):
    """The per-edge definition of each alpha scheme."""
    degrees, speeds, d_max = network.degrees, network.speeds, network.max_degree
    denominators = {
        AlphaScheme.MAX_DEGREE_PLUS_ONE: lambda u, v: max(degrees[u], degrees[v]) + 1,
        AlphaScheme.HALF_MAX_DEGREE: lambda u, v: 2 * max(degrees[u], degrees[v]),
        AlphaScheme.GLOBAL_DEGREE: lambda u, v: d_max + 1,
    }
    return {(u, v): float(min(speeds[u], speeds[v])) / float(denominators[scheme](u, v))
            for u, v in network.edges}


class TestVectorisedAlphas:
    @pytest.mark.parametrize("scheme", AlphaScheme.ALL)
    def test_compute_alphas_bit_identical(self, scheme):
        network = topologies.barbell(5, 3)
        network = network.with_speeds(1 + np.arange(network.num_nodes) % 3)
        alphas = compute_alphas(network, scheme)
        assert list(alphas) == list(network.edges)
        assert alphas == _scalar_alphas(network, scheme)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ProcessError):
            compute_alphas(topologies.cycle(5), "no-such-scheme")

    def test_alphas_to_array_accepts_either_orientation(self):
        network = topologies.cycle(5)
        alphas = {(v, u): 0.25 for u, v in network.edges}
        np.testing.assert_array_equal(alphas_to_array(network, alphas),
                                      np.full(network.num_edges, 0.25))

    def test_alphas_to_array_rejects_bad_entries(self):
        network = topologies.cycle(5)
        alphas = compute_alphas(network)
        with pytest.raises(ProcessError, match="positive"):
            alphas_to_array(network, {**alphas, (0, 1): 0.0})
        with pytest.raises(NetworkError):
            alphas_to_array(network, {**alphas, (0, 2): 0.1})
        with pytest.raises(ProcessError, match="missing"):
            alphas_to_array(network, {(0, 1): 0.1})
