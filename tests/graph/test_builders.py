"""Tests for edge-list / adjacency builders."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builders import from_adjacency, from_edge_list, to_undirected


class TestFromEdgeList:
    def test_builds_sorted_neighbor_lists(self):
        g = from_edge_list([(0, 2), (0, 1), (1, 0)])
        assert np.array_equal(g.neighbors(0), [1, 2])
        assert np.array_equal(g.neighbors(1), [0])

    def test_weights_follow_their_edges_through_sorting(self):
        g = from_edge_list([(0, 2), (0, 1)], weights=[20.0, 10.0])
        # Neighbour 1 carries the weight originally attached to edge (0, 1).
        assert g.edge_weights(0)[0] == 10.0
        assert g.edge_weights(0)[1] == 20.0

    def test_labels_follow_their_edges(self):
        g = from_edge_list([(0, 2), (0, 1)], labels=[7, 3])
        assert list(g.edge_labels(0)) == [3, 7]

    def test_num_nodes_inferred_and_explicit(self):
        assert from_edge_list([(0, 4)]).num_nodes == 5
        assert from_edge_list([(0, 1)], num_nodes=10).num_nodes == 10

    def test_explicit_num_nodes_too_small_raises(self):
        with pytest.raises(GraphError):
            from_edge_list([(0, 5)], num_nodes=3)

    def test_deduplicate_removes_parallel_edges(self):
        g = from_edge_list([(0, 1), (0, 1), (0, 2)], deduplicate=True)
        assert g.num_edges == 2

    def test_duplicates_kept_by_default(self):
        assert from_edge_list([(0, 1), (0, 1)]).num_edges == 2

    def test_empty_edge_list(self):
        g = from_edge_list([], num_nodes=3)
        assert g.num_nodes == 3
        assert g.num_edges == 0

    def test_negative_node_ids_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list([(-1, 0)])

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list([(0, 1)], weights=[1.0, 2.0])

    def test_malformed_edges_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list(np.array([[0, 1, 2]]))

    def test_build_memory_stays_within_five_edge_arrays(self):
        """The build's traced peak stays under five int64 arrays of the input's
        length, and the graph keeps only indptr, indices and weights: the edge
        keys the sort used are not held as the (lazy) edge-key cache, and no
        membership filter is built."""
        num_edges = 200_000
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 20_000, size=(num_edges, 2))
        weights = rng.uniform(1.0, 5.0, num_edges)
        tracemalloc.start()
        try:
            g = from_edge_list(edges, num_nodes=20_000, weights=weights, deduplicate=True)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * num_edges
        assert g._edge_key_cache is None
        assert g._edge_filter_cache is None
        assert held <= g.indptr.nbytes + g.indices.nbytes + g.weights.nbytes + 4096


class TestFromAdjacency:
    def test_round_trip(self):
        g = from_adjacency([[1, 2], [2], []])
        assert np.array_equal(g.neighbors(0), [1, 2])
        assert g.num_nodes == 3

    def test_with_weights(self):
        g = from_adjacency([[1], []], weights=[[4.0], []])
        assert g.edge_weights(0)[0] == 4.0

    def test_mismatched_weights_rejected(self):
        with pytest.raises(GraphError):
            from_adjacency([[1, 2]], weights=[[1.0]])


class TestToUndirected:
    def test_every_edge_gets_a_mirror(self):
        g = from_edge_list([(0, 1), (1, 2)], num_nodes=3)
        u = to_undirected(g)
        assert u.has_edge(1, 0)
        assert u.has_edge(2, 1)
        assert u.num_edges == 4

    def test_existing_mirrors_not_duplicated(self):
        g = from_edge_list([(0, 1), (1, 0)], num_nodes=2)
        assert to_undirected(g).num_edges == 2

    def test_weights_copied_to_mirrors(self):
        g = from_edge_list([(0, 1)], num_nodes=2, weights=[3.5])
        u = to_undirected(g)
        assert u.edge_weights(1)[0] == 3.5
