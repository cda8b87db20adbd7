"""Tests for the CSR graph representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builders import from_edge_list
from repro.graph.csr import CSRGraph, as_edge_array
from repro.graph.delta import DeltaCSRGraph


def simple_graph() -> CSRGraph:
    # 0 -> {1, 2}, 1 -> {2}, 2 -> {}
    return CSRGraph(
        indptr=np.array([0, 2, 3, 3]),
        indices=np.array([1, 2, 2]),
        weights=np.array([1.0, 2.0, 3.0]),
    )


class TestConstruction:
    def test_basic_counts(self):
        g = simple_graph()
        assert g.num_nodes == 3
        assert g.num_edges == 3

    def test_default_weights_are_ones(self):
        g = CSRGraph(indptr=np.array([0, 1]), indices=np.array([0]))
        assert np.array_equal(g.weights, [1.0])
        assert not g.is_weighted

    def test_is_weighted_detects_non_uniform_weights(self):
        assert simple_graph().is_weighted

    def test_rejects_indptr_not_starting_at_zero(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))

    def test_rejects_indptr_edge_count_mismatch(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 2]), indices=np.array([0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 2, 1, 3]), indices=np.array([0, 1, 2]))

    def test_rejects_out_of_range_destination(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]))

    def test_rejects_negative_weights(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([0]), weights=np.array([-1.0]))

    def test_rejects_mismatched_weight_length(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([0]), weights=np.array([1.0, 2.0]))

    def test_rejects_mismatched_label_length(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([0]), labels=np.array([1, 2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
class TestWeightContract:
    """The base graph rejects every weight a graph delta rejects."""

    def test_csr_constructor_names_the_first_bad_edge(self, bad):
        with pytest.raises(GraphError, match=r"edge \(1, 2\) has weight .*finite and non-negative"):
            CSRGraph(
                indptr=np.array([0, 2, 3, 3]),
                indices=np.array([1, 2, 2]),
                weights=np.array([1.0, 2.0, bad]),
            )

    def test_edge_list_builder_names_the_first_bad_edge(self, bad):
        with pytest.raises(GraphError, match=r"edge \(1, 2\) has weight"):
            from_edge_list([(0, 1), (1, 2)], weights=[1.0, bad])

    def test_later_bad_edges_are_not_named(self, bad):
        with pytest.raises(GraphError, match=r"edge \(0, 2\)"):
            from_edge_list([(0, 1), (0, 2), (2, 0)], weights=[1.0, bad, bad])


@pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, 1e20])
class TestEdgeIdContract:
    """Both edge entry points reject ids they would otherwise cast to another node."""

    def test_edge_list_builder_names_the_first_bad_pair(self, bad):
        message = r"edge 1 \(1\.0, .*\) has a node id that is not an int64 integer"
        with pytest.raises(GraphError, match=message):
            from_edge_list([(0, 1), (1, bad), (bad, 0)])
        with pytest.raises(GraphError, match=r"edge 0 .*not an int64 integer"):
            from_edge_list(np.array([[bad, 2.0]]))

    def test_graph_delta_names_the_first_bad_pair(self, bad):
        dynamic = DeltaCSRGraph(from_edge_list([(0, 1), (1, 2)], num_nodes=4))
        with pytest.raises(GraphError, match=r"edge 0 .*not an int64 integer"):
            dynamic.apply_delta(np.array([[bad, 3.0]]))
        with pytest.raises(GraphError, match=r"edge 1 .*not an int64 integer"):
            dynamic.apply_delta([], removals=[(0, 1), (1, bad)])


class TestEdgeIdNormalisation:
    def test_integral_floats_are_accepted(self):
        g = from_edge_list(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert g.num_nodes == 3
        assert np.array_equal(g.neighbors(0), [2])
        v1 = DeltaCSRGraph(g).apply_delta([(2.0, 1.0)])
        assert v1.has_edge(2, 1)

    def test_int64_arrays_pass_without_a_copy(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        assert as_edge_array(edges) is edges
        assert as_edge_array(edges.astype(np.int32)).dtype == np.int64


class TestAccessors:
    def test_degrees(self):
        g = simple_graph()
        assert np.array_equal(g.degrees(), [2, 1, 0])
        assert g.degree(0) == 2
        assert g.degree(2) == 0
        assert g.max_degree() == 2

    def test_in_degrees(self):
        g = simple_graph()
        assert np.array_equal(g.in_degrees(), [0, 1, 2])

    def test_neighbors_and_weights(self):
        g = simple_graph()
        assert np.array_equal(g.neighbors(0), [1, 2])
        assert np.array_equal(g.edge_weights(0), [1.0, 2.0])
        assert g.neighbors(2).size == 0

    def test_edge_slice(self):
        g = simple_graph()
        assert g.edge_slice(0) == (0, 2)
        assert g.edge_slice(1) == (2, 3)

    def test_has_edge(self):
        g = simple_graph()
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 2)
        assert not g.has_edge(0, 0)
        assert not g.has_edge(2, 0)

    def test_node_out_of_range_raises(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.neighbors(3)
        with pytest.raises(GraphError):
            g.degree(-1)

    def test_edge_labels_require_labels(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.edge_labels(0)


class TestDerivedGraphs:
    def test_with_weights_replaces_weights_only(self):
        g = simple_graph()
        g2 = g.with_weights(np.array([5.0, 5.0, 5.0]))
        assert np.array_equal(g2.weights, [5.0, 5.0, 5.0])
        assert np.array_equal(g2.indices, g.indices)
        assert np.array_equal(g.weights, [1.0, 2.0, 3.0])

    def test_with_labels_attaches_labels(self):
        g = simple_graph().with_labels(np.array([1, 2, 3]))
        assert g.has_labels
        assert np.array_equal(g.edge_labels(0), [1, 2])

    def test_memory_footprint_scales_with_weight_bytes(self):
        g = simple_graph()
        assert g.memory_footprint_bytes(weight_bytes=8) > g.memory_footprint_bytes(weight_bytes=1)

    def test_derivation_propagates_topology_caches(self):
        """with_weights/with_labels share indptr/indices unchanged, so the
        O(E) in-degree and edge-key caches must carry over by identity —
        a derived graph silently rebuilding them was the regression."""
        g = simple_graph()
        in_degrees = g.in_degrees()            # populate both caches
        g.has_edges(np.array([0]), np.array([1]))
        assert g._in_degree_cache is not None
        assert g._edge_key_cache is not None

        weighted = g.with_weights(np.array([5.0, 5.0, 5.0]))
        labeled = g.with_labels(np.array([1, 2, 3]))
        chained = weighted.with_labels(np.array([1, 2, 3]))
        for derived in (weighted, labeled, chained):
            assert derived._in_degree_cache is g._in_degree_cache
            assert derived._edge_key_cache is g._edge_key_cache
            assert np.array_equal(derived.in_degrees(), in_degrees)

    def test_caches_populated_after_derivation_are_not_shared_backward(self):
        g = simple_graph()
        derived = g.with_weights(np.array([2.0, 2.0, 2.0]))
        assert derived._in_degree_cache is None  # parent had not built it yet
        derived.in_degrees()
        assert g._in_degree_cache is None        # no backward propagation

    def test_repr_mentions_counts(self):
        assert "3 nodes" in repr(simple_graph())
