"""Tests for the CSR graph representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builders import from_edge_list
from repro.graph.csr import _FILTER_BITS_PER_EDGE, CSRGraph, as_edge_array
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


@pytest.mark.parametrize("bad", ["x", b"x", "3", None])
class TestNonNumericEdgeIds:
    """A string, bytes or ``None`` id is a GraphError naming the pair, not a
    numpy ValueError from parsing it as a number."""

    def test_edge_list_builder_names_the_first_bad_pair(self, bad):
        with pytest.raises(GraphError, match=r"edge 0 .*not an int64 integer"):
            from_edge_list([(bad, 1)])
        with pytest.raises(GraphError, match=r"edge 1 .*not an int64 integer"):
            from_edge_list([(0, 1), (1, bad)], num_nodes=2)

    def test_graph_delta_names_the_first_bad_pair(self, bad):
        dynamic = DeltaCSRGraph(from_edge_list([(0, 1), (1, 2)], num_nodes=4))
        with pytest.raises(GraphError, match=r"edge 0 .*not an int64 integer"):
            dynamic.apply_delta([(bad, 3)])
        with pytest.raises(GraphError, match=r"edge 1 .*not an int64 integer"):
            dynamic.apply_delta([], removals=[(0, 1), (1, bad)])


@pytest.mark.parametrize("bad", ["a", b"a", "3", None, object()])
class TestNonNumericEdgeLabels:
    """Every label entry point names the edge of a non-numeric label."""

    def test_edge_list_builder_names_the_first_bad_edge(self, bad):
        with pytest.raises(GraphError, match=r"edge \(0, 1\) has label .*int64 integers"):
            from_edge_list([(0, 1)], num_nodes=2, labels=[bad])

    def test_csr_constructor_names_the_first_bad_edge(self, bad):
        labels = np.empty(3, dtype=object)
        labels[:] = [4, bad, 5]
        with pytest.raises(GraphError, match=r"edge \(0, 2\) has label"):
            CSRGraph(indptr=np.array([0, 2, 3, 3]), indices=np.array([1, 2, 2]), labels=labels)

    def test_with_labels_names_the_first_bad_edge(self, bad):
        labels = np.empty(3, dtype=object)
        labels[:] = [0, 1, bad]
        with pytest.raises(GraphError, match=r"edge \(1, 2\) has label"):
            simple_graph().with_labels(labels)

    def test_graph_delta_names_the_first_bad_edge(self, bad):
        base = from_edge_list([(0, 1), (1, 2)], num_nodes=4, labels=[0, 1])
        with pytest.raises(GraphError, match=r"edge \(3, 0\) has label"):
            DeltaCSRGraph(base).apply_delta([(2, 3), (3, 0)], labels=[2, bad])


@pytest.mark.parametrize("bad", [1.5, -0.5, np.nan, np.inf, 2.0**63, 1e20])
class TestEdgeLabelContract:
    """Every label entry point rejects labels it would otherwise truncate."""

    def test_edge_list_builder_names_the_first_bad_edge(self, bad):
        with pytest.raises(GraphError, match=r"edge \(1, 2\) has label .*int64 integers"):
            from_edge_list([(0, 1), (1, 2), (2, 0)], labels=[1.0, bad, bad])

    def test_csr_constructor_names_the_first_bad_edge(self, bad):
        with pytest.raises(GraphError, match=r"edge \(0, 2\) has label"):
            CSRGraph(
                indptr=np.array([0, 2, 3, 3]),
                indices=np.array([1, 2, 2]),
                labels=np.array([4.0, bad, bad]),
            )

    def test_with_labels_names_the_first_bad_edge(self, bad):
        with pytest.raises(GraphError, match=r"edge \(1, 2\) has label"):
            simple_graph().with_labels(np.array([0.0, 1.0, bad]))

    def test_graph_delta_names_the_first_bad_edge(self, bad):
        base = from_edge_list([(0, 1), (1, 2)], num_nodes=4, labels=[0, 1])
        with pytest.raises(GraphError, match=r"edge \(3, 0\) has label"):
            DeltaCSRGraph(base).apply_delta([(2, 3), (3, 0)], labels=[2.0, bad])


class TestEdgeLabelNormalisation:
    def test_integral_float_labels_are_accepted(self):
        g = from_edge_list([(0, 2), (0, 1)], labels=[7.0, 3.0])
        assert g.labels.dtype == np.int64
        assert list(g.edge_labels(0)) == [3, 7]
        assert np.array_equal(simple_graph().with_labels(np.array([1.0, -2.0, 3.0])).labels,
                              [1, -2, 3])
        v1 = DeltaCSRGraph(g).apply_delta([(1, 0)], labels=np.array([5.0]))
        assert v1.compact().labels.tolist() == [3, 7, 5]

    def test_int64_labels_pass_without_a_copy(self):
        labels = np.array([1, 2, 3], dtype=np.int64)
        g = CSRGraph(indptr=np.array([0, 2, 3, 3]), indices=np.array([1, 2, 2]), labels=labels)
        assert g.labels is labels
        assert simple_graph().with_labels(labels).labels is labels
        assert CSRGraph(g.indptr, g.indices, labels=labels.astype(np.int32)).labels.dtype == np.int64

    def test_unsigned_labels_beyond_int64_are_rejected(self):
        with pytest.raises(GraphError, match=r"edge \(0, 1\) has label 9223372036854775808"):
            from_edge_list([(0, 1)], labels=np.array([2**63], dtype=np.uint64))


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
        O(E) in-degree, edge-key and membership-filter caches must carry
        over by identity — a derived graph silently rebuilding them was the
        regression."""
        g = simple_graph()
        in_degrees = g.in_degrees()            # populate all three caches
        g.has_edges(np.array([0]), np.array([1]))
        assert g._in_degree_cache is not None
        assert g._edge_key_cache is not None
        assert g._edge_filter_cache is not None

        weighted = g.with_weights(np.array([5.0, 5.0, 5.0]))
        labeled = g.with_labels(np.array([1, 2, 3]))
        chained = weighted.with_labels(np.array([1, 2, 3]))
        for derived in (weighted, labeled, chained):
            assert derived._in_degree_cache is g._in_degree_cache
            assert derived._edge_key_cache is g._edge_key_cache
            assert derived._edge_filter_cache is g._edge_filter_cache
            assert np.array_equal(derived.in_degrees(), in_degrees)

    def test_caches_populated_after_derivation_are_not_shared_backward(self):
        g = simple_graph()
        derived = g.with_weights(np.array([2.0, 2.0, 2.0]))
        assert derived._in_degree_cache is None  # parent had not built it yet
        derived.in_degrees()
        derived.has_edges(np.array([0]), np.array([2]))
        assert derived._edge_filter_cache is not None
        assert g._in_degree_cache is None        # no backward propagation
        assert g._edge_key_cache is None and g._edge_filter_cache is None

    def test_repr_mentions_counts(self):
        assert "3 nodes" in repr(simple_graph())


class TestMembershipFilter:
    """The hashed filter in front of the exact edge-key search."""

    @staticmethod
    def random_graph(num_edges: int = 50_000, num_nodes: int = 20_000) -> CSRGraph:
        rng = np.random.default_rng(2024)
        return from_edge_list(rng.integers(0, num_nodes, size=(num_edges, 2)), num_nodes=num_nodes)

    def test_filter_is_built_lazily_at_sixteen_bits_per_edge(self):
        g = self.random_graph()
        assert g._edge_filter_cache is None
        g.has_edges(np.array([0]), np.array([0]))
        bits = (_FILTER_BITS_PER_EDGE * g.num_edges - 1).bit_length()
        assert g._edge_filter_cache.dtype == np.uint8
        assert g._edge_filter_cache.size * 8 == 1 << bits
        assert g._edge_filter_cache.nbytes <= 2 * _FILTER_BITS_PER_EDGE * g.num_edges // 8

    def test_every_edge_passes_the_filter(self):
        g = self.random_graph()
        keys = g._edge_keys()
        assert np.array_equal(g._filter_hits(keys), np.arange(keys.size))

    def test_filter_rules_out_most_non_edges(self):
        """Counts work, not seconds: of 100k random non-edges at most 8% may
        reach the binary search (one hash at 16 bits per edge leaves
        1 - e^(-1/16), about 6.1%), so a smaller or weaker filter fails here
        on any host."""
        g = self.random_graph()
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, g.num_nodes, size=(120_000, 2))
        pairs = pairs[~g.has_edges(pairs[:, 0], pairs[:, 1])][:100_000]
        assert pairs.shape[0] == 100_000
        keys = pairs[:, 0] * np.int64(g.num_nodes) + pairs[:, 1]
        passed = g._filter_hits(keys).size
        assert passed <= 0.08 * keys.size

    def test_membership_is_exact_on_edges_and_non_edges(self):
        g = self.random_graph(num_edges=5_000, num_nodes=300)
        src = np.repeat(np.arange(g.num_nodes), g.degrees())
        edges = set(zip(src.tolist(), g.indices.tolist()))
        grid = np.stack(np.meshgrid(np.arange(g.num_nodes), np.arange(g.num_nodes)), -1)
        grid = grid.reshape(-1, 2)
        expected = [(int(a), int(b)) in edges for a, b in grid]
        assert g.has_edges(grid[:, 0], grid[:, 1]).tolist() == expected
