"""Tests for the generated preprocessing (per-node MAX/SUM aggregates)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.preprocess import preprocess_graph, preprocess_rows
from repro.errors import CompilerError
from repro.graph.builders import from_edge_list
from repro.graph.delta import DeltaCSRGraph
from repro.gpusim.device import A6000


@pytest.fixture
def graph():
    # Node 0 -> {1, 2, 3} with weights 3, 1, 2; node 1 -> {0} with weight 5;
    # node 2 has no out-edges.
    return from_edge_list(
        [(0, 1), (0, 2), (0, 3), (1, 0)],
        num_nodes=4,
        weights=[3.0, 1.0, 2.0, 5.0],
        labels=[0, 1, 2, 3],
    )


class TestAggregates:
    def test_per_node_max(self, graph):
        pre = preprocess_graph(graph)
        assert pre.node_max("weights", 0) == 3.0
        assert pre.node_max("weights", 1) == 5.0

    def test_per_node_sum_and_mean(self, graph):
        pre = preprocess_graph(graph)
        assert pre.node_sum("weights", 0) == 6.0
        assert pre.node_mean("weights", 0) == pytest.approx(2.0)

    def test_isolated_node_aggregates_are_zero(self, graph):
        pre = preprocess_graph(graph)
        assert pre.node_max("weights", 2) == 0.0
        assert pre.node_sum("weights", 2) == 0.0
        assert pre.node_mean("weights", 2) == 0.0

    def test_last_row_before_trailing_empty_rows_is_whole(self):
        # Node 1's row is the last non-empty one; nodes 2 and 3 have no
        # out-edges, so its segment must run to the end of the edge array.
        graph = from_edge_list(
            [(0, 1), (1, 0), (1, 2)], num_nodes=4, weights=[1.0, 2.0, 7.0]
        )
        pre = preprocess_graph(graph)
        assert pre.node_max("weights", 1) == 7.0
        assert pre.node_sum("weights", 1) == 9.0
        assert pre.node_max("weights", 3) == 0.0

    def test_label_aggregation(self, graph):
        pre = preprocess_graph(graph, arrays=("weights", "labels"))
        assert pre.has_array("labels")
        assert pre.node_max("labels", 0) == 2.0

    def test_missing_labels_raise(self):
        g = from_edge_list([(0, 1)], num_nodes=2)
        with pytest.raises(CompilerError):
            preprocess_graph(g, arrays=("labels",))

    def test_unknown_array_rejected(self, graph):
        with pytest.raises(CompilerError):
            preprocess_graph(graph, arrays=("indices",))

    def test_duplicate_arrays_computed_once(self, graph):
        pre = preprocess_graph(graph, arrays=("weights", "weights"))
        assert pre.counters.coalesced_accesses == graph.num_edges

    def test_aggregates_match_brute_force(self, small_graph):
        pre = preprocess_graph(small_graph)
        for node in range(small_graph.num_nodes):
            w = small_graph.edge_weights(node)
            if w.size:
                assert pre.node_max("weights", node) == pytest.approx(w.max())
                assert pre.node_sum("weights", node) == pytest.approx(w.sum())


class TestCostAccounting:
    def test_counters_track_edge_sweep(self, graph):
        pre = preprocess_graph(graph)
        assert pre.counters.coalesced_accesses == graph.num_edges
        assert pre.counters.reduction_elements == 2 * graph.num_edges

    def test_simulated_time_reported_with_device(self, graph):
        pre = preprocess_graph(graph, device=A6000)
        assert pre.simulated_time_ns > 0

    def test_no_device_no_time(self, graph):
        assert preprocess_graph(graph).simulated_time_ns == 0.0


class TestTouchedRows:
    def test_touched_rows_equal_a_full_pass(self, graph):
        before = preprocess_graph(graph, arrays=("weights", "labels"), device=A6000)
        # Empty row 1, refill empty row 2, grow row 0 and the trailing row 3.
        version = DeltaCSRGraph(graph).apply_delta(
            [(2, 0), (2, 3), (0, 0), (3, 1)], [(1, 0)],
            weights=[4.0, 0.5, 9.0, 1.5], labels=[5, 6, 7, 8],
        )
        after = version.snapshot()
        carried = preprocess_rows(before, after, version.delta.touched_nodes, device=A6000)
        fresh = preprocess_graph(after, arrays=("weights", "labels"), device=A6000)
        assert list(carried.aggregates) == list(fresh.aggregates)
        for key, values in fresh.aggregates.items():
            assert np.array_equal(carried.aggregates[key], values), key
        assert carried.counters == fresh.counters
        assert carried.simulated_time_ns == fresh.simulated_time_ns
        assert before.aggregates["weights_max"][1] == 5.0  # the old result is untouched
