"""Tests for the walk workload specifications.

The central invariant: every workload's vectorised ``transition_weights``
must agree exactly with its scalar ``get_weight`` user code, because the
kernels use the former and Flexi-Compiler analyses the latter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WalkSpecError
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec, UnweightedNode2VecSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.registry import WORKLOADS, make_workload, workload_names
from repro.walks.spec import UniformWalkSpec

from tests.conftest import make_state

ALL_SPECS = [
    UniformWalkSpec(),
    DeepWalkSpec(),
    Node2VecSpec(a=2.0, b=0.5),
    UnweightedNode2VecSpec(a=2.0, b=0.5),
    MetaPathSpec(schema=(0, 1, 2, 3, 4)),
    SecondOrderPRSpec(gamma=0.2),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
class TestVectorisedMatchesScalar:
    def test_first_step(self, spec, small_graph):
        state = make_state(small_graph, node=0)
        start, stop = small_graph.edge_slice(0)
        scalar = np.array([spec.get_weight(small_graph, state, e) for e in range(start, stop)])
        assert np.allclose(spec.transition_weights(small_graph, state), scalar)

    def test_second_step_with_history(self, spec, small_graph):
        prev = int(small_graph.neighbors(0)[0])
        state = make_state(small_graph, node=0, prev=prev, step=1)
        start, stop = small_graph.edge_slice(0)
        scalar = np.array([spec.get_weight(small_graph, state, e) for e in range(start, stop)])
        assert np.allclose(spec.transition_weights(small_graph, state), scalar)

    def test_weights_are_non_negative(self, spec, small_graph):
        prev = int(small_graph.neighbors(2)[0])
        state = make_state(small_graph, node=2, prev=prev, step=2)
        assert np.all(spec.transition_weights(small_graph, state) >= 0)


class TestNode2Vec:
    def test_invalid_parameters(self):
        with pytest.raises(WalkSpecError):
            Node2VecSpec(a=0.0)
        with pytest.raises(WalkSpecError):
            Node2VecSpec(b=-1.0)

    def test_return_edge_gets_inverse_a(self, tiny_graph):
        spec = Node2VecSpec(a=2.0, b=0.5)
        # Walker went 1 -> 0; the edge back to 1 gets weight h / a.
        state = make_state(tiny_graph, node=0, prev=1, step=1)
        weights = spec.transition_weights(tiny_graph, state)
        neighbors = list(tiny_graph.neighbors(0))
        back_index = neighbors.index(1)
        h = tiny_graph.edge_weights(0)
        assert weights[back_index] == pytest.approx(h[back_index] / 2.0)

    def test_common_neighbor_keeps_weight(self, tiny_graph):
        spec = Node2VecSpec(a=2.0, b=0.5)
        # Walker went 1 -> 0; node 2 is a neighbour of 1, so dist(1, 2) = 1.
        state = make_state(tiny_graph, node=0, prev=1, step=1)
        weights = spec.transition_weights(tiny_graph, state)
        neighbors = list(tiny_graph.neighbors(0))
        idx = neighbors.index(2)
        assert weights[idx] == pytest.approx(tiny_graph.edge_weights(0)[idx])

    def test_distant_neighbor_gets_inverse_b(self, tiny_graph):
        spec = Node2VecSpec(a=2.0, b=0.5)
        # Walker went 1 -> 0; node 4 is NOT a neighbour of 1 (1 -> {0, 2}).
        state = make_state(tiny_graph, node=0, prev=1, step=1)
        weights = spec.transition_weights(tiny_graph, state)
        neighbors = list(tiny_graph.neighbors(0))
        idx = neighbors.index(4)
        assert weights[idx] == pytest.approx(tiny_graph.edge_weights(0)[idx] / 0.5)

    def test_first_step_uses_property_weights(self, tiny_graph):
        spec = Node2VecSpec()
        state = make_state(tiny_graph, node=0)
        assert np.allclose(spec.transition_weights(tiny_graph, state), tiny_graph.edge_weights(0))

    def test_unweighted_variant_ignores_property_weights(self, tiny_graph):
        spec = UnweightedNode2VecSpec(a=2.0, b=0.5)
        state = make_state(tiny_graph, node=0)
        assert np.allclose(spec.transition_weights(tiny_graph, state), 1.0)

    def test_describe_includes_hyperparameters(self):
        info = Node2VecSpec(a=3.0, b=0.25).describe()
        assert info["a"] == 3.0
        assert info["b"] == 0.25


class TestMetaPath:
    def test_only_matching_labels_get_weight(self, tiny_graph):
        spec = MetaPathSpec(schema=(0, 1))
        state = make_state(tiny_graph, node=0)
        weights = spec.transition_weights(tiny_graph, state)
        labels = tiny_graph.edge_labels(0)
        assert np.all((weights > 0) == (labels == 0))

    def test_schema_advances_with_step(self, tiny_graph):
        spec = MetaPathSpec(schema=(0, 1))
        state = make_state(tiny_graph, node=0, prev=1, step=1)
        weights = spec.transition_weights(tiny_graph, state)
        labels = tiny_graph.edge_labels(0)
        assert np.all((weights > 0) == (labels == 1))

    def test_schema_wraps_around(self, tiny_graph):
        spec = MetaPathSpec(schema=(0, 1))
        state = make_state(tiny_graph, node=0, prev=1, step=2)
        labels = tiny_graph.edge_labels(0)
        assert np.all((spec.transition_weights(tiny_graph, state) > 0) == (labels == 0))

    def test_default_walk_length_is_schema_depth(self):
        assert MetaPathSpec(schema=(0, 1, 2)).default_walk_length == 3

    def test_requires_labels(self, small_graph):
        unlabelled = small_graph.with_weights(small_graph.weights)
        unlabelled.labels = None
        spec = MetaPathSpec()
        with pytest.raises(WalkSpecError):
            spec.transition_weights(unlabelled, make_state(unlabelled, node=0))

    def test_empty_schema_rejected(self):
        with pytest.raises(WalkSpecError):
            MetaPathSpec(schema=())

    def test_negative_label_rejected(self):
        with pytest.raises(WalkSpecError):
            MetaPathSpec(schema=(0, -1))


class TestSecondOrderPR:
    def test_gamma_bounds(self):
        with pytest.raises(WalkSpecError):
            SecondOrderPRSpec(gamma=1.5)
        with pytest.raises(WalkSpecError):
            SecondOrderPRSpec(gamma=-0.1)

    def test_linked_neighbors_weighted_higher(self, tiny_graph):
        spec = SecondOrderPRSpec(gamma=0.2)
        state = make_state(tiny_graph, node=0, prev=1, step=1)
        weights = spec.transition_weights(tiny_graph, state)
        h = tiny_graph.edge_weights(0)
        # Normalise out the property weight: linked neighbours (2) must carry
        # a strictly larger workload weight than unlinked ones (3, 4).
        per_edge = weights / h
        neighbors = list(tiny_graph.neighbors(0))
        assert per_edge[neighbors.index(2)] > per_edge[neighbors.index(3)]

    def test_first_step_reduces_to_property_weights(self, tiny_graph):
        spec = SecondOrderPRSpec()
        state = make_state(tiny_graph, node=0)
        assert np.allclose(spec.transition_weights(tiny_graph, state), tiny_graph.edge_weights(0))


class TestRegistry:
    def test_all_paper_workloads_registered(self):
        names = workload_names()
        for expected in ("node2vec", "node2vec_unweighted", "metapath", "metapath_unweighted", "2nd_pr"):
            assert expected in names

    def test_make_workload_returns_fresh_instances(self):
        assert make_workload("node2vec") is not make_workload("node2vec")

    def test_unknown_workload_rejected(self):
        with pytest.raises(WalkSpecError):
            make_workload("pagerank-classic")

    def test_dynamic_only_filter(self):
        dynamic = workload_names(dynamic_only=True)
        assert "deepwalk" not in dynamic
        assert "node2vec" in dynamic

    def test_unweighted_entries_marked(self):
        assert not WORKLOADS["node2vec_unweighted"].weighted
        assert WORKLOADS["node2vec"].weighted

