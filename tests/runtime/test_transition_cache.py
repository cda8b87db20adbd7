"""Cross-superstep transition-cache parity and activation rules.

The :class:`~repro.sampling.transition_cache.TransitionCache` is a pure
host-side acceleration: for workloads whose ``get_weight`` never reads walker
state, per-node weights / CDFs / alias tables are computed once per
(graph, spec) and reused across supersteps, devices and repeated runs.  These
tests enforce the two halves of that claim: cached and uncached execution are
*bit-identical* (paths, per-kernel usage, counter totals, per-query simulated
times) for every kernel x workload, and the cache only ever activates for
workloads the analyser proved node-only.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler.generator import compile_workload
from repro.graph.builders import from_edge_list
from repro.graph.generators import barabasi_albert_graph
from repro.graph.labels import random_edge_labels
from repro.graph.weights import uniform_weights
from repro.gpusim.device import A6000
from repro.runtime.engine import WalkEngine
from repro.runtime.selector import CostModelSelector, FixedSelector
from repro.sampling.alias import AliasSampler
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.sampling.ervs import EnhancedReservoirSampler
from repro.sampling.its import InverseTransformSampler
from repro.sampling.rejection import RejectionSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.transition_cache import TransitionCache
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.spec import UniformWalkSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)

SPEC_FACTORIES = {
    "deepwalk": DeepWalkSpec,
    "node2vec": Node2VecSpec,
    "metapath": lambda: MetaPathSpec(schema=(0, 1, 2)),
    "2nd_pr": SecondOrderPRSpec,
}

KERNELS = {
    "eRVS": EnhancedReservoirSampler,
    "eRJS": EnhancedRejectionSampler,
    "ITS": InverseTransformSampler,
    "ALS": AliasSampler,
    "RJS": RejectionSampler,
    "RVS": ReservoirSampler,
}

#: Workloads whose weights are a pure function of the current node.
NODE_ONLY = {"deepwalk"}


def labeled_graph(num_nodes: int, seed: int):
    graph = barabasi_albert_graph(num_nodes, 3, seed=seed, name=f"cache-{seed}")
    graph = graph.with_weights(uniform_weights(graph, seed=seed))
    return graph.with_labels(random_edge_labels(graph, num_labels=5, seed=seed))


def run_cached_and_uncached(graph, spec, selector_factory, seed=0, walk_length=6,
                            num_queries=24):
    compiled = compile_workload(spec, graph)
    queries = make_queries(graph.num_nodes, walk_length=walk_length,
                           num_queries=num_queries, seed=seed)
    results = []
    for cached in (True, False):
        engine = WalkEngine(
            graph=graph, spec=spec, device=DEVICE, seed=seed,
            selector=selector_factory(), compiled=compiled,
            selection_overhead=True, warp_switch_overhead=True,
            use_transition_cache=cached,
        )
        # Two runs through the same engine: the second exercises the
        # cache-warm path (and, uncached, the recompute path).
        engine.run(queries)
        results.append((engine, engine.run(queries)))
    return results


def assert_parity(cached, uncached):
    assert cached.paths == uncached.paths
    assert cached.sampler_usage == uncached.sampler_usage
    assert cached.total_steps == uncached.total_steps
    assert cached.counters.as_dict() == uncached.counters.as_dict()
    assert np.array_equal(cached.per_query_ns, uncached.per_query_ns)
    assert cached.kernel.time_ns == uncached.kernel.time_ns


class TestCachedVsUncachedParity:
    @pytest.mark.parametrize("workload", sorted(SPEC_FACTORIES))
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_kernel_every_workload(self, workload, kernel):
        graph = labeled_graph(50, seed=11)
        spec = SPEC_FACTORIES[workload]()
        (engine_c, cached), (_, uncached) = run_cached_and_uncached(
            graph, spec, lambda: FixedSelector(KERNELS[kernel]())
        )
        assert_parity(cached, uncached)
        # The cache may only exist for node-only workloads, and when it does
        # it must actually have been consulted.
        cache = engine_c._transition_cache()
        if workload in NODE_ONLY:
            assert cache is not None
            assert cache.lookups > 0
        else:
            assert cache is None

    @pytest.mark.parametrize("workload", sorted(SPEC_FACTORIES))
    def test_cost_model_selection(self, workload):
        graph = labeled_graph(60, seed=7)
        spec = SPEC_FACTORIES[workload]()
        (_, cached), (_, uncached) = run_cached_and_uncached(
            graph, spec, CostModelSelector
        )
        assert_parity(cached, uncached)


class TestActivationRules:
    def test_deepwalk_is_node_only(self):
        graph = labeled_graph(30, seed=3)
        compiled = compile_workload(DeepWalkSpec(), graph)
        assert compiled.weights_node_only
        assert not compiled.analysis.reads_state

    def test_uniform_spec_is_node_only(self):
        graph = labeled_graph(30, seed=3)
        compiled = compile_workload(UniformWalkSpec(), graph)
        assert compiled.weights_node_only

    @pytest.mark.parametrize("factory", [
        Node2VecSpec, SecondOrderPRSpec, lambda: MetaPathSpec(schema=(0, 1))
    ])
    def test_state_reading_workloads_are_not(self, factory):
        graph = labeled_graph(30, seed=3)
        compiled = compile_workload(factory(), graph)
        assert compiled.analysis.reads_state
        assert not compiled.weights_node_only

    def test_update_override_disables_the_cache(self):
        class CountingDeepWalk(DeepWalkSpec):
            def update(self, graph, state, next_node):
                state.params["visits"] = state.params.get("visits", 0) + 1

        graph = labeled_graph(30, seed=3)
        compiled = compile_workload(CountingDeepWalk(), graph)
        # get_weight itself is state-free, but the update hook could feed
        # state back through self — the conservative gate must refuse.
        assert not compiled.analysis.reads_state
        assert not compiled.weights_node_only

    def test_engine_flag_disables_the_cache(self):
        graph = labeled_graph(30, seed=5)
        spec = DeepWalkSpec()
        engine = WalkEngine(
            graph=graph, spec=spec, device=DEVICE,
            compiled=compile_workload(spec, graph), use_transition_cache=False,
        )
        assert engine._transition_cache() is None


class TestCacheSharing:
    def test_shared_across_runs_and_device_clones(self):
        graph = labeled_graph(40, seed=9)
        spec = DeepWalkSpec()
        engine = WalkEngine(
            graph=graph, spec=spec, device=DEVICE,
            compiled=compile_workload(spec, graph),
        )
        queries = make_queries(graph.num_nodes, walk_length=5, seed=0)
        engine.run(queries)
        cache = engine._transition_cache()
        fills_after_first = cache.weight_fills
        assert fills_after_first > 0
        engine.run(queries)
        # A repeated run re-reads the cache; nothing is recomputed.
        assert cache.weight_fills == fills_after_first
        clone = engine.with_devices(4, partition_policy="hash")
        result = clone.run(queries)
        assert clone._transition_cache() is cache
        assert cache.weight_fills == fills_after_first
        assert result.num_devices == 4

    def test_bulk_fill_covers_the_whole_graph_at_once(self):
        graph = labeled_graph(40, seed=13)
        spec = DeepWalkSpec()
        engine = WalkEngine(
            graph=graph, spec=spec, device=DEVICE,
            compiled=compile_workload(spec, graph),
        )
        engine.run(make_queries(graph.num_nodes, walk_length=3, seed=0))
        cache = engine._transition_cache()
        # DeepWalk provides static_transition_weights, so the first touch
        # fills every node in one vectorised pass.
        assert cache.weight_fills == graph.num_nodes
        assert np.array_equal(
            cache._weights, graph.weights.astype(np.float64)
        )


class TestRowMaxima:
    """The per-node row maximum eRJS widens hints to, on both fill paths."""

    @staticmethod
    def graph_with_empty_rows():
        # Nodes 2 and 5 have no out-edges: one between two non-empty rows,
        # one at the end.
        edges = [(0, 1), (0, 3), (1, 0), (3, 0), (3, 1), (3, 4), (4, 0)]
        weights = [2.0, 7.5, 1.0, 0.5, 3.0, 3.0, 9.0]
        return from_edge_list(edges, num_nodes=6, weights=weights)

    def expected(self, graph, nodes):
        return np.array([
            graph.weights[graph.indptr[v]:graph.indptr[v + 1]].max()
            if graph.degree(v) else -np.inf
            for v in nodes
        ])

    def test_bulk_fill(self):
        graph = self.graph_with_empty_rows()
        cache = TransitionCache(graph, DeepWalkSpec())
        nodes = np.arange(graph.num_nodes)
        weights, _ = cache.weight_arrays(np.array([0]))
        assert np.array_equal(weights, graph.weights.astype(np.float64))
        assert np.array_equal(cache.weight_arrays(nodes)[1], self.expected(graph, nodes))

    def test_bulk_fill_shares_the_graph_weights_and_never_writes_them(self):
        graph = self.graph_with_empty_rows()
        before = graph.weights.copy()
        cache = TransitionCache(graph, DeepWalkSpec())
        weights, _ = cache.weight_arrays(np.arange(graph.num_nodes))
        assert weights is graph.weights  # no per-version copy
        moved = from_edge_list([(0, 1), (0, 3), (1, 0), (3, 0), (3, 1), (4, 0)],
                               num_nodes=6, weights=[2.0, 7.5, 1.0, 0.5, 4.0, 9.0])
        cache.rebind(moved, np.array([3]))
        assert np.array_equal(graph.weights, before)
        assert np.array_equal(cache.weight_arrays(np.arange(6))[0], moved.weights)

    def test_cdf_and_alias_arrays_exist_only_once_used(self):
        graph = self.graph_with_empty_rows()
        cache = TransitionCache(graph, DeepWalkSpec())
        nodes = np.arange(graph.num_nodes)
        cache.weight_arrays(nodes)
        assert cache._cdf is None and cache._alias_prob is None and cache._alias_idx is None
        moved = from_edge_list([(0, 1), (0, 3), (1, 0), (3, 0), (3, 1), (4, 0)],
                               num_nodes=6, weights=[2.0, 7.5, 1.0, 0.5, 4.0, 9.0])
        cache.rebind(moved, np.array([3]))
        assert cache._cdf is None and cache._alias_prob is None
        fresh = TransitionCache(moved, DeepWalkSpec())
        assert np.array_equal(cache.cdf_arrays(nodes)[0], fresh.cdf_arrays(nodes)[0])
        for mine, theirs in zip(cache.alias_arrays(nodes), fresh.alias_arrays(nodes),
                                strict=True):
            assert np.array_equal(mine, theirs)

    def test_per_node_fill(self):
        class PerNodeDeepWalk(DeepWalkSpec):
            def static_transition_weights(self, graph):
                return None

        graph = self.graph_with_empty_rows()
        cache = TransitionCache(graph, PerNodeDeepWalk())
        nodes = np.array([3, 0, 2, 3])
        assert np.array_equal(cache.weight_arrays(nodes)[1], self.expected(graph, nodes))
        assert cache.weight_fills == 3
