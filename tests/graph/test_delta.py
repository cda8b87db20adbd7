"""Unit tests for the delta-CSR overlay (dynamic graphs).

The overlay's load-bearing invariants:

* ``compact()`` is bit-identical to building the same edge set from scratch
  with ``from_edge_list`` — indptr, indices, weights and labels;
* the merged-adjacency view agrees with the compacted CSR for every node;
* delta semantics are strict (duplicate adds, phantom removals, node-range
  violations all raise);
* the incremental CSR cache repairs equal a from-scratch rebuild;
* scoped rebinds of derived structures preserve untouched state by identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builders import from_edge_list
from repro.graph.delta import DeltaCSRGraph, GraphDelta
from repro.graph.invalidation import (
    DeltaInvalidation,
    graph_version,
    invalidation_for,
    repair_csr_caches,
)
from repro.graph.sharded import ShardedCSRGraph
from repro.sampling.transition_cache import TransitionCache
from repro.walks.deepwalk import DeepWalkSpec


def base_graph(n: int = 30, m: int = 120, seed: int = 0, labeled: bool = False):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    labels = rng.integers(0, 4, size=m) if labeled else None
    return from_edge_list(
        edges, num_nodes=n, weights=rng.random(m), labels=labels, deduplicate=True
    )


def some_delta(dynamic: DeltaCSRGraph, seed: int = 1, adds: int = 10, rems: int = 6):
    """Valid (additions, removals) pair against the given version."""
    rng = np.random.default_rng(seed)
    n = dynamic.num_nodes
    cand = rng.integers(0, n, size=(8 * adds, 2))
    fresh = np.unique(cand[~dynamic.has_edges(cand[:, 0], cand[:, 1])], axis=0)[:adds]
    edges = dynamic.edge_list()[0]
    take = rng.choice(edges.shape[0], min(rems, edges.shape[0]), replace=False)
    removals = np.unique(edges[take], axis=0)
    return fresh, removals


class TestConstruction:
    def test_version_zero_is_the_base(self):
        g = base_graph()
        d = DeltaCSRGraph(g)
        assert d.version == 0 and d.delta is None
        assert d.num_nodes == g.num_nodes and d.num_edges == g.num_edges
        assert d.snapshot() is g  # no copy until the first delta
        assert d.compact() is g

    def test_base_must_be_csr(self):
        with pytest.raises(GraphError):
            DeltaCSRGraph("not a graph")

    def test_graph_version_helper(self):
        g = base_graph()
        d = DeltaCSRGraph(g)
        assert graph_version(g) == 0
        assert graph_version(d) == 0
        assert graph_version(d.apply_delta([], [tuple(d.edge_list()[0][0])])) == 1


class TestApplyDelta:
    def test_versions_are_immutable_and_monotonic(self):
        d0 = DeltaCSRGraph(base_graph())
        adds, rems = some_delta(d0)
        d1 = d0.apply_delta(adds, rems, weights=np.ones(len(adds)))
        assert (d0.version, d1.version) == (0, 1)
        assert d0.num_delta_edges == 0  # parent untouched
        d2 = d1.apply_delta(*some_delta(d1, seed=2))
        assert d2.version == 2
        assert d1.num_edges == d0.num_edges + len(adds) - rems.shape[0]

    def test_added_edges_are_visible_and_removed_edges_are_not(self):
        d0 = DeltaCSRGraph(base_graph())
        adds, rems = some_delta(d0)
        d1 = d0.apply_delta(adds, rems)
        assert d1.has_edges(adds[:, 0], adds[:, 1]).all()
        assert not d1.has_edges(rems[:, 0], rems[:, 1]).any()
        # the parent version still sees the old edge set
        assert d0.has_edges(rems[:, 0], rems[:, 1]).all()
        assert not d0.has_edges(adds[:, 0], adds[:, 1]).any()

    def test_duplicate_addition_rejected(self):
        d0 = DeltaCSRGraph(base_graph())
        live = tuple(d0.edge_list()[0][0])
        with pytest.raises(GraphError, match="already exists"):
            d0.apply_delta([live])

    def test_phantom_removal_rejected(self):
        d0 = DeltaCSRGraph(base_graph())
        adds, _ = some_delta(d0)
        with pytest.raises(GraphError, match="does not exist"):
            d0.apply_delta([], [tuple(adds[0])])

    def test_add_and_remove_same_edge_rejected(self):
        d0 = DeltaCSRGraph(base_graph())
        adds, _ = some_delta(d0)
        with pytest.raises(GraphError, match="add and remove"):
            d0.apply_delta([tuple(adds[0])], [tuple(adds[0])])

    def test_out_of_range_node_rejected(self):
        d0 = DeltaCSRGraph(base_graph())
        with pytest.raises(GraphError, match="outside"):
            d0.apply_delta([(0, d0.num_nodes)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_weight_rejected(self, bad):
        d0 = DeltaCSRGraph(base_graph())
        adds, _ = some_delta(d0)
        src, dst = (int(v) for v in adds[1])
        with pytest.raises(GraphError, match=rf"edge \({src}, {dst}\) has weight"):
            d0.apply_delta(adds[:2], weights=[1.0, bad])

    def test_labels_required_iff_base_labeled(self):
        labeled = DeltaCSRGraph(base_graph(labeled=True))
        adds, _ = some_delta(labeled)
        with pytest.raises(GraphError, match="labels"):
            labeled.apply_delta(adds)
        plain = DeltaCSRGraph(base_graph())
        adds2, _ = some_delta(plain)
        with pytest.raises(GraphError, match="no edge labels"):
            plain.apply_delta(adds2, labels=np.zeros(len(adds2), dtype=np.int64))

    def test_graph_delta_pass_through(self):
        d0 = DeltaCSRGraph(base_graph())
        adds, rems = some_delta(d0)
        d1 = d0.apply_delta(adds, rems)
        again = d0.apply_delta(d1.delta)
        assert isinstance(d1.delta, GraphDelta)
        assert np.array_equal(again.compact().indices, d1.compact().indices)
        with pytest.raises(GraphError, match="not both"):
            d0.apply_delta(d1.delta, rems)

    def test_touched_sets(self):
        d0 = DeltaCSRGraph(base_graph())
        adds, rems = some_delta(d0)
        d1 = d0.apply_delta(adds, rems)
        expect = np.unique(np.concatenate([adds[:, 0], rems[:, 0]]))
        assert np.array_equal(d1.delta.touched_nodes, expect)
        expect_dst = np.unique(np.concatenate([adds[:, 1], rems[:, 1]]))
        assert np.array_equal(d1.delta.touched_destinations, expect_dst)


class TestMergedView:
    @pytest.mark.parametrize("labeled", [False, True])
    def test_merged_adjacency_matches_compacted(self, labeled):
        d0 = DeltaCSRGraph(base_graph(labeled=labeled))
        adds, rems = some_delta(d0)
        labels = np.arange(len(adds), dtype=np.int64) if labeled else None
        d1 = d0.apply_delta(adds, rems, labels=labels)
        compacted = d1.compact()
        nodes = np.arange(d1.num_nodes, dtype=np.int64)
        indptr, indices, weights, lbl = d1.merged_adjacency(nodes)
        assert np.array_equal(indptr, compacted.indptr)
        assert np.array_equal(indices, compacted.indices)
        assert np.array_equal(weights, compacted.weights)
        if labeled:
            assert np.array_equal(lbl, compacted.labels)
        else:
            assert lbl is None

    def test_per_node_accessors(self):
        d0 = DeltaCSRGraph(base_graph())
        d1 = d0.apply_delta(*some_delta(d0))
        c = d1.compact()
        assert np.array_equal(d1.degrees(), np.diff(c.indptr))
        for v in range(d1.num_nodes):
            assert d1.degree(v) == c.degree(v)
            assert np.array_equal(d1.neighbors(v), c.neighbors(v))
            assert np.array_equal(d1.edge_weights(v), c.edge_weights(v))

    def test_footprint_grows_with_the_overlay(self):
        d0 = DeltaCSRGraph(base_graph())
        d1 = d0.apply_delta(*some_delta(d0))
        assert d1.memory_footprint_bytes() > d0.memory_footprint_bytes()


class TestCompaction:
    @pytest.mark.parametrize("labeled", [False, True])
    def test_compact_bit_identical_to_fresh_build(self, labeled):
        d = DeltaCSRGraph(base_graph(labeled=labeled))
        for seed in (1, 2, 3):
            labels = None
            adds, rems = some_delta(d, seed=seed)
            if labeled:
                labels = np.arange(len(adds), dtype=np.int64) + seed
            d = d.apply_delta(adds, rems, labels=labels)
        compacted = d.compact()
        edges, weights, labels = d.edge_list()
        fresh = from_edge_list(
            edges, num_nodes=d.num_nodes, weights=weights, labels=labels
        )
        assert np.array_equal(compacted.indptr, fresh.indptr)
        assert np.array_equal(compacted.indices, fresh.indices)
        assert np.array_equal(compacted.weights, fresh.weights)
        if labeled:
            assert np.array_equal(compacted.labels, fresh.labels)

    def test_compact_with_parallel_base_edges(self):
        # A multigraph base: compaction must keep parallel copies in base
        # order (stable sort), exactly like from_edge_list does.
        edges = [(0, 1), (0, 1), (0, 2), (1, 0), (1, 0)]
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        g = from_edge_list(edges, num_nodes=3, weights=weights)
        d = DeltaCSRGraph(g).apply_delta([(2, 0)], [(0, 2)])
        compacted = d.compact()
        fresh = from_edge_list(*d.edge_list()[:1], num_nodes=3, weights=d.edge_list()[1])
        assert np.array_equal(compacted.indices, fresh.indices)
        assert np.array_equal(compacted.weights, fresh.weights)
        # removing a multi-edge removes all parallel copies
        d2 = DeltaCSRGraph(g).apply_delta([], [(0, 1)])
        assert d2.num_edges == 3 and not d2.has_edge(0, 1)

    def test_snapshot_is_cached(self):
        d = DeltaCSRGraph(base_graph())
        d1 = d.apply_delta(*some_delta(d))
        assert d1.snapshot() is d1.snapshot()

    def test_compact_does_not_sort(self, monkeypatch):
        d = DeltaCSRGraph(base_graph(labeled=True))
        for seed in (1, 2, 3):
            adds, rems = some_delta(d, seed=seed)
            d = d.apply_delta(adds, rems, labels=np.full(len(adds), seed, dtype=np.int64))
        expected = d.compact()

        def no_sort(*args, **kwargs):
            raise AssertionError("compact() must splice, not sort")

        for name in ("lexsort", "argsort", "sort"):
            monkeypatch.setattr(np, name, no_sort)
        spliced = d.compact()
        monkeypatch.undo()
        for name in ("indptr", "indices", "weights", "labels", "_edge_key_cache"):
            assert np.array_equal(getattr(spliced, name), getattr(expected, name))

    def test_edge_list_reads_the_cached_snapshot(self, monkeypatch):
        d = DeltaCSRGraph(base_graph())
        d1 = d.apply_delta(*some_delta(d))
        snapshot = d1.snapshot()
        monkeypatch.setattr(DeltaCSRGraph, "compact", lambda self: pytest.fail("recompacted"))
        edges, weights, _ = d1.edge_list()
        assert np.array_equal(edges[:, 1], snapshot.indices)
        assert np.array_equal(weights, snapshot.weights)
        assert weights is not snapshot.weights


class TestCSRCacheRepair:
    def test_repaired_caches_equal_fresh_rebuild(self):
        g = base_graph()
        g._edge_keys()            # materialise both caches on the old snapshot
        g.in_degrees()
        d = DeltaCSRGraph(g)
        d1 = d.apply_delta(*some_delta(d))
        new = d1.compact()
        record = invalidation_for(d1)
        assert isinstance(record, DeltaInvalidation)
        assert (record.old_version, record.new_version) == (0, 1)
        repair_csr_caches(g, new, record)
        scratch = from_edge_list(*d1.edge_list()[:1], num_nodes=g.num_nodes,
                                 weights=d1.edge_list()[1])
        assert np.array_equal(new._edge_key_cache, scratch._edge_keys())
        assert np.array_equal(new._in_degree_cache, scratch.in_degrees())

    def test_in_degree_repair_is_lazy_when_never_built(self):
        # apply_delta's own validation materialises the base edge-key cache
        # (has_edges routes through it), but the in-degree cache is only
        # built on demand — a delta must not force that O(E) pass.
        g = base_graph()
        d1 = DeltaCSRGraph(g).apply_delta(*some_delta(DeltaCSRGraph(g)))
        new = d1.compact()
        repair_csr_caches(g, new, invalidation_for(d1))
        assert new._in_degree_cache is None
        scratch = from_edge_list(*d1.edge_list()[:1], num_nodes=g.num_nodes)
        assert np.array_equal(new._edge_key_cache, scratch._edge_keys())

    def test_invalidation_for_requires_a_delta(self):
        with pytest.raises(ValueError):
            invalidation_for(DeltaCSRGraph(base_graph()))


class TestScopedRebinds:
    def test_transition_cache_untouched_entries_survive(self):
        g = base_graph(n=40, m=200, seed=4)
        d = DeltaCSRGraph(g)
        d1 = d.apply_delta(*some_delta(d, seed=5))
        record = invalidation_for(d1)
        new = d1.compact()

        cache = TransitionCache(g, DeepWalkSpec())
        everything = np.arange(g.num_nodes)
        cache.ensure_weights(everything)
        cache.ensure_cdf(everything)
        cache.ensure_alias(everything)
        fills = (cache.weight_fills, cache.cdf_fills, cache.alias_fills)
        totals = cache._totals

        cache.rebind(new, record.touched_nodes)
        assert cache.graph is new
        assert cache._totals is totals  # per-node arrays keep identity
        assert (cache.weight_fills, cache.cdf_fills, cache.alias_fills) == fills
        untouched = np.setdiff1d(everything, record.touched_nodes)
        assert cache._have_weights[untouched].all()
        assert not cache._have_weights[record.touched_nodes].any()

        # after lazy refill, content equals a from-scratch cache
        fresh = TransitionCache(new, DeepWalkSpec())
        for c in (cache, fresh):
            c.ensure_weights(everything); c.ensure_cdf(everything); c.ensure_alias(everything)
        assert np.array_equal(cache._weights, fresh._weights)
        assert np.array_equal(cache._cdf, fresh._cdf)
        assert np.array_equal(cache._alias_prob, fresh._alias_prob)
        assert np.array_equal(cache._alias_idx, fresh._alias_idx)
        assert np.array_equal(cache._totals, fresh._totals)

    @pytest.mark.parametrize("policy", ["contiguous", "degree_balanced", "locality"])
    def test_sharded_rebind_reuses_untouched_shards(self, policy):
        g = base_graph(n=40, m=200, seed=6)
        d = DeltaCSRGraph(g)
        d1 = d.apply_delta(*some_delta(d, seed=7))
        record = invalidation_for(d1)
        new = d1.compact()

        sharded = ShardedCSRGraph.build(g, 4, policy)
        rebound = sharded.rebind(new, record.touched_nodes)
        assert rebound.owner_map is sharded.owner_map
        assert rebound.graph is new
        affected = set(np.unique(sharded.owner_map[record.touched_nodes]).tolist())
        for old_shard, new_shard in zip(sharded.shards, rebound.shards, strict=False):
            if old_shard.shard_id in affected:
                assert new_shard is not old_shard
            else:
                assert new_shard is old_shard  # object identity
        # content equals a from-scratch decomposition over the same owner map
        scratch = ShardedCSRGraph(new, sharded.owner_map, 4, policy)
        for a, b in zip(rebound.shards, scratch.shards, strict=False):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(rebound.shard_edge_counts(), scratch.shard_edge_counts())
        assert rebound.remote_edge_fraction() == scratch.remote_edge_fraction()
