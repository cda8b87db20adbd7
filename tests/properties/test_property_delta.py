"""Property-based contracts for the delta-CSR overlay subsystem.

Three invariants, hunted across randomly generated delta chains:

1. **Compaction identity** — after any sequence of valid deltas,
   ``DeltaCSRGraph.compact()`` is bit-identical (indptr, indices, weights,
   labels) to a *fresh* ``from_edge_list`` build of the surviving edge
   multiset, tracked independently in plain Python.
2. **Scoped invalidation** — rebinding a filled ``TransitionCache`` /
   ``NodeHintTables`` across one delta keeps untouched-node entries alive
   (flags set, values carried bit-for-bit, per-node arrays object-identical)
   while clearing exactly the touched cache rows and re-filling exactly the
   touched hint rows to a fresh build's values; lazily refilled post-rebind
   state matches a scratch build on the new version.
3. **Version monotonicity under the scheduler** — interleaving
   ``apply_delta`` with session attaches and continuous-batching ticks
   advances ``service.graph_version`` by exactly one per delta, sessions
   keep the version they were opened at for life, and cross-version
   sessions never share a fused scheduler group.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.generator import compile_workload
from repro.core.config import FlexiWalkerConfig
from repro.graph.builders import from_edge_list
from repro.graph.delta import DeltaCSRGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.invalidation import invalidation_for
from repro.graph.labels import random_edge_labels
from repro.graph.weights import uniform_weights
from repro.gpusim.device import A6000
from repro.runtime.frontier import NodeHintTables
from repro.sampling.transition_cache import TransitionCache
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)


def build_graph(seed: int, labeled: bool):
    graph = barabasi_albert_graph(20 + (seed % 5) * 8, 3, seed=seed,
                                  name=f"delta-prop-{seed}")
    graph = graph.with_weights(uniform_weights(graph, seed=seed))
    if labeled:
        graph = graph.with_labels(random_edge_labels(graph, num_labels=4, seed=seed))
    return graph


def random_delta(dynamic: DeltaCSRGraph, seed: int, adds: int, rems: int):
    """A valid (additions, removals, weights, labels) draw for this version."""
    rng = np.random.default_rng(seed)
    n = dynamic.num_nodes
    cand = rng.integers(0, n, size=(12 * max(adds, 1), 2))
    fresh = np.unique(cand[~dynamic.has_edges(cand[:, 0], cand[:, 1])], axis=0)[:adds]
    live = dynamic.edge_list()[0]
    take = rng.choice(live.shape[0], min(rems, live.shape[0]), replace=False)
    removals = np.unique(live[take], axis=0)
    weights = rng.random(len(fresh))
    labels = rng.integers(0, 4, size=len(fresh)) if dynamic.has_labels else None
    return fresh, removals, weights, labels


class TestCompactionIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=40),
        labeled=st.booleans(),
        delta_seeds=st.lists(st.integers(min_value=0, max_value=10_000),
                             min_size=1, max_size=4),
        adds=st.integers(min_value=0, max_value=14),
        rems=st.integers(min_value=0, max_value=8),
    )
    def test_compact_equals_fresh_build_of_tracked_edges(
        self, graph_seed, labeled, delta_seeds, adds, rems
    ):
        base = build_graph(graph_seed, labeled)
        dynamic = DeltaCSRGraph(base)

        # Independent Python-side mirror of the surviving edge multiset.
        src = np.repeat(np.arange(base.num_nodes, dtype=np.int64), base.degrees())
        dst = base.indices.copy()
        wgt = base.weights.copy()
        lbl = base.labels.copy() if labeled else None

        for i, seed in enumerate(delta_seeds):
            additions, removals, weights, labels = random_delta(
                dynamic, seed, adds, rems
            )
            dynamic = dynamic.apply_delta(additions, removals,
                                          weights=weights, labels=labels)
            assert dynamic.version == i + 1
            if len(removals):
                keys = src * base.num_nodes + dst
                gone = removals[:, 0] * base.num_nodes + removals[:, 1]
                keep = ~np.isin(keys, gone)
                src, dst, wgt = src[keep], dst[keep], wgt[keep]
                if labeled:
                    lbl = lbl[keep]
            if len(additions):
                src = np.concatenate([src, additions[:, 0]])
                dst = np.concatenate([dst, additions[:, 1]])
                wgt = np.concatenate([wgt, weights])
                if labeled:
                    lbl = np.concatenate([lbl, labels])

        fresh = from_edge_list(np.stack([src, dst], axis=1),
                               num_nodes=base.num_nodes, weights=wgt,
                               labels=lbl, name=base.name)
        compacted = dynamic.compact()
        assert np.array_equal(compacted.indptr, fresh.indptr)
        assert np.array_equal(compacted.indices, fresh.indices)
        assert np.array_equal(compacted.weights, fresh.weights)
        if labeled:
            assert np.array_equal(compacted.labels, fresh.labels)
        else:
            assert compacted.labels is None
        assert compacted.num_edges == len(src)


class TestScopedInvalidation:
    @settings(max_examples=20, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=40),
        delta_seed=st.integers(min_value=0, max_value=10_000),
        adds=st.integers(min_value=1, max_value=12),
        rems=st.integers(min_value=1, max_value=8),
    )
    def test_untouched_entries_survive_a_delta(
        self, graph_seed, delta_seed, adds, rems
    ):
        base = build_graph(graph_seed, labeled=False)
        spec = DeepWalkSpec()
        dynamic = DeltaCSRGraph(base)
        old_graph = dynamic.snapshot()
        everything = np.arange(base.num_nodes, dtype=np.int64)

        cache = TransitionCache(old_graph, spec)
        cache.ensure_weights(everything)
        cache.ensure_cdf(everything)
        cache.ensure_alias(everything)
        hints = NodeHintTables(compile_workload(spec, old_graph), old_graph)
        hints.lookup(everything)

        old_indptr = old_graph.indptr
        old_weights = cache._weights.copy()
        old_cdf = cache._cdf.copy()
        old_totals = cache._totals.copy()
        old_bounds, old_sums = hints.bounds, hints.sums
        saved_bounds, saved_sums = old_bounds.copy(), old_sums.copy()
        have_weights, have_cdf = cache._have_weights, cache._have_cdf

        additions, removals, weights, _ = random_delta(dynamic, delta_seed,
                                                       adds, rems)
        dynamic = dynamic.apply_delta(additions, removals, weights=weights)
        record = invalidation_for(dynamic)
        new_graph = dynamic.snapshot()
        touched = record.touched_nodes
        untouched = np.setdiff1d(everything, touched)

        cache.rebind(new_graph, touched)
        new_compiled = compile_workload(spec, new_graph)
        hints.rebind(new_graph, touched, compiled=new_compiled)

        # Per-node flag / hint arrays keep object identity; only the
        # touched rows were cleared (the cache's) or re-filled on the new
        # version (the hint tables', equal to a fresh build's rows).
        assert cache._have_weights is have_weights
        assert cache._have_cdf is have_cdf
        assert hints.bounds is old_bounds and hints.sums is old_sums
        assert bool(np.all(cache._have_weights[untouched]))
        assert bool(np.all(cache._have_cdf[untouched]))
        assert bool(np.all(hints._computed[untouched]))
        if touched.size:
            assert not np.any(cache._have_weights[touched])
            assert not np.any(cache._have_cdf[touched])
            assert not np.any(cache._have_alias[touched])
            assert np.all(cache._totals[touched] == 0.0)
            fresh = NodeHintTables(new_compiled, new_graph)
            assert np.array_equal(hints.bounds[touched], fresh.bounds[touched],
                                  equal_nan=True)
            assert np.array_equal(hints.sums[touched], fresh.sums[touched],
                                  equal_nan=True)

        # Untouched values were carried bit-for-bit into the new layout.
        new_indptr = new_graph.indptr
        for node in untouched.tolist():
            old_slice = slice(old_indptr[node], old_indptr[node + 1])
            new_slice = slice(new_indptr[node], new_indptr[node + 1])
            assert np.array_equal(cache._weights[new_slice], old_weights[old_slice])
            assert np.array_equal(cache._cdf[new_slice], old_cdf[old_slice])
        assert np.array_equal(cache._totals[untouched], old_totals[untouched])
        assert np.array_equal(hints.bounds[untouched], saved_bounds[untouched],
                              equal_nan=True)
        assert np.array_equal(hints.sums[untouched], saved_sums[untouched],
                              equal_nan=True)

        # Lazy refill converges to a scratch build on the new version.
        cache.ensure_weights(everything)
        cache.ensure_cdf(everything)
        scratch = TransitionCache(new_graph, spec)
        scratch.ensure_weights(everything)
        scratch.ensure_cdf(everything)
        assert np.array_equal(cache._weights, scratch._weights)
        assert np.array_equal(cache._cdf, scratch._cdf)
        assert np.array_equal(cache._totals, scratch._totals)
        fresh_hints = NodeHintTables(new_compiled, new_graph)
        assert all(
            np.array_equal(got, want, equal_nan=True)
            for got, want in zip(hints.lookup(everything),
                                 fresh_hints.lookup(everything), strict=False)
        )


class TestVersionMonotonicityUnderTheScheduler:
    @settings(max_examples=15, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=40),
        ops=st.lists(st.sampled_from(["delta", "attach", "tick"]),
                     min_size=3, max_size=9),
        delta_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_versions_advance_by_one_and_sessions_keep_theirs(
        self, graph_seed, ops, delta_seed
    ):
        service = WalkService(DeltaCSRGraph(build_graph(graph_seed, labeled=False)),
                              fleet=DeviceFleet(DEVICE, 1))
        scheduler = service.scheduler()
        config = FlexiWalkerConfig(device=DEVICE)
        sessions: list[tuple[object, int]] = []
        expected_version = 0

        for i, op in enumerate(ops):
            if op == "delta":
                additions, removals, weights, _ = random_delta(
                    service._dynamic, delta_seed + i, adds=6, rems=4
                )
                new_version = service.apply_delta(additions, removals,
                                                  weights=weights)
                expected_version += 1
                assert new_version == expected_version
            elif op == "attach":
                session = scheduler.attach(
                    service.session(DeepWalkSpec(), config), tenant=f"t{i}"
                )
                session.submit(make_queries(service.graph.num_nodes,
                                            walk_length=3, num_queries=4,
                                            seed=i))
                assert session.graph_version == expected_version
                sessions.append((session, expected_version))
            else:
                scheduler.tick()
            assert service.graph_version == expected_version

        scheduler.run_until_idle()
        for session, opened_at in sessions:
            assert session.graph_version == opened_at  # immutable for life
            assert len(session.collect().paths) == 4

        # Cross-version sessions never share a fused group.
        for a, va in sessions:
            for b, vb in sessions:
                if va != vb:
                    assert (scheduler._entries[id(a)].group
                            is not scheduler._entries[id(b)].group)
        for session, _ in sessions:
            session.close()
