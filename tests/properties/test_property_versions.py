"""Property-based contracts for sort-free graph versions.

Long delta chains (30+ versions) hunt three invariants:

1. **Splice identity** — every version's ``snapshot()`` (the splice of the
   cumulative overlay into the base) is bit-identical, dtypes included, to
   ``from_edge_list(*edge_list())`` and to a fresh build of an
   independently tracked edge multiset, and it carries an edge-key cache
   equal to a fresh ``_edge_keys()``.  The chains cover parallel base
   edges, labels, trailing empty rows, rows emptied and refilled, and
   removed base edges added back.  The run-by-run slice splice and the
   gather splice build the same arrays on every version.
2. **Carried compile** — a compiled workload carried across a chain by
   ``CompiledWorkload.rebind`` (touched rows re-preprocessed, the rest
   carried) equals a fresh ``compile_workload`` on every version.
3. **Carried profile** — whenever ``profile_resume_index`` finds that a
   delta left every sampled node alone, so a node-only workload's profile
   is carried, a fresh ``profile_edge_costs`` on the new version returns
   the same result bit for bit; and a profile resumed
   at ``profile_resume_index`` from the previous version's, version after
   version, equals a fresh one, checkpoints included.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler.generator import compile_workload
from repro.graph.builders import from_edge_list
from repro.graph import delta as delta_module
from repro.graph.delta import DeltaCSRGraph
from repro.gpusim.device import A6000
from repro.runtime.profiler import profile_edge_costs, profile_resume_index
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec

CHAIN = 30


def multigraph(seed: int, labeled: bool):
    """A base with parallel edges and (usually) trailing empty rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    active = int(rng.integers(1, n + 1))  # sources live in [0, active)
    m = int(rng.integers(0, 6 * n))
    edges = np.stack([rng.integers(0, active, m), rng.integers(0, n, m)], axis=1)
    if m:
        edges = np.concatenate([edges, edges[: m // 4]])  # parallel copies
    labels = rng.integers(0, 3, len(edges)) if labeled else None
    return from_edge_list(edges, num_nodes=n, weights=rng.random(len(edges)),
                          labels=labels, name=f"versions-{seed}")


def chain_delta(dynamic: DeltaCSRGraph, removed: list, rng: np.random.Generator):
    """One valid delta, biased toward emptying rows and re-adding removals."""
    n = dynamic.num_nodes
    edges = dynamic.edge_list()[0]
    removals = np.zeros((0, 2), dtype=np.int64)
    if edges.shape[0] and rng.random() < 0.3:
        # Empty one row entirely.
        src = edges[rng.integers(edges.shape[0]), 0]
        removals = np.unique(edges[edges[:, 0] == src], axis=0)
    elif edges.shape[0]:
        take = rng.choice(edges.shape[0], min(int(rng.integers(0, 5)), edges.shape[0]),
                          replace=False)
        removals = np.unique(edges[take], axis=0).reshape(-1, 2)
    cand = [rng.integers(0, n, size=(int(rng.integers(0, 8)), 2))]
    if removed:
        cand.append(np.asarray(removed[-3:], dtype=np.int64).reshape(-1, 2))
    if removals.shape[0]:
        # Refill an emptied (or thinned) row in the same breath.
        cand.append(np.stack([removals[:1, 0], rng.integers(0, n, 1)], axis=1))
    cand = np.unique(np.concatenate(cand), axis=0)
    cand = cand[~dynamic.has_edges(cand[:, 0], cand[:, 1])]
    rem_keys = removals[:, 0] * n + removals[:, 1]
    additions = cand[~np.isin(cand[:, 0] * n + cand[:, 1], rem_keys)]
    removed.extend(map(tuple, removals.tolist()))
    weights = rng.random(additions.shape[0])
    labels = rng.integers(0, 3, additions.shape[0]) if dynamic.has_labels else None
    return additions, removals, weights, labels


def assert_same_csr(actual, expected):
    for name in ("indptr", "indices", "weights", "labels"):
        a, b = getattr(actual, name), getattr(expected, name)
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestSpliceIdentity:
    @settings(max_examples=15, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        labeled=st.booleans(),
        chain_seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=CHAIN, max_value=CHAIN + 10),
    )
    # Version 1 of this chain has no additions and no removals, so its
    # snapshot is the base graph itself.
    @example(graph_seed=0, labeled=False, chain_seed=562, length=30)
    def test_every_version_equals_a_fresh_build(self, graph_seed, labeled, chain_seed, length):
        base = multigraph(graph_seed, labeled)
        n = base.num_nodes
        dynamic = DeltaCSRGraph(base)
        rng = np.random.default_rng(chain_seed)
        removed: list = []
        # Independent mirror of the surviving edge multiset.
        src = np.repeat(np.arange(n, dtype=np.int64), base.degrees())
        dst, wgt = base.indices.copy(), base.weights.copy()
        lbl = base.labels.copy() if labeled else None
        for _ in range(length):
            additions, removals, weights, labels = chain_delta(dynamic, removed, rng)
            dynamic = dynamic.apply_delta(additions, removals, weights=weights, labels=labels)
            keep = ~np.isin(src * n + dst, removals[:, 0] * n + removals[:, 1])
            src = np.concatenate([src[keep], additions[:, 0]])
            dst = np.concatenate([dst[keep], additions[:, 1]])
            wgt = np.concatenate([wgt[keep], weights])
            if labeled:
                lbl = np.concatenate([lbl[keep], labels])

            snapshot = dynamic.snapshot()
            edges, edge_weights, edge_labels = dynamic.edge_list()
            assert_same_csr(snapshot, from_edge_list(edges, num_nodes=n, weights=edge_weights,
                                                     labels=edge_labels))
            fresh = from_edge_list(np.stack([src, dst], axis=1), num_nodes=n, weights=wgt,
                                   labels=lbl)
            assert_same_csr(snapshot, fresh)
            assert snapshot._edge_key_cache is not None
            assert snapshot._edge_key_cache.dtype == fresh._edge_keys().dtype
            assert np.array_equal(snapshot._edge_key_cache, fresh._edge_keys())


class TestSpliceStrategies:
    @settings(max_examples=10, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        labeled=st.booleans(),
        chain_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_slice_runs_and_gather_splice_the_same_arrays(self, graph_seed, labeled,
                                                          chain_seed):
        dynamic = DeltaCSRGraph(multigraph(graph_seed, labeled))
        rng = np.random.default_rng(chain_seed)
        removed: list = []
        for _ in range(CHAIN):
            additions, removals, weights, labels = chain_delta(dynamic, removed, rng)
            dynamic = dynamic.apply_delta(additions, removals, weights=weights, labels=labels)
            built = []
            for runs_per_edge in (0, 10**9):  # every run count slices / none does
                with mock.patch.object(delta_module, "_EDGES_PER_SLICE_RUN", runs_per_edge):
                    built.append(dynamic.compact())
            sliced, gathered = built
            assert_same_csr(sliced, gathered)
            assert np.array_equal(sliced._edge_key_cache, gathered._edge_key_cache)
            edges, edge_weights, edge_labels = dynamic.edge_list()
            assert_same_csr(sliced, from_edge_list(edges, num_nodes=dynamic.num_nodes,
                                                   weights=edge_weights, labels=edge_labels))


class TestCarriedCompile:
    @settings(max_examples=10, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        chain_seed=st.integers(min_value=0, max_value=10_000),
        metapath=st.booleans(),
    )
    def test_rebind_equals_a_fresh_compile(self, graph_seed, chain_seed, metapath):
        spec = MetaPathSpec(schema=(0, 1, 2)) if metapath else DeepWalkSpec()
        dynamic = DeltaCSRGraph(multigraph(graph_seed, labeled=metapath))
        compiled = compile_workload(spec, dynamic.snapshot(), device=A6000)
        rng = np.random.default_rng(chain_seed)
        removed: list = []
        for _ in range(CHAIN):
            additions, removals, weights, labels = chain_delta(dynamic, removed, rng)
            dynamic = dynamic.apply_delta(additions, removals, weights=weights, labels=labels)
            graph = dynamic.snapshot()
            previous = compiled
            compiled = compiled.rebind(graph, dynamic.delta.touched_nodes, device=A6000)
            fresh = compile_workload(spec, graph, device=A6000)
            assert compiled.helpers is previous.helpers
            assert compiled.analysis is previous.analysis
            if fresh.preprocessed is None:
                assert compiled.preprocessed is None
                continue
            assert list(compiled.preprocessed.aggregates) == list(fresh.preprocessed.aggregates)
            for key, values in fresh.preprocessed.aggregates.items():
                assert np.array_equal(compiled.preprocessed.aggregates[key], values), key
            assert compiled.preprocessed.counters == fresh.preprocessed.counters
            assert compiled.preprocessed.simulated_time_ns == fresh.preprocessed.simulated_time_ns


class TestCarriedProfile:
    @settings(max_examples=10, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        chain_seed=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_a_carried_profile_equals_a_fresh_one(self, graph_seed, chain_seed, seed):
        spec = DeepWalkSpec()
        dynamic = DeltaCSRGraph(multigraph(graph_seed, labeled=False))
        rng = np.random.default_rng(chain_seed)
        removed: list = []
        for _ in range(CHAIN):
            old = dynamic.snapshot()
            additions, removals, weights, _ = chain_delta(dynamic, removed, rng)
            dynamic = dynamic.apply_delta(additions, removals, weights=weights)
            new = dynamic.snapshot()
            old_profile = profile_edge_costs(old, spec, A6000, seed=seed)
            index = profile_resume_index(old, new, dynamic.delta.touched_nodes, seed=seed)
            if index == old_profile.sampled_nodes:
                assert profile_edge_costs(new, spec, A6000, seed=seed) == old_profile

    @settings(max_examples=10, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        chain_seed=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_a_resumed_profile_equals_a_fresh_one(self, graph_seed, chain_seed, seed):
        spec = DeepWalkSpec()
        # Sample most nodes, so resume points fall anywhere in the loop.
        args = dict(node_fraction=0.6, max_nodes=64, seed=seed)
        dynamic = DeltaCSRGraph(multigraph(graph_seed, labeled=False))
        rng = np.random.default_rng(chain_seed)
        removed: list = []
        profile = profile_edge_costs(dynamic.snapshot(), spec, A6000, **args)
        for _ in range(CHAIN):
            old = dynamic.snapshot()
            additions, removals, weights, _ = chain_delta(dynamic, removed, rng)
            dynamic = dynamic.apply_delta(additions, removals, weights=weights)
            new = dynamic.snapshot()
            fresh = profile_edge_costs(new, spec, A6000, **args)
            index = profile_resume_index(old, new, dynamic.delta.touched_nodes, **args)
            if index is not None:
                assert index <= profile.sampled_nodes
                resumed = profile_edge_costs(new, spec, A6000, resume=(profile, index), **args)
                assert resumed == fresh
                assert resumed.checkpoints == fresh.checkpoints
                # Chain through the resumed result's own checkpoints.
                fresh = resumed
            profile = fresh
