"""Dynamic graphs through the service: the compaction-identity scenario family.

``WalkService.apply_delta`` interleaved with session waves (and
continuous-batching ticks) must be observationally invisible: a session
opened at version ``v`` produces results bit-identical — paths, counter
totals, per-query base times — to a session on a *fresh* service built from
the freshly-constructed ``CSRGraph`` at version ``v``.  That must hold in
every execution mode the plan can negotiate: batched single-device, fused
multi-device (replicated), sharded, and scheduler-fused.

The scoped-invalidation half of the contract is asserted by identity:
migrating a workload's engine caches across a delta keeps the
``TransitionCache``/``NodeHintTables`` objects (and their untouched-node
entries) alive instead of rebuilding them.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler.flags import BoundGranularity
from repro.compiler.generator import compile_workload
from repro.core.config import FlexiWalkerConfig
from repro.graph.builders import from_edge_list
from repro.graph.delta import DeltaCSRGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.gpusim.device import A6000
from repro.runtime.engine import EngineCaches, WalkEngine
from repro.runtime.profiler import _sample_nodes, profile_edge_costs
from repro.runtime.selector import FixedSelector
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkQuery, make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)


class ConstantWeightSpec(WalkSpec):
    """Every edge weighs the same: edge-only weights, PER_KERNEL hints."""

    def get_weight(self, graph, state, edge):
        return 2.0

MODE_CONFIGS = {
    "batched": dict(),
    "fused_multi_device": dict(num_devices=3),
    "sharded": dict(num_devices=3, graph_placement="sharded",
                    shard_policy="locality"),
}


def build_graph(seed: int = 0):
    graph = barabasi_albert_graph(40, 3, seed=seed, name="dynamic-svc")
    return graph.with_weights(uniform_weights(graph, seed=seed))


def mutate(service: WalkService, seed: int, adds: int = 12, rems: int = 8) -> int:
    """Apply one valid random delta to a service; returns the new version."""
    rng = np.random.default_rng(seed)
    dynamic = service._dynamic if service._dynamic is not None else DeltaCSRGraph(service.graph)
    n = dynamic.num_nodes
    cand = rng.integers(0, n, size=(10 * adds, 2))
    fresh = np.unique(cand[~dynamic.has_edges(cand[:, 0], cand[:, 1])], axis=0)[:adds]
    edges = dynamic.edge_list()[0]
    take = rng.choice(edges.shape[0], rems, replace=False)
    removals = np.unique(edges[take], axis=0)
    return service.apply_delta(fresh, removals, weights=rng.random(len(fresh)))


def assert_identical(result, expected):
    assert result.paths == expected.paths
    assert np.array_equal(result.per_query_ns, expected.per_query_ns)
    assert result.counters == expected.counters
    assert result.total_steps == expected.total_steps


class TestCompactionIdentityAcrossModes:
    @pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
    @pytest.mark.parametrize("workload", ["deepwalk", "node2vec"])
    def test_session_after_deltas_matches_fresh_build(self, mode, workload):
        spec = DeepWalkSpec() if workload == "deepwalk" else Node2VecSpec()
        config = FlexiWalkerConfig(device=DEVICE, **MODE_CONFIGS[mode])
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 3))

        # Interleave deltas with session waves: wave at v0, delta, wave at
        # v1 (same session — stays on v0 by contract), delta, new session
        # at v2.
        s0 = service.session(spec, config)
        s0.submit(make_queries(service.graph.num_nodes, walk_length=5,
                               num_queries=12, seed=3))
        r0_first = s0.collect()
        v0_graph = service.graph

        mutate(service, seed=11)
        # The open session keeps executing on its version's snapshot.
        s0.submit([WalkQuery(query_id=100 + i, start_node=i, max_length=5)
                   for i in range(12)])
        assert s0.engine.graph is v0_graph
        s0.collect()
        s0.close()

        mutate(service, seed=12)
        assert service.graph_version == 2

        s2 = service.session(spec, config)
        assert s2.graph_version == 2
        s2.submit(make_queries(service.graph.num_nodes, walk_length=5,
                               num_queries=12, seed=3))
        result = s2.collect()

        # Fresh build at version 2: same edges, brand-new CSR and service.
        edges, weights, _ = service._dynamic.edge_list()
        fresh_graph = from_edge_list(edges, num_nodes=service.graph.num_nodes,
                                     weights=weights, name=service.graph.name)
        fresh_service = WalkService(fresh_graph, fleet=DeviceFleet(DEVICE, 3))
        fresh_session = fresh_service.session(spec, config)
        fresh_session.submit(make_queries(fresh_graph.num_nodes, walk_length=5,
                                          num_queries=12, seed=3))
        assert_identical(result, fresh_session.collect())

    def test_scheduler_fused_sessions_match_fresh_build(self):
        spec = DeepWalkSpec()
        config = FlexiWalkerConfig(device=DEVICE)
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        scheduler = service.scheduler()

        # Session at v0 starts streaming, a delta lands mid-flight, a v1
        # session joins the same scheduler; both finish on their versions.
        a = scheduler.attach(service.session(spec, config), tenant="a")
        a.submit(make_queries(service.graph.num_nodes, walk_length=6,
                              num_queries=10, seed=5))
        for _ in range(2):
            scheduler.tick()
        v0_graph = service.graph

        mutate(service, seed=21)
        b = scheduler.attach(service.session(spec, config), tenant="b")
        assert (a.graph_version, b.graph_version) == (0, 1)
        b.submit(make_queries(service.graph.num_nodes, walk_length=6,
                              num_queries=10, seed=5))
        scheduler.run_until_idle()
        result_a, result_b = a.collect(), b.collect()
        assert a.engine.graph is v0_graph
        assert b.engine.graph is service.graph

        # a == a fresh v0 service run; b == a fresh v1 service run.
        for result, graph in ((result_a, v0_graph), (result_b, service.graph)):
            edges = np.stack(
                [np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees()),
                 graph.indices], axis=1)
            fresh_graph = from_edge_list(edges, num_nodes=graph.num_nodes,
                                         weights=graph.weights, name=graph.name)
            fresh = WalkService(fresh_graph, fleet=DeviceFleet(DEVICE, 1))
            session = fresh.session(spec, config)
            session.submit(make_queries(fresh_graph.num_nodes, walk_length=6,
                                        num_queries=10, seed=5))
            assert_identical(result, session.collect())

    def test_cross_version_sessions_never_fuse(self):
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        scheduler = service.scheduler()
        config = FlexiWalkerConfig(device=DEVICE)
        a = scheduler.attach(service.session(DeepWalkSpec(), config))
        mutate(service, seed=31)
        b = scheduler.attach(service.session(DeepWalkSpec(), config))
        assert scheduler._entries[id(a)].group is not scheduler._entries[id(b)].group


class TestScopedInvalidationThroughTheService:
    def test_unpinned_caches_migrate_by_object_identity(self):
        spec = DeepWalkSpec()
        config = FlexiWalkerConfig(device=DEVICE)
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))

        session = service.session(spec, config)
        session.submit(make_queries(service.graph.num_nodes, walk_length=5,
                                    num_queries=10, seed=7))
        session.collect()
        caches = service.engine_caches(spec)
        transition = caches.transition_cache
        hints = caches.hint_tables
        assert transition is not None
        session.close()  # unpinned: eligible for migration

        mutate(service, seed=41)
        migrated = service.engine_caches(spec)  # resolves at the new version
        assert migrated is caches
        assert migrated.transition_cache is transition  # object identity
        assert migrated.transition_cache.graph is service.graph
        if hints is not None:
            assert migrated.hint_tables is hints

        # The migrated cache serves a new session with bit-identical results
        # to a cold service at the same version.
        warm = service.session(spec, config)
        warm.submit(make_queries(service.graph.num_nodes, walk_length=5,
                                 num_queries=10, seed=7))
        warm_result = warm.collect()

        edges, weights, _ = service._dynamic.edge_list()
        fresh_graph = from_edge_list(edges, num_nodes=service.graph.num_nodes,
                                     weights=weights, name=service.graph.name)
        cold = WalkService(fresh_graph, fleet=DeviceFleet(DEVICE, 1))
        cold_session = cold.session(spec, config)
        cold_session.submit(make_queries(fresh_graph.num_nodes, walk_length=5,
                                         num_queries=10, seed=7))
        assert_identical(warm_result, cold_session.collect())

    def test_row_max_follows_a_delta_that_raises_it(self):
        """eRJS widens a hint to the cached row maximum, so a delta that
        raises a row's maximum must refresh it for the new version."""
        spec = DeepWalkSpec()
        config = FlexiWalkerConfig(device=DEVICE, seed=2)
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        v0_compiled = service.compile(spec)
        session = service.session(spec, config)
        session.submit(make_queries(service.graph.num_nodes, walk_length=5,
                                    num_queries=20, seed=2))
        session.collect()
        session.close()
        cache = service.engine_caches(spec).transition_cache
        graph = service.graph
        node = int(np.argmax(graph.degrees()))
        old_max = float(cache.weight_arrays(np.array([node]))[1][0])
        target = next(v for v in range(graph.num_nodes)
                      if v != node and not graph.has_edge(node, v))

        service.apply_delta([[node, target]], weights=[10.0 * old_max])
        new_graph = service.graph
        assert service.engine_caches(spec).transition_cache is cache
        nodes = np.arange(new_graph.num_nodes)
        fresh = np.array([
            new_graph.weights[new_graph.indptr[v]:new_graph.indptr[v + 1]].max()
            if new_graph.degree(v) else -np.inf
            for v in nodes
        ])
        assert np.array_equal(cache.weight_arrays(nodes)[1], fresh)
        assert fresh[node] == 10.0 * old_max

        queries = [WalkQuery(query_id=i, start_node=node, max_length=6) for i in range(40)]
        fresh_session = service.session(spec, config)
        fresh_session.submit(queries)
        result = fresh_session.collect()
        oracle = fresh_session.engine.with_devices(1)
        oracle.execution = "scalar"
        expected = oracle.run(queries)
        assert result.paths == expected.paths
        assert result.counters.as_dict() == expected.counters.as_dict()
        assert np.array_equal(result.per_query_ns, expected.per_query_ns)

        # The version-0 helpers no longer bound the raised row: eRJS must
        # widen their hint to the refreshed cached maximum, exactly as the
        # scalar kernel widens it to the maximum it computes itself.
        stale_bound = v0_compiled.hint_nodes(new_graph, np.array([node]))[0][0]
        assert stale_bound < fresh[node]
        caches = EngineCaches()
        caches.transition_cache = cache
        runs = {}
        for mode in ("batched", "scalar"):
            engine = WalkEngine(
                graph=new_graph, spec=spec, device=DEVICE, compiled=v0_compiled,
                selector=FixedSelector(EnhancedRejectionSampler()), seed=2,
                caches=caches, execution=mode,
            )
            runs[mode] = engine.run(queries)
        assert runs["batched"].paths == runs["scalar"].paths
        assert runs["batched"].counters.as_dict() == runs["scalar"].counters.as_dict()
        first_hops = [path[1] for path in runs["batched"].paths]
        assert first_hops.count(target) > len(queries) // 2

    def test_pinned_caches_stay_on_their_version(self):
        spec = DeepWalkSpec()
        config = FlexiWalkerConfig(device=DEVICE)
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        session = service.session(spec, config)
        old_key = service._registry_key(spec)
        old_caches = service.engine_caches(spec)

        mutate(service, seed=51)  # session still open: no migration
        assert service._caches[old_key] is old_caches
        new_caches = service.engine_caches(spec)  # new version builds fresh
        assert new_caches is not old_caches
        session.close()

    def test_repartition_drops_sharded_decompositions(self):
        spec = DeepWalkSpec()
        config = FlexiWalkerConfig(device=DEVICE, num_devices=3,
                                   graph_placement="sharded")
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 3))
        session = service.session(spec, config)
        session.submit(make_queries(service.graph.num_nodes, walk_length=4,
                                    num_queries=8, seed=9))
        session.collect()
        caches = service.engine_caches(spec)
        assert caches.sharded_graphs
        session.close()

        mutate(service, seed=61)
        # default: rebind keeps decompositions (re-owned, not rebuilt)
        assert service.engine_caches(spec) is caches
        assert caches.sharded_graphs
        for sharded in caches.sharded_graphs.values():
            assert sharded.graph is service.graph

        service.apply_delta([], [tuple(service._dynamic.edge_list()[0][0])],
                            repartition=True)
        assert not caches.sharded_graphs  # dropped: next use re-partitions
        assert not caches.ghost_tables


def quiet_delta(service: WalkService, seed: int, avoid: np.ndarray):
    """A delta whose touched rows avoid ``avoid`` and keep every degree non-zero."""
    rng = np.random.default_rng(seed)
    graph = service.graph
    degrees = graph.degrees()
    sources = np.setdiff1d(np.nonzero(degrees >= 2)[0], avoid)
    src = rng.choice(sources, 3, replace=False)
    fresh = [(int(s), int(d)) for s in src for d in rng.permutation(graph.num_nodes)[:4]
             if s != d and not graph.has_edge(int(s), int(d))][:4]
    removal = [(int(src[0]), int(graph.neighbors(int(src[0]))[0]))]
    return fresh, removal


class TestVersionCarryAndRelease:
    """Compiled bundles and profiles follow a delta; superseded versions go."""

    def test_compiled_bundle_is_carried_with_touched_rows_only(self, monkeypatch):
        spec = DeepWalkSpec()
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        v0 = service.compile(spec)
        monkeypatch.setattr("repro.service.service.analyze_workload",
                            lambda spec: pytest.fail("graph-independent stages re-ran"))
        for seed in range(5):
            mutate(service, seed=70 + seed)
            carried = service._compiled[service._registry_key(spec)]
            assert service.compile(spec) is carried
            assert carried.helpers is v0.helpers and carried.analysis is v0.analysis
            fresh = compile_workload(spec, service.graph, device=DEVICE)
            for key, values in fresh.preprocessed.aggregates.items():
                assert np.array_equal(carried.preprocessed.aggregates[key], values)
            assert carried.preprocessed.counters == fresh.preprocessed.counters
            assert carried.preprocessed.simulated_time_ns == fresh.preprocessed.simulated_time_ns
        assert v0.preprocessed.aggregates["weights_max"] is not carried.preprocessed.aggregates[
            "weights_max"]

    def test_an_evicted_bundle_recompiles_from_the_cached_front_end(self, monkeypatch):
        spec = DeepWalkSpec()
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        v0 = service.compile(spec)
        monkeypatch.setattr("repro.service.service.analyze_workload",
                            lambda spec: pytest.fail("graph-independent stages re-ran"))
        mutate(service, seed=3)
        service._compiled.clear()
        recompiled = service.compile(spec)
        assert recompiled.helpers is v0.helpers
        fresh = compile_workload(spec, service.graph, device=DEVICE)
        assert np.array_equal(recompiled.preprocessed.aggregates["weights_sum"],
                              fresh.preprocessed.aggregates["weights_sum"])

    def test_carried_profile_equals_a_fresh_profile(self):
        spec = DeepWalkSpec()
        config = FlexiWalkerConfig(device=DEVICE, seed=3)
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        profile = service.session(spec, config).profile
        sampled = _sample_nodes(service.graph, 0.02, 64, seed=3)
        history = service.graph.indices[service.graph.indptr[sampled]]
        service.apply_delta(*quiet_delta(service, 5, np.concatenate([sampled, history])))
        carried = service._profiles.get((*service._registry_key(spec), 3))
        assert carried is profile
        assert carried == profile_edge_costs(service.graph, spec, DEVICE, seed=3)
        assert service.session(spec, config).profile is profile

    def test_node2vec_always_reprofiles(self):
        spec = Node2VecSpec(a=2.0, b=0.5)
        config = FlexiWalkerConfig(device=DEVICE)
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        service.session(spec, config)
        sampled = _sample_nodes(service.graph, 0.02, 64, seed=0)
        history = service.graph.indices[service.graph.indptr[sampled]]
        service.apply_delta(*quiet_delta(service, 6, np.concatenate([sampled, history])))
        key = (*service._registry_key(spec), 0)
        assert key not in service._profiles
        fresh = service.session(spec, config).profile
        assert service._profiles[key] is fresh
        assert fresh == profile_edge_costs(service.graph, spec, DEVICE, seed=0)

    def test_a_per_kernel_workload_always_reprofiles(self):
        spec = ConstantWeightSpec()
        config = FlexiWalkerConfig(device=DEVICE)
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        compiled = service.compile(spec)
        assert compiled.weights_node_only
        assert compiled.granularity is BoundGranularity.PER_KERNEL
        service.session(spec, config)
        sampled = _sample_nodes(service.graph, 0.02, 64, seed=0)
        history = service.graph.indices[service.graph.indptr[sampled]]
        service.apply_delta(*quiet_delta(service, 6, np.concatenate([sampled, history])))
        key = (*service._registry_key(spec), 0)
        assert key not in service._profiles
        assert key not in service._profile_resume
        fresh = service.session(spec, config).profile
        assert fresh == profile_edge_costs(service.graph, spec, DEVICE, seed=0)

    def test_a_delta_touching_a_sampled_node_reprofiles(self):
        spec = DeepWalkSpec()
        config = FlexiWalkerConfig(device=DEVICE)
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        profile = service.session(spec, config).profile
        node = int(_sample_nodes(service.graph, 0.02, 64, seed=0)[0])
        target = next(v for v in range(service.graph.num_nodes)
                      if v != node and not service.graph.has_edge(node, v))
        service.apply_delta([(node, target)], weights=[7.0])
        key = (*service._registry_key(spec), 0)
        assert key not in service._profiles
        fresh = service.session(spec, config).profile
        assert fresh is not profile
        assert fresh == profile_edge_costs(service.graph, spec, DEVICE, seed=0)

    def test_a_delta_touching_a_later_sampled_node_resumes_the_profile(self, monkeypatch):
        spec = DeepWalkSpec()
        config = FlexiWalkerConfig(device=DEVICE)
        graph = barabasi_albert_graph(600, 3, seed=5, name="resume-svc")
        service = WalkService(
            DeltaCSRGraph(graph.with_weights(uniform_weights(graph, seed=5))),
            fleet=DeviceFleet(DEVICE, 1),
        )
        profile = service.session(spec, config).profile
        sampled = _sample_nodes(service.graph, 0.02, 64, seed=0)
        history = service.graph.indices[service.graph.indptr[sampled]]
        # The last sampled node that is no earlier node's history row.
        k = max(i for i in range(sampled.size) if sampled[i] not in history[:i])
        assert k > 0
        node = int(sampled[k])
        target = next(v for v in range(service.graph.num_nodes)
                      if v != node and not service.graph.has_edge(node, v))
        service.apply_delta([(node, target)], weights=[7.0])
        key = (*service._registry_key(spec), 0)
        assert key not in service._profiles
        assert service._profile_resume[key] == (profile, k)
        runs = []
        original = EnhancedRejectionSampler.sample
        monkeypatch.setattr(EnhancedRejectionSampler, "sample",
                            lambda self, ctx: runs.append(ctx.state.current_node)
                            or original(self, ctx))
        fresh = service.session(spec, config).profile
        assert runs == sampled[k:].tolist()  # nodes before k were not re-run
        assert key not in service._profile_resume
        monkeypatch.undo()
        full = profile_edge_costs(service.graph, spec, DEVICE, seed=0)
        assert fresh == full
        assert fresh.checkpoints == full.checkpoints

    def test_superseded_versions_are_released(self):
        specs = (DeepWalkSpec(), Node2VecSpec(a=2.0, b=0.5))
        config = FlexiWalkerConfig(device=DEVICE)
        service = WalkService(DeltaCSRGraph(build_graph()), fleet=DeviceFleet(DEVICE, 1))
        queries = make_queries(service.graph.num_nodes, walk_length=3, num_queries=4, seed=1)

        def check():
            version = service.graph_version
            for registry, at in ((service._compiled, -1), (service._caches, -1),
                                 (service._profiles, -2)):
                for key in registry:
                    assert key[at] == version or service._pins.get(key, 0), key

        held = []
        for step in range(20):
            for spec in specs:
                session = service.session(spec, config)
                session.submit(queries)
                session.collect()
                if step % 3 == 0:
                    held.append(session)  # stays pinned across the next delta
                else:
                    session.close()
            check()
            mutate(service, seed=100 + step)
            check()
            if step % 3 == 2:
                for session in held:
                    session.close()
                    check()
                held.clear()
        for session in held:
            session.close()
        check()
        assert not service._pins
        version = service.graph_version
        for registry, at in ((service._compiled, -1), (service._caches, -1),
                             (service._profiles, -2)):
            assert {key[at] for key in registry} <= {version}
        assert len(service._compiled) == len(specs)  # carried, not dropped


class TestMembershipFilterLifetime:
    def test_deepwalk_sessions_never_build_the_membership_filter(self):
        """The filter is built on a ``CSRGraph``'s first ``has_edges`` call,
        which only second-order workloads make: DeepWalk sessions leave it
        (and the edge keys) unbuilt, a delta's validation searches the base
        keys without building it, and a compacted snapshot starts without
        one until a Node2Vec session asks."""
        graph = build_graph()
        service = WalkService(graph, fleet=DeviceFleet(DEVICE, 1))
        config = FlexiWalkerConfig(device=DEVICE)
        queries = make_queries(graph.num_nodes, walk_length=6, num_queries=30)

        def run(spec):
            session = service.session(spec, config)
            session.submit(queries)
            session.collect()
            session.close()

        run(DeepWalkSpec())
        assert graph._edge_filter_cache is None and graph._edge_key_cache is None
        mutate(service, seed=3)
        run(DeepWalkSpec())
        assert graph._edge_filter_cache is None
        snapshot = service.graph
        assert snapshot is not graph
        assert snapshot._edge_filter_cache is None
        run(Node2VecSpec())
        assert snapshot._edge_filter_cache is not None
