"""Session semantics: tickets, streaming, interleaving, multi-tenancy."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import FlexiWalkerConfig
from repro.errors import ServiceError
from repro.gpusim.device import A6000
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import WalkQuery, make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
CONFIG = FlexiWalkerConfig(device=DEVICE)


def make_service(graph, count: int = 1) -> WalkService:
    return WalkService(graph, fleet=DeviceFleet(DEVICE, count))


class TestSubmit:
    def test_submit_returns_tracking_ticket(self, service_graph):
        session = make_service(service_graph).session(Node2VecSpec(), CONFIG)
        queries = make_queries(service_graph.num_nodes, walk_length=4, num_queries=8)
        ticket = session.submit(queries)
        assert ticket.status == "queued"
        assert not ticket.done
        assert ticket.query_ids == tuple(q.query_id for q in queries)
        assert session.pending == 8

    def test_empty_submission_rejected(self, service_graph):
        session = make_service(service_graph).session(Node2VecSpec(), CONFIG)
        with pytest.raises(ServiceError):
            session.submit([])

    def test_duplicate_query_ids_rejected_across_submissions(self, service_graph):
        session = make_service(service_graph).session(Node2VecSpec(), CONFIG)
        queries = make_queries(service_graph.num_nodes, walk_length=4, num_queries=6)
        session.submit(queries)
        with pytest.raises(ServiceError):
            session.submit(queries[:2])

    def test_ticket_paths_unavailable_until_done(self, service_graph):
        session = make_service(service_graph).session(Node2VecSpec(), CONFIG)
        ticket = session.submit(make_queries(service_graph.num_nodes, walk_length=4, num_queries=5))
        with pytest.raises(ServiceError):
            ticket.paths()
        session.collect()
        assert ticket.done
        assert len(ticket.paths()) == 5

    def test_collect_without_submissions_rejected(self, service_graph):
        session = make_service(service_graph).session(Node2VecSpec(), CONFIG)
        with pytest.raises(ServiceError):
            session.collect()


class TestStreaming:
    def test_stream_yields_every_walk_exactly_once(self, service_graph):
        session = make_service(service_graph).session(Node2VecSpec(), CONFIG)
        queries = make_queries(service_graph.num_nodes, walk_length=5, num_queries=20)
        session.submit(queries)
        seen: list[int] = []
        for chunk in session.stream():
            assert len(chunk.query_ids) == len(chunk.paths)
            seen.extend(chunk.query_ids)
        assert sorted(seen) == [q.query_id for q in queries]
        assert len(seen) == len(set(seen))
        assert session.pending == 0

    def test_chunk_paths_match_collected_paths(self, service_graph):
        session = make_service(service_graph).session(Node2VecSpec(), CONFIG)
        queries = make_queries(service_graph.num_nodes, walk_length=5, num_queries=20)
        session.submit(queries)
        streamed: dict[int, list[int]] = {}
        for chunk in session.stream():
            for qid, path in zip(chunk.query_ids, chunk.paths, strict=False):
                streamed[qid] = list(path)
        result = session.collect()
        for query, path in zip(queries, result.paths, strict=False):
            assert streamed[query.query_id] == path

    def test_metapath_streams_early_deadend_completions(self, service_graph):
        # MetaPath walks die at schema dead ends, so chunks must arrive at
        # different supersteps (not one terminal blob).
        session = make_service(service_graph).session(MetaPathSpec(schema=(0, 1, 2)), CONFIG)
        session.submit(make_queries(service_graph.num_nodes, walk_length=3))
        supersteps = [chunk.superstep for chunk in session.stream()]
        assert len(supersteps) >= 2
        assert supersteps == sorted(supersteps)

    def test_interleaved_submit_stream_orders_by_submission(self, service_graph):
        session = make_service(service_graph).session(Node2VecSpec(), CONFIG)
        queries = make_queries(service_graph.num_nodes, walk_length=4, num_queries=12)
        first = session.submit(queries[:4])
        stream = session.stream()
        seen: list[int] = []
        for chunk in stream:
            seen.extend(chunk.query_ids)
            break
        # Mid-stream: enqueue more work, the same generator picks it up.
        second = session.submit(queries[4:])
        assert second.status == "queued"
        for chunk in stream:
            seen.extend(chunk.query_ids)
        assert sorted(seen) == [q.query_id for q in queries]
        assert first.done and second.done
        # collect() still reports every query in submission order.
        result = session.collect()
        assert [p[0] for p in result.paths] == [q.start_node for q in queries]

    def test_abandoned_stream_resumes_in_collect(self, service_graph):
        session = make_service(service_graph).session(MetaPathSpec(schema=(0, 1, 2)), CONFIG)
        session.submit(make_queries(service_graph.num_nodes, walk_length=3))
        for _ in session.stream():
            break  # abandon mid-wave
        result = session.collect()
        assert len(result.paths) == service_graph.num_nodes

    def test_chunk_accounting_sums_to_total(self, service_graph):
        session = make_service(service_graph).session(Node2VecSpec(), CONFIG)
        session.submit(make_queries(service_graph.num_nodes, walk_length=5, num_queries=16))
        # For a fixed-length workload every walk survives to the last
        # superstep, so the emitted chunks cover every executed step.
        chunk_steps = sum(c.steps for c in session.stream())
        assert chunk_steps <= session.collect().total_steps


class TestMultiTenancy:
    def test_same_workload_sessions_share_transition_cache(self, service_graph):
        service = make_service(service_graph)
        a = service.session(DeepWalkSpec(), CONFIG)
        b = service.session(DeepWalkSpec(), CONFIG)
        a.submit(make_queries(service_graph.num_nodes, walk_length=4, num_queries=6))
        a.collect()  # builds the cache through session a
        cache_a = a.engine._transition_cache()
        cache_b = b.engine._transition_cache()
        assert cache_a is not None
        assert cache_a is cache_b
        assert a.engine.caches is b.engine.caches

    def test_same_workload_sessions_share_compiled_and_profile(self, service_graph):
        service = make_service(service_graph)
        a = service.session(Node2VecSpec(a=2.0, b=0.5), CONFIG)
        b = service.session(Node2VecSpec(a=2.0, b=0.5), CONFIG)
        assert a.compiled is b.compiled
        assert a.profile is b.profile

    def test_different_hyperparameters_do_not_share(self, service_graph):
        service = make_service(service_graph)
        a = service.session(Node2VecSpec(a=2.0, b=0.5), CONFIG)
        b = service.session(Node2VecSpec(a=0.5, b=2.0), CONFIG)
        assert a.compiled is not b.compiled

    def test_array_hyperparameters_key_by_content(self):
        # repr() truncates large arrays; the cache key must not collide on
        # the truncated form, and equal-content arrays must share.
        import numpy as np

        class BiasSpec(Node2VecSpec):
            def __init__(self, bias):
                self.bias = np.asarray(bias, dtype=np.float64)
                super().__init__()

            def describe(self):
                return {**super().describe(), "bias": self.bias}

        base = np.zeros(2000)
        tweaked = base.copy()
        tweaked[1000] = 5.0
        key_a = WalkService._spec_key(BiasSpec(base))
        key_b = WalkService._spec_key(BiasSpec(tweaked))
        key_c = WalkService._spec_key(BiasSpec(base.copy()))
        assert key_a != key_b
        assert key_a == key_c

    def test_different_workloads_share_one_service(self, service_graph):
        service = make_service(service_graph)
        sessions = [
            service.session(DeepWalkSpec(), CONFIG),
            service.session(Node2VecSpec(), CONFIG),
            service.session(MetaPathSpec(schema=(0, 1, 2)), CONFIG),
        ]
        queries = make_queries(service_graph.num_nodes, walk_length=3, num_queries=10)
        for session in sessions:
            session.submit([WalkQuery(q.query_id, q.start_node, q.max_length) for q in queries])
        results = [session.collect() for session in sessions]
        assert all(len(r.paths) == 10 for r in results)
        assert service.describe()["compiled_workloads"] == 3

    def test_concurrent_sessions_interleave_without_interference(self, service_graph):
        # Drive two same-service sessions chunk by chunk, alternating; each
        # must produce exactly what a solo session produces.
        service = make_service(service_graph)
        queries = make_queries(service_graph.num_nodes, walk_length=5, num_queries=14)

        solo = service.session(DeepWalkSpec(), CONFIG)
        solo.submit(queries)
        expected = solo.collect()

        a = service.session(DeepWalkSpec(), CONFIG)
        b = service.session(DeepWalkSpec(), CONFIG)
        a.submit(queries)
        b.submit(queries)
        streams = [a.stream(), b.stream()]
        exhausted = [False, False]
        while not all(exhausted):
            for i, stream in enumerate(streams):
                if not exhausted[i]:
                    try:
                        next(stream)
                    except StopIteration:
                        exhausted[i] = True
        for session in (a, b):
            result = session.collect()
            assert result.paths == expected.paths
            assert result.counters.as_dict() == expected.counters.as_dict()
            assert result.kernel.time_ns == expected.kernel.time_ns
