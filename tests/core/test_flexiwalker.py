"""The end-to-end pipeline of Fig. 6 behind ``WalkService.session``.

Opening a session compiles the workload, profiles the device and wires the
runtime selector; submit/collect then walks on the simulated device.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import FlexiWalkerConfig
from repro.errors import CompilerWarning, ReproError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import A6000
from repro.service import DeviceFleet, WalkService
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec, UnweightedNode2VecSpec
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState, make_queries

SMALL_DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
CONFIG = FlexiWalkerConfig(device=SMALL_DEVICE)


def open_session(graph, spec, config=CONFIG):
    return WalkService(graph, fleet=DeviceFleet(config.device)).session(spec, config)


def run(session, walk_length=None, num_queries=None):
    """Submit one query per node (or ``num_queries`` of them) and collect.

    ``walk_length`` defaults to the workload's paper setting (80 steps, or
    the schema depth for MetaPath).
    """
    queries = make_queries(
        session.engine.graph.num_nodes,
        walk_length=session.spec.default_walk_length if walk_length is None else walk_length,
        num_queries=num_queries,
        seed=session.config.seed,
    )
    session.submit(queries)
    return session.collect()


class TestPipelineAssembly:
    def test_compiles_profiles_and_selects(self, small_graph):
        info = open_session(small_graph, Node2VecSpec()).describe()
        assert info["compiler_supported"]
        assert info["granularity"] == "PER_STEP"
        assert info["selector"] == "cost_model"
        assert info["edge_cost_ratio"] > 1.0

    def test_profiling_can_be_disabled(self, small_graph):
        config = dataclasses.replace(CONFIG, run_profiling=False)
        session = open_session(small_graph, Node2VecSpec(), config)
        assert session.profile is None
        assert session.cost_model.edge_cost_ratio == pytest.approx(SMALL_DEVICE.random_to_coalesced_ratio)

    def test_selection_policies_build_matching_selectors(self, small_graph):
        for policy, expected in [
            ("cost_model", "cost_model"),
            ("ervs_only", "fixed_ervs"),
            ("erjs_only", "fixed_erjs"),
            ("random", "random"),
            ("degree", "degree_based"),
        ]:
            config = dataclasses.replace(CONFIG, selection=policy)
            assert open_session(small_graph, Node2VecSpec(), config).selector.name == expected

    def test_unsupported_workload_forces_ervs_only(self, small_graph):
        class LoopSpec(WalkSpec):
            name = "loop"

            def get_weight(self, graph: CSRGraph, state: WalkerState, edge: int) -> float:
                h_e = graph.weights[edge]
                total = 0.0
                while total < h_e:
                    total += 1.0
                return total

        with pytest.warns(CompilerWarning):
            session = open_session(small_graph, LoopSpec())
        assert session.selector.name == "fixed_ervs"
        result = run(session, walk_length=3, num_queries=5)
        assert set(result.sampler_usage) == {"eRVS"}


class TestRunning:
    def test_run_defaults_to_one_query_per_node(self, small_graph):
        result = run(open_session(small_graph, Node2VecSpec()), walk_length=3)
        assert len(result.paths) == small_graph.num_nodes

    def test_run_with_subsampled_queries(self, small_graph):
        result = run(open_session(small_graph, Node2VecSpec()), walk_length=3, num_queries=7)
        assert len(result.paths) == 7

    def test_metapath_uses_schema_depth_by_default(self, small_graph):
        result = run(open_session(small_graph, MetaPathSpec(schema=(0, 1, 2))), num_queries=5)
        assert all(len(path) - 1 <= 3 for path in result.paths)

    def test_empty_query_batch_rejected(self, small_graph):
        session = open_session(small_graph, Node2VecSpec())
        with pytest.raises(ReproError):
            session.submit([])

    def test_walks_follow_graph_edges(self, small_graph):
        result = run(open_session(small_graph, Node2VecSpec()), walk_length=4, num_queries=10)
        for path in result.paths:
            for src, dst in zip(path, path[1:], strict=False):
                assert small_graph.has_edge(src, dst)

    def test_overheads_reported(self, small_graph):
        result = run(open_session(small_graph, Node2VecSpec()), walk_length=3, num_queries=5)
        assert result.overhead_ms > 0
        assert result.total_time_ms > result.time_ms

    def test_per_kernel_workload_has_no_preprocess_time(self, small_graph):
        session = open_session(small_graph, UnweightedNode2VecSpec())
        result = run(session, walk_length=3, num_queries=5)
        assert result.preprocess_time_ns == 0.0

    def test_summary_contains_key_metrics(self, small_graph):
        session = open_session(small_graph, Node2VecSpec())
        summary = run(session, walk_length=3, num_queries=5).summary()
        for key in ("time_ms", "total_steps", "selection_ratio", "avg_walk_length"):
            assert key in summary
        assert summary["num_queries"] == 5

    def test_deterministic_given_seed(self, small_graph):
        config = dataclasses.replace(CONFIG, seed=42)
        a = run(open_session(small_graph, Node2VecSpec(), config), walk_length=4, num_queries=6)
        b = run(open_session(small_graph, Node2VecSpec(), config), walk_length=4, num_queries=6)
        assert a.paths == b.paths
