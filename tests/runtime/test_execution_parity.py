"""Scalar-vs-batched execution parity.

The batched frontier engine must be *simulation-equivalent* to the scalar
reference interpreter: identical walks, identical per-kernel usage, identical
counter totals and identical per-query simulated times for a fixed seed
policy.  These tests enforce that across workloads, selection policies,
baseline kernels and randomly generated graphs (property-based via
hypothesis).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.generator import compile_workload
from repro.core.config import FlexiWalkerConfig
from repro.graph.generators import barabasi_albert_graph
from repro.graph.labels import random_edge_labels
from repro.graph.weights import uniform_weights
from repro.gpusim.device import A6000
from repro.runtime.engine import WalkEngine
from repro.runtime.selector import (
    CostModelSelector,
    DegreeBasedSelector,
    FixedSelector,
)
from repro.sampling.alias import AliasSampler
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.sampling.ervs import EnhancedReservoirSampler
from repro.sampling.its import InverseTransformSampler
from repro.sampling.rejection import RejectionSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec, UnweightedNode2VecSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)


def labeled_graph(num_nodes: int, seed: int):
    graph = barabasi_albert_graph(num_nodes, 3, seed=seed, name=f"parity-{seed}")
    graph = graph.with_weights(uniform_weights(graph, seed=seed))
    return graph.with_labels(random_edge_labels(graph, num_labels=5, seed=seed))


def run_both_engines(graph, spec, seed=0, walk_length=6, num_queries=24, **kwargs):
    queries = make_queries(graph.num_nodes, walk_length=walk_length,
                           num_queries=num_queries, seed=seed)
    results = []
    for mode in ("scalar", "batched"):
        engine = WalkEngine(graph=graph, spec=spec, device=DEVICE, seed=seed,
                            execution=mode, **kwargs)
        results.append(engine.run(queries))
    return results


def assert_parity(scalar, batched):
    assert scalar.paths == batched.paths
    assert scalar.sampler_usage == batched.sampler_usage
    assert scalar.total_steps == batched.total_steps
    assert scalar.counters.as_dict() == batched.counters.as_dict()
    assert np.array_equal(scalar.per_query_ns, batched.per_query_ns)
    assert scalar.kernel.time_ns == batched.kernel.time_ns


SPEC_FACTORIES = {
    "deepwalk": DeepWalkSpec,
    "node2vec": Node2VecSpec,
    "node2vec_unweighted": UnweightedNode2VecSpec,
    "metapath": lambda: MetaPathSpec(schema=(0, 1, 2)),
    "2nd_pr": SecondOrderPRSpec,
}


class TestAdaptiveSelectionParity:
    """The paper's configuration: cost-model selection with compiled hints."""

    @pytest.mark.parametrize("workload", sorted(SPEC_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cost_model_parity(self, workload, seed):
        graph = labeled_graph(50, seed=seed + 10)
        spec = SPEC_FACTORIES[workload]()
        compiled = compile_workload(spec, graph)
        scalar, batched = run_both_engines(
            graph, spec, seed=seed,
            selector=CostModelSelector(), compiled=compiled,
            selection_overhead=True, warp_switch_overhead=True,
        )
        assert_parity(scalar, batched)

    def test_degree_selection_parity(self):
        graph = labeled_graph(60, seed=7)
        spec = Node2VecSpec()
        compiled = compile_workload(spec, graph)
        scalar, batched = run_both_engines(
            graph, spec, seed=3,
            selector=DegreeBasedSelector(threshold=5), compiled=compiled,
        )
        assert_parity(scalar, batched)

    def test_metapath_dead_ends_terminate_identically(self):
        graph = labeled_graph(40, seed=5)
        spec = MetaPathSpec(schema=(4,))
        scalar, batched = run_both_engines(graph, spec, seed=1, walk_length=5)
        assert_parity(scalar, batched)
        # Schema label 4 is sparse, so some walks must actually have stopped
        # early for this test to be exercising the dead-end path.
        lengths = [len(p) - 1 for p in scalar.paths]
        assert min(lengths) < 5


class TestFixedKernelParity:
    """Every kernel's sample_batch must replay its scalar sample exactly."""

    @pytest.mark.parametrize("sampler_factory", [
        EnhancedReservoirSampler,
        lambda: EnhancedReservoirSampler(use_jump=False),
        lambda: EnhancedReservoirSampler(use_exponential_keys=False),
        EnhancedRejectionSampler,
        RejectionSampler,
        ReservoirSampler,
        InverseTransformSampler,
        AliasSampler,
    ])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_fixed_sampler_parity(self, sampler_factory, seed):
        graph = labeled_graph(50, seed=seed + 20)
        spec = Node2VecSpec()
        compiled = compile_workload(spec, graph)
        scalar, batched = run_both_engines(
            graph, spec, seed=seed,
            selector=FixedSelector(sampler_factory()), compiled=compiled,
        )
        assert_parity(scalar, batched)

    def test_erjs_without_hints_uses_scan_fallback_identically(self):
        graph = labeled_graph(50, seed=9)
        scalar, batched = run_both_engines(
            graph, Node2VecSpec(), seed=2,
            selector=FixedSelector(EnhancedRejectionSampler()), compiled=None,
        )
        assert_parity(scalar, batched)


class TestHooksAndOverheadParity:
    def test_step_overhead_hook_parity(self):
        def hook(ctx, sampler):
            ctx.counters.random_accesses += 4
            ctx.counters.atomic_ops += 2

        graph = labeled_graph(40, seed=11)
        scalar, batched = run_both_engines(
            graph, Node2VecSpec(), seed=0,
            selector=FixedSelector(RejectionSampler()), step_overhead=hook,
        )
        assert_parity(scalar, batched)

    def test_counter_reading_hook_parity(self):
        """Hooks may read the step's already-charged counts (scalar contract)."""

        def hook(ctx, sampler):
            ctx.counters.atomic_ops += ctx.counters.rng_draws

        graph = labeled_graph(40, seed=14)
        scalar, batched = run_both_engines(
            graph, Node2VecSpec(), seed=1, step_overhead=hook,
        )
        assert_parity(scalar, batched)
        assert scalar.counters.atomic_ops > len(scalar.paths)

    def test_static_scheduling_parity(self):
        graph = labeled_graph(40, seed=12)
        scalar, batched = run_both_engines(
            graph, DeepWalkSpec(), seed=0, scheduling="static",
        )
        assert_parity(scalar, batched)

    def test_int8_weight_bytes_parity(self):
        graph = labeled_graph(40, seed=13)
        scalar, batched = run_both_engines(
            graph, DeepWalkSpec(), seed=0, weight_bytes=1,
        )
        assert_parity(scalar, batched)


class TestSessionParity:
    @pytest.mark.parametrize("selection", ["cost_model", "ervs_only", "erjs_only", "degree"])
    def test_session_modes_agree(self, selection):
        """A submit/collect session against the scalar oracle engine."""
        graph = labeled_graph(60, seed=21)
        config = FlexiWalkerConfig(
            device=DEVICE, selection=selection, degree_threshold=5, seed=1,
        )
        session = WalkService(graph, fleet=DeviceFleet(DEVICE)).session(Node2VecSpec(), config)
        queries = make_queries(graph.num_nodes, walk_length=5, num_queries=30, seed=1)
        session.submit(queries)
        batched = session.collect()
        oracle = session.engine.with_devices(1)
        oracle.execution = "scalar"
        assert_parity(oracle.run(queries), batched)

    def test_session_engine_is_batched(self):
        graph = labeled_graph(30, seed=22)
        session = WalkService(graph, fleet=DeviceFleet(DEVICE)).session(
            Node2VecSpec(), FlexiWalkerConfig(device=DEVICE)
        )
        assert session.engine.execution == "batched"


class TestPropertyBasedParity:
    """Random graphs, seeds and walk shapes (the ISSUE's property test)."""

    @settings(max_examples=12, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=40),
        run_seed=st.integers(min_value=0, max_value=1000),
        workload=st.sampled_from(sorted(SPEC_FACTORIES)),
        walk_length=st.integers(min_value=1, max_value=8),
    )
    def test_random_graph_parity(self, graph_seed, run_seed, workload, walk_length):
        graph = labeled_graph(20 + (graph_seed % 5) * 8, seed=graph_seed)
        spec = SPEC_FACTORIES[workload]()
        compiled = compile_workload(spec, graph)
        scalar, batched = run_both_engines(
            graph, spec, seed=run_seed, walk_length=walk_length, num_queries=12,
            selector=CostModelSelector(), compiled=compiled,
            selection_overhead=True, warp_switch_overhead=True,
        )
        assert_parity(scalar, batched)
