"""Property-based equivalence of the fused and serial multi-device loops.

``WalkEngine.run`` advances every device's walkers in one shared frontier
(the batched driver with its replicated placement ledger); the serial
composition runs one single-device driver per device, one device after
another.  Because every walker's randomness, counters and
termination are strictly per-walker, the two must be *bit-identical* in
everything — paths, counter totals (global and per device), per-query
simulated times, device kernel times and hence the makespan — for any device
count, partition policy, workload and seed.  Hypothesis hunts for
counterexamples across that whole grid.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.generator import compile_workload
from repro.graph.generators import barabasi_albert_graph
from repro.graph.labels import random_edge_labels
from repro.graph.weights import uniform_weights
from repro.gpusim.device import A6000
from repro.gpusim.multigpu import PARTITION_POLICIES
from repro.runtime.engine import WalkEngine
from repro.runtime.frontier import run_multi_device_serial
from repro.runtime.selector import CostModelSelector
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)

SPEC_FACTORIES = {
    "deepwalk": DeepWalkSpec,
    "node2vec": Node2VecSpec,
    "metapath": lambda: MetaPathSpec(schema=(0, 1, 2)),
}


def build_graph(seed: int):
    graph = barabasi_albert_graph(24 + (seed % 4) * 10, 3, seed=seed,
                                  name=f"fused-{seed}")
    graph = graph.with_weights(uniform_weights(graph, seed=seed))
    return graph.with_labels(random_edge_labels(graph, num_labels=4, seed=seed))


class TestFusedMatchesSerialComposition:
    @settings(max_examples=20, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=30),
        run_seed=st.integers(min_value=0, max_value=500),
        workload=st.sampled_from(sorted(SPEC_FACTORIES)),
        num_devices=st.sampled_from([1, 2, 4]),
        policy=st.sampled_from(PARTITION_POLICIES),
        walk_length=st.integers(min_value=1, max_value=6),
    )
    def test_fused_equals_serial(self, graph_seed, run_seed, workload,
                                 num_devices, policy, walk_length):
        graph = build_graph(graph_seed)
        spec = SPEC_FACTORIES[workload]()
        compiled = compile_workload(spec, graph)
        engine = WalkEngine(
            graph=graph, spec=spec, device=DEVICE, seed=run_seed,
            selector=CostModelSelector(), compiled=compiled,
            selection_overhead=True, warp_switch_overhead=True,
            num_devices=num_devices, partition_policy=policy,
        )
        queries = make_queries(graph.num_nodes, walk_length=walk_length,
                               num_queries=min(16, graph.num_nodes), seed=run_seed)
        fused = engine.run(queries)
        serial = run_multi_device_serial(engine, queries)

        assert fused.paths == serial.paths
        assert fused.sampler_usage == serial.sampler_usage
        assert fused.total_steps == serial.total_steps
        assert fused.counters.as_dict() == serial.counters.as_dict()
        assert np.array_equal(fused.per_query_ns, serial.per_query_ns)
        assert fused.kernel.time_ns == serial.kernel.time_ns
        assert [k.time_ns for k in fused.device_kernels] == [
            k.time_ns for k in serial.device_kernels
        ]
        assert [k.counters.as_dict() for k in fused.device_kernels] == [
            k.counters.as_dict() for k in serial.device_kernels
        ]
        assert [k.num_queries for k in fused.device_kernels] == [
            k.num_queries for k in serial.device_kernels
        ]
        assert fused.load_imbalance == serial.load_imbalance
