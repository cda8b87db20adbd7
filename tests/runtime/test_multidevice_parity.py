"""Placement parity: multi-device execution cannot change any walk.

The multi-device engine partitions queries over replicated devices, but every
walker owns a counter-based random stream keyed by its query id, so where a
query runs must never change which walk it produces, what its steps cost, or
what the counters record.  These tests enforce bit-identical per-query paths,
per-query simulated times and counter totals for ``num_devices`` in {1, 2, 4}
under every partition policy — against the single-device batched run and the
single-device scalar oracle — plus the makespan / load-imbalance semantics
that *are* allowed to vary with placement.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler.generator import compile_workload
from repro.core.config import FlexiWalkerConfig
from repro.errors import SimulationError
from repro.gpusim.device import A6000
from repro.gpusim.multigpu import PARTITION_POLICIES
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.runtime.engine import WalkEngine
from repro.runtime.frontier import run_multi_device_serial
from repro.runtime.selector import CostModelSelector
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
DEVICE_COUNTS = (1, 2, 4)


def weighted_graph(num_nodes: int = 60, seed: int = 3):
    graph = barabasi_albert_graph(num_nodes, 3, seed=seed, name=f"multidev-{seed}")
    return graph.with_weights(uniform_weights(graph, seed=seed))


def make_engine(graph, spec, num_devices, policy, execution="batched", seed=0):
    compiled = compile_workload(spec, graph)
    return WalkEngine(
        graph=graph,
        spec=spec,
        device=DEVICE,
        selector=CostModelSelector(),
        compiled=compiled,
        seed=seed,
        selection_overhead=True,
        warp_switch_overhead=True,
        execution=execution,
        num_devices=num_devices,
        partition_policy=policy,
    )


def assert_placement_parity(baseline, result):
    """Everything placement-invariant must match the single-device run."""
    assert result.paths == baseline.paths
    assert result.sampler_usage == baseline.sampler_usage
    assert result.total_steps == baseline.total_steps
    assert result.counters.as_dict() == baseline.counters.as_dict()
    assert np.array_equal(result.per_query_ns, baseline.per_query_ns)


class TestPlacementParity:
    @pytest.mark.parametrize("policy", PARTITION_POLICIES)
    @pytest.mark.parametrize("num_devices", DEVICE_COUNTS)
    @pytest.mark.parametrize("execution", ["batched", "scalar"])
    def test_paths_counters_and_times_identical(self, policy, num_devices, execution):
        """Multi-device runs are batched; ``execution`` picks the
        single-device baseline (the batched run or the scalar oracle)."""
        graph = weighted_graph()
        spec = Node2VecSpec()
        queries = make_queries(graph.num_nodes, walk_length=6, num_queries=32, seed=0)
        baseline = make_engine(graph, spec, 1, "hash", execution=execution).run(queries)
        result = make_engine(graph, spec, num_devices, policy).run(queries)
        assert_placement_parity(baseline, result)
        assert result.num_devices == num_devices
        assert len(result.device_kernels) == (num_devices if num_devices > 1 else 0)

    @pytest.mark.parametrize("policy", PARTITION_POLICIES)
    def test_scalar_and_batched_multi_device_agree(self, policy):
        """The scalar oracle is single-device only: a multi-device batched
        run matches it on everything placement-invariant, and its makespan
        matches the serial per-device composition."""
        graph = weighted_graph(seed=9)
        spec = DeepWalkSpec()
        queries = make_queries(graph.num_nodes, walk_length=5, num_queries=24, seed=1)
        scalar = make_engine(graph, spec, 1, "hash", execution="scalar", seed=1).run(queries)
        engine = make_engine(graph, spec, 4, policy, seed=1)
        batched = engine.run(queries)
        assert_placement_parity(scalar, batched)
        serial = run_multi_device_serial(engine, queries)
        assert serial.kernel.time_ns == batched.kernel.time_ns
        with pytest.raises(SimulationError, match="single-device reference oracle"):
            make_engine(graph, spec, 4, policy, execution="scalar", seed=1)

    def test_more_devices_than_queries(self):
        """Empty partitions idle without perturbing any walk."""
        graph = weighted_graph(seed=5)
        spec = Node2VecSpec()
        queries = make_queries(graph.num_nodes, walk_length=4, num_queries=3, seed=0)
        baseline = make_engine(graph, spec, 1, "hash").run(queries)
        result = make_engine(graph, spec, 8, "hash").run(queries)
        assert_placement_parity(baseline, result)
        occupied = [k for k in result.device_kernels if k.num_queries > 0]
        assert len(result.device_kernels) == 8
        assert sum(k.num_queries for k in occupied) == 3
        assert result.load_imbalance >= 1.0


class TestMakespanSemantics:
    def test_makespan_never_exceeds_single_device_time(self):
        graph = weighted_graph(seed=7)
        spec = Node2VecSpec()
        queries = make_queries(graph.num_nodes, walk_length=6, seed=0)
        single = make_engine(graph, spec, 1, "hash").run(queries)
        for policy in PARTITION_POLICIES:
            quad = make_engine(graph, spec, 4, policy).run(queries)
            assert quad.kernel.time_ns <= single.kernel.time_ns
            assert quad.makespan_ns == max(k.time_ns for k in quad.device_kernels)
            assert quad.kernel.time_ns > 0

    def test_total_work_is_preserved(self):
        graph = weighted_graph(seed=11)
        spec = DeepWalkSpec()
        queries = make_queries(graph.num_nodes, walk_length=5, seed=0)
        single = make_engine(graph, spec, 1, "hash").run(queries)
        quad = make_engine(graph, spec, 4, "hash").run(queries)
        # Per-query lane times are placement-invariant, so the summed work
        # only differs by the scheduling atomics charged per device run.
        assert quad.kernel.total_work_ns == pytest.approx(single.kernel.total_work_ns, rel=0.05)

    def test_load_imbalance_single_device_is_unity(self):
        graph = weighted_graph(seed=13)
        result = make_engine(graph, Node2VecSpec(), 1, "hash").run(
            make_queries(graph.num_nodes, walk_length=3, num_queries=8, seed=0)
        )
        assert result.load_imbalance == 1.0
        assert result.device_times_ns.shape == (1,)


class TestWithDevicesEnginePath:
    def test_with_devices_drives_real_engine(self):
        graph = weighted_graph(seed=17)
        spec = Node2VecSpec()
        queries = make_queries(graph.num_nodes, walk_length=5, seed=0)
        engine = make_engine(graph, spec, 1, "hash")
        single = engine.run(queries)
        result = engine.with_devices(4, partition_policy="hash").run(queries)
        assert result.paths == single.paths
        assert len(result.device_kernels) == 4
        assert result.kernel.time_ns == max(k.time_ns for k in result.device_kernels)
        assert single.kernel.time_ns / result.kernel.time_ns >= 1.0
        # The source engine itself is left untouched.
        assert engine.num_devices == 1

    def test_with_devices_rejects_bad_arguments(self):
        from repro.errors import SimulationError

        graph = weighted_graph(seed=19)
        engine = make_engine(graph, Node2VecSpec(), 1, "hash")
        with pytest.raises(SimulationError):
            engine.with_devices(0)
        with pytest.raises(SimulationError):
            engine.with_devices(2, partition_policy="round-robin")


class TestSessionMultiDevice:
    @pytest.mark.parametrize("policy", PARTITION_POLICIES)
    def test_session_parity_across_device_counts(self, policy):
        graph = weighted_graph(seed=23)
        service = WalkService(graph, fleet=DeviceFleet(DEVICE, 4))
        queries = make_queries(graph.num_nodes, walk_length=5, num_queries=30, seed=2)
        results = []
        for num_devices in DEVICE_COUNTS:
            config = FlexiWalkerConfig(
                device=DEVICE, num_devices=num_devices, partition_policy=policy, seed=2
            )
            session = service.session(Node2VecSpec(), config)
            session.submit(queries)
            results.append(session.collect())
        for result in results[1:]:
            assert_placement_parity(results[0], result)

    def test_plan_reports_device_configuration(self):
        graph = weighted_graph(seed=29)
        config = FlexiWalkerConfig(device=DEVICE, num_devices=4, partition_policy="balanced")
        service = WalkService(graph, fleet=DeviceFleet(DEVICE, 4))
        described = service.session(Node2VecSpec(), config).plan.describe()
        assert described["num_devices"] == 4
        assert described["partition_policy"] == "balanced"
