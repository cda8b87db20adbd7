"""Session ↔ one-shot parity: collect() must be bit-identical to the engine.

The acceptance contract of the service redesign: for every paper workload
(deepwalk / node2vec / metapath / 2nd-order PageRank) and every backend
(batched, fused multi-device), ``WalkSession.collect()`` — including after
arbitrary submit/stream interleaving — reproduces the legacy
``WalkEngine.run`` output *bit for bit*: paths, per-kernel usage, counter
totals, per-query simulated times, kernel makespans, per-device kernels and
the simulated profiling/preprocessing overheads.  The ``*scalar`` modes are
additionally checked against the single-device scalar oracle
(``WalkEngine(execution="scalar")``).  Under a fault plan, a
session that submits everything and then collects must match
``WalkEngine.run`` in the simulated clock and the recovery ledger as well.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.runtime.faults import DeviceFailure, FaultPlan, InterconnectDrop
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.state import WalkQuery, make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)

SPEC_FACTORIES = {
    "deepwalk": DeepWalkSpec,
    "node2vec": Node2VecSpec,
    "metapath": lambda: MetaPathSpec(schema=(0, 1, 2)),
    "2nd_pr": SecondOrderPRSpec,
}

#: Session configurations.  Scalar execution is not a serving backend: the
#: ``*scalar`` modes run batched like the others and are checked against the
#: single-device scalar oracle on top.
MODES = {
    "scalar": {},
    "batched": {},
    "multi_device": {"num_devices": 4, "partition_policy": "balanced"},
    "multi_device_scalar": {"num_devices": 3, "partition_policy": "range"},
}
ORACLE_MODES = ("scalar", "multi_device_scalar")


def make_config(**overrides) -> FlexiWalkerConfig:
    return FlexiWalkerConfig(device=DEVICE, seed=3, **overrides)


def reference_run(graph, spec, config, queries, mode="batched"):
    """A direct ``WalkEngine.run`` on a session's engine (no submit/collect).

    For the oracle modes the engine run is first checked against the
    single-device scalar interpreter over the same queries.
    """
    service = WalkService(graph, fleet=DeviceFleet(DEVICE, config.num_devices))
    session = service.session(spec, config)
    reference = session.engine.run(queries, profile=session.profile)
    if mode in ORACLE_MODES:
        oracle = session.engine.with_devices(1)
        oracle.execution = "scalar"
        assert_matches_oracle(reference, oracle.run(queries, profile=session.profile))
    return reference


def assert_matches_oracle(result, oracle):
    """Everything placement-invariant equals the scalar oracle's (and, on a
    single device, the kernel too)."""
    assert result.paths == oracle.paths
    assert result.sampler_usage == oracle.sampler_usage
    assert result.total_steps == oracle.total_steps
    assert result.counters.as_dict() == oracle.counters.as_dict()
    assert np.array_equal(result.per_query_ns, oracle.per_query_ns)
    if not result.device_kernels:
        assert result.kernel.time_ns == oracle.kernel.time_ns


def assert_bit_identical(result, reference):
    assert result.paths == reference.paths
    assert result.sampler_usage == reference.sampler_usage
    assert result.total_steps == reference.total_steps
    assert result.counters.as_dict() == reference.counters.as_dict()
    assert np.array_equal(result.per_query_ns, reference.per_query_ns)
    assert result.kernel.time_ns == reference.kernel.time_ns
    assert result.kernel.total_work_ns == reference.kernel.total_work_ns
    assert [k.time_ns for k in result.device_kernels] == [
        k.time_ns for k in reference.device_kernels
    ]
    assert [k.counters.as_dict() for k in result.device_kernels] == [
        k.counters.as_dict() for k in reference.device_kernels
    ]
    # Simulated overheads: profiling + preprocessing (Table 3).
    assert result.preprocess_time_ns == reference.preprocess_time_ns
    assert result.overhead_ms == reference.overhead_ms


class TestCollectParity:
    @pytest.mark.parametrize("workload", sorted(SPEC_FACTORIES))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_single_submit_collect_is_bit_identical(self, service_graph, workload, mode):
        config = make_config(**MODES[mode])
        queries = make_queries(service_graph.num_nodes, walk_length=6, num_queries=24, seed=3)
        reference = reference_run(
            service_graph, SPEC_FACTORIES[workload](), config, queries, mode
        )

        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, config.num_devices))
        session = service.session(SPEC_FACTORIES[workload](), config)
        session.submit(queries)
        assert_bit_identical(session.collect(), reference)

    @pytest.mark.parametrize("workload", sorted(SPEC_FACTORIES))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_interleaved_submit_stream_collect_is_bit_identical(
        self, service_graph, workload, mode
    ):
        config = make_config(**MODES[mode])
        queries = make_queries(service_graph.num_nodes, walk_length=6, num_queries=24, seed=3)
        reference = reference_run(
            service_graph, SPEC_FACTORIES[workload](), config, queries, mode
        )

        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, config.num_devices))
        session = service.session(SPEC_FACTORIES[workload](), config)
        # Three submissions with a partial stream drain between each.
        session.submit(queries[:7])
        stream = session.stream()
        next(stream, None)
        session.submit(queries[7:15])
        next(stream, None)
        session.submit(queries[15:])
        assert_bit_identical(session.collect(), reference)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_second_session_on_one_service_is_bit_identical(self, service_graph, mode):
        """Sessions share the service's compile, profile and cache registries;
        a later session over the same workload must still reproduce the run."""
        config = make_config(**MODES[mode])
        queries = make_queries(service_graph.num_nodes, walk_length=6, num_queries=24, seed=3)
        reference = reference_run(service_graph, Node2VecSpec(), config, queries, mode)

        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, config.num_devices))
        for _ in range(2):
            session = service.session(Node2VecSpec(), config)
            session.submit(queries)
            assert_bit_identical(session.collect(), reference)

    def test_repeated_collect_covers_later_submissions(self, service_graph):
        config = make_config()
        queries = make_queries(service_graph.num_nodes, walk_length=5, num_queries=20, seed=3)
        reference = reference_run(service_graph, DeepWalkSpec(), config, queries)

        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, 1))
        session = service.session(DeepWalkSpec(), config)
        session.submit(queries[:8])
        first = session.collect()
        assert first.paths == reference.paths[:8]
        session.submit(queries[8:])
        assert_bit_identical(session.collect(), reference)


# Fault plans exercising the degraded-mode owner reassignment (replicated),
# the shard takeover and the interconnect-drop resend (sharded): per-device
# and recovery accounting a session must share with ``WalkEngine.run``.
FAULT_GRAPH = barabasi_albert_graph(40, 3, seed=5, name="fault-parity")
FAULT_GRAPH = FAULT_GRAPH.with_weights(uniform_weights(FAULT_GRAPH, seed=5))
FAULT_QUERIES = [WalkQuery(i, i % FAULT_GRAPH.num_nodes, 8) for i in range(12)]
FAULT_CASES = {
    "replicated-device-failure": (
        "replicated", FaultPlan(device_failures=(DeviceFailure(superstep=2, device=1),)),
    ),
    "sharded-device-failure": (
        "sharded", FaultPlan(device_failures=(DeviceFailure(superstep=2, device=1),)),
    ),
    "sharded-interconnect-drop": (
        "sharded", FaultPlan(interconnect_drops=(InterconnectDrop(step=1),)),
    ),
}


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_submit_all_collect_matches_engine_under_faults(case):
    placement, plan = FAULT_CASES[case]
    config = make_config(num_devices=2, graph_placement=placement, fault_plan=plan)
    reference = reference_run(FAULT_GRAPH, DeepWalkSpec(), config, FAULT_QUERIES)

    service = WalkService(FAULT_GRAPH, fleet=DeviceFleet(DEVICE, 2))
    session = service.session(DeepWalkSpec(), config)
    session.submit(FAULT_QUERIES)
    result = session.collect()

    assert_bit_identical(result, reference)
    assert result.recovery_time_ns == reference.recovery_time_ns
    assert result.recovery_time_ns > 0
    assert result.degraded_devices == reference.degraded_devices
    assert result.checkpoints_taken == reference.checkpoints_taken

