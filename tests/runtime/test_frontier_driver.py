"""The batched frontier driver behind ``WalkEngine.run`` and sessions.

Covers what the driver owns directly — placement-ledger selection, the
launch/advance lifecycle, the wall-clock measurement and the scalar oracle's
single-device restriction — while the parity suites cover the numbers.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpusim.device import A6000
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.runtime.engine import WalkEngine
from repro.runtime.faults import DeviceFailure, FaultPlan
from repro.runtime.frontier import (
    FrontierDriver,
    ReplicatedRunAccounting,
    ShardedRunAccounting,
)
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
GRAPH = barabasi_albert_graph(40, 3, seed=2, name="driver-test")
GRAPH = GRAPH.with_weights(uniform_weights(GRAPH, seed=2))
QUERIES = [WalkQuery(i, (3 * i) % GRAPH.num_nodes, 6) for i in range(16)]


def engine(**kwargs) -> WalkEngine:
    return WalkEngine(graph=GRAPH, spec=DeepWalkSpec(), device=DEVICE, seed=4, **kwargs)


class TestLedgers:
    def test_single_device_keeps_no_per_walker_ledger(self):
        assert FrontierDriver(engine()).ledger is None
        # Sharded placement on one device is a plain single-device run too.
        assert FrontierDriver(engine(graph_placement="sharded")).ledger is None

    def test_multi_device_placements_pick_their_ledger(self):
        assert isinstance(
            FrontierDriver(engine(num_devices=2)).ledger, ReplicatedRunAccounting
        )
        assert isinstance(
            FrontierDriver(engine(num_devices=2, graph_placement="sharded")).ledger,
            ShardedRunAccounting,
        )

    def test_replicated_failure_moves_later_work_to_survivors(self):
        plan = FaultPlan(device_failures=(DeviceFailure(superstep=1, device=0),))
        result = engine(num_devices=2, fault_plan=plan).run(QUERIES)
        dead, survivor = result.device_kernels
        # The dead device keeps what it executed but owns no queued walker.
        assert dead.num_queries == 0
        assert dead.counters.total_memory_accesses > 0
        assert survivor.num_queries == len(QUERIES)
        total = sum(k.counters.total_memory_accesses for k in result.device_kernels)
        assert total == result.counters.total_memory_accesses


class TestLifecycle:
    def test_launches_compose_into_one_result(self):
        reference = engine().run(QUERIES)
        driver = FrontierDriver(engine(), track_finished=True)
        for batch in (QUERIES[:5], QUERIES[5:]):
            driver.launch(batch)
            while driver.busy:
                driver.advance()
        result = driver.assemble()
        assert result.paths == reference.paths
        assert np.array_equal(result.per_query_ns, reference.per_query_ns)
        assert result.kernel.time_ns == reference.kernel.time_ns
        assert result.wall_clock_s > 0

    def test_launch_while_busy_is_rejected(self):
        driver = FrontierDriver(engine())
        driver.launch(QUERIES[:4])
        with pytest.raises(SimulationError, match="still executing"):
            driver.launch(QUERIES[4:])

    def test_engine_run_measures_wall_clock_in_the_driver(self):
        result = engine(num_devices=3).run(QUERIES)
        assert result.wall_clock_s > 0
        assert result.throughput_steps_per_s > 0


class TestScalarOracle:
    def test_scalar_engine_is_single_device(self):
        with pytest.raises(SimulationError, match="single-device reference oracle"):
            engine(execution="scalar", num_devices=2)
        with pytest.raises(SimulationError, match="batched execution mode"):
            engine(execution="scalar").with_devices(2)
