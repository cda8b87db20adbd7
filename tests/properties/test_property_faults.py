"""Chaos suite: the bit-identical-recovery invariant under generated faults.

The fault-tolerance contract of :mod:`repro.runtime.faults`: for *every*
seeded :class:`FaultPlan` — permanent device failures, transient kernel
faults with probabilistic retry counts, interconnect drops — and every
checkpoint cadence, a recovered run must reproduce the fault-free run's
paths, per-query base times and counter totals bit-identically.  Only the
simulated clock may differ (the recovery ledger).  Hypothesis generates the
fault schedules; the invariant is asserted across the batched single-device,
fused multi-device, sharded and scheduler-fused execution modes, and for
standalone sessions on multi-device and sharded plans (which must also match
``WalkEngine.run`` on the simulated clock and the per-device kernels).

The example budget is bounded for tier-1 (``CHAOS_MAX_EXAMPLES``, default
15); the tier-2 nightly re-runs the suite with a larger budget to explore
longer schedules.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import A6000
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.runtime.engine import WalkEngine
from repro.runtime.faults import (
    DeviceFailure,
    FaultPlan,
    InterconnectDrop,
    TransientFault,
)
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import WalkQuery

CHAOS_MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "15"))

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
GRAPH = barabasi_albert_graph(40, 3, seed=5, name="chaos-test")
GRAPH = GRAPH.with_weights(uniform_weights(GRAPH, seed=5))
WALK_LENGTH = 8
QUERIES = [
    WalkQuery(query_id=i, start_node=i % GRAPH.num_nodes, max_length=WALK_LENGTH)
    for i in range(12)
]

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    device_failures=st.lists(
        st.builds(
            DeviceFailure,
            superstep=st.integers(min_value=0, max_value=WALK_LENGTH),
            device=st.integers(min_value=0, max_value=3),
        ),
        max_size=2,
    ),
    transient_faults=st.lists(
        st.builds(
            TransientFault,
            superstep=st.integers(min_value=0, max_value=WALK_LENGTH),
        ),
        max_size=2,
    ),
    interconnect_drops=st.lists(
        st.builds(
            InterconnectDrop,
            step=st.integers(min_value=0, max_value=WALK_LENGTH),
        ),
        max_size=2,
    ),
    retry_success_prob=st.floats(min_value=0.3, max_value=1.0),
)
intervals = st.integers(min_value=0, max_value=5)

#: Fault-free reference per engine mode, computed once (the reference does
#: not depend on the generated plan, only on the fixed workload).
_references: dict[str, object] = {}


def _engine(mode: str, plan: FaultPlan | None = None, interval: int = 0) -> WalkEngine:
    kwargs: dict[str, object] = {}
    if mode == "multidevice":
        kwargs["num_devices"] = 2
    elif mode == "sharded":
        kwargs["num_devices"] = 2
        kwargs["graph_placement"] = "sharded"
    return WalkEngine(
        graph=GRAPH,
        spec=DeepWalkSpec(),
        device=DEVICE,
        fault_plan=plan,
        checkpoint_interval=interval,
        **kwargs,
    )


def _reference(mode: str):
    if mode not in _references:
        _references[mode] = _engine(mode).run(QUERIES)
    return _references[mode]


def assert_bit_identical(result, reference) -> None:
    assert result.paths == reference.paths
    assert np.array_equal(result.per_query_ns, reference.per_query_ns)
    for name in CostCounters._COUNT_FIELDS:
        assert getattr(result.counters, name) == getattr(reference.counters, name)
    assert result.total_steps == reference.total_steps


class TestChaosRecoveryInvariant:
    @settings(max_examples=CHAOS_MAX_EXAMPLES, deadline=None)
    @given(plan=fault_plans, interval=intervals)
    def test_batched_single_device(self, plan, interval):
        result = _engine("batched", plan, interval).run(QUERIES)
        assert_bit_identical(result, _reference("batched"))
        if plan.device_failures and any(
            f.superstep < WALK_LENGTH for f in plan.device_failures
        ):
            assert result.recovery_time_ns > 0
            assert result.degraded_devices

    @settings(max_examples=CHAOS_MAX_EXAMPLES, deadline=None)
    @given(plan=fault_plans, interval=intervals)
    def test_fused_multi_device(self, plan, interval):
        result = _engine("multidevice", plan, interval).run(QUERIES)
        assert_bit_identical(result, _reference("multidevice"))

    @settings(max_examples=CHAOS_MAX_EXAMPLES, deadline=None)
    @given(plan=fault_plans, interval=intervals)
    def test_sharded(self, plan, interval):
        result = _engine("sharded", plan, interval).run(QUERIES)
        assert_bit_identical(result, _reference("sharded"))

    @settings(max_examples=CHAOS_MAX_EXAMPLES, deadline=None)
    @given(plan=fault_plans, interval=intervals)
    def test_scheduler_fused(self, plan, interval):
        """Two sessions fused by the scheduler, with a mid-run admission:
        the faulty run must match the fault-free scheduler run bit-exactly."""

        def run(config):
            service = WalkService(GRAPH, fleet=DeviceFleet(DEVICE))
            scheduler = service.scheduler()
            session = scheduler.session(DeepWalkSpec(), config)
            session.submit(QUERIES[:8])
            for _ in range(3):
                scheduler.tick()
            session.submit(QUERIES[8:])
            scheduler.run_until_idle(max_ticks=500)
            return session.collect()

        base_config = FlexiWalkerConfig(device=DEVICE, seed=3)
        faulty = run(
            dataclasses.replace(
                base_config, fault_plan=plan, checkpoint_interval=interval
            )
        )
        if "scheduler" not in _references:
            _references["scheduler"] = run(base_config)
        assert_bit_identical(faulty, _references["scheduler"])

    @pytest.mark.parametrize("mode", ["multidevice", "sharded"])
    @settings(max_examples=CHAOS_MAX_EXAMPLES, deadline=None)
    @given(plan=fault_plans, interval=intervals)
    def test_standalone_session(self, mode, plan, interval):
        """Submit everything, then collect: recovers bit-identically and
        agrees with ``WalkEngine.run`` under the same faulty plan."""

        def run(config):
            service = WalkService(GRAPH, fleet=DeviceFleet(DEVICE, 2))
            session = service.session(DeepWalkSpec(), config)
            session.submit(QUERIES)
            return session.collect(), session.engine

        placement = "sharded" if mode == "sharded" else "replicated"
        base_config = FlexiWalkerConfig(
            device=DEVICE, seed=3, num_devices=2, graph_placement=placement
        )
        faulty, engine = run(
            dataclasses.replace(
                base_config, fault_plan=plan, checkpoint_interval=interval
            )
        )
        key = f"session-{mode}"
        if key not in _references:
            _references[key] = run(base_config)[0]
        assert_bit_identical(faulty, _references[key])

        one_shot = engine.run(QUERIES)
        assert faulty.kernel.time_ns == one_shot.kernel.time_ns
        assert faulty.recovery_time_ns == one_shot.recovery_time_ns
        assert faulty.degraded_devices == one_shot.degraded_devices
        assert [(k.time_ns, k.counters.as_dict()) for k in faulty.device_kernels] == [
            (k.time_ns, k.counters.as_dict()) for k in one_shot.device_kernels
        ]
