"""Unit coverage for the fault-tolerance runtime (:mod:`repro.runtime.faults`).

The chaos property suite (``tests/properties/test_property_faults.py``)
asserts the headline invariant — bit-identical recovery under generated
fault schedules; this module pins down the mechanism piece by piece:
checkpoint capture/rewind, the checkpoint cadence, transient-retry pricing
and exhaustion, degraded-mode bookkeeping, the scalar-mode rejection, and
the plan-negotiation declines.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import FlexiWalkerConfig
from repro.errors import FaultError, SimulationError
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import A6000
from repro.graph.generators import barabasi_albert_graph
from repro.graph.labels import random_edge_labels
from repro.graph.weights import uniform_weights
from repro.rng.streams import StreamPool
from repro.runtime.engine import WalkEngine
from repro.runtime.faults import (
    DEFAULT_CHECKPOINT_INTERVAL,
    FAILURE_DETECTION_NS,
    DeviceFailure,
    FaultPlan,
    FaultRuntime,
    InterconnectDrop,
    TransientFault,
    reassign_owners,
    restore_checkpoint,
    take_checkpoint,
)
from repro.runtime.frontier import FrontierRun, iter_supersteps
from repro.service import WalkService, negotiate_plan
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
GRAPH = barabasi_albert_graph(50, 3, seed=9, name="faults-test")
GRAPH = GRAPH.with_weights(uniform_weights(GRAPH, seed=9))
LABELED = GRAPH.with_labels(random_edge_labels(GRAPH, num_labels=4, seed=9))

WALK_LENGTH = 10


def queries(count=10, length=WALK_LENGTH):
    return [
        WalkQuery(query_id=i, start_node=i % GRAPH.num_nodes, max_length=length)
        for i in range(count)
    ]


def run(spec=None, graph=None, plan=None, interval=0, **kwargs):
    engine = WalkEngine(
        graph=graph if graph is not None else GRAPH,
        spec=spec if spec is not None else DeepWalkSpec(),
        device=DEVICE,
        fault_plan=plan,
        checkpoint_interval=interval,
        **kwargs,
    )
    return engine.run(queries())


def assert_bit_identical(result, reference):
    assert result.paths == reference.paths
    assert np.array_equal(result.per_query_ns, reference.per_query_ns)
    for name in CostCounters._COUNT_FIELDS:
        assert getattr(result.counters, name) == getattr(reference.counters, name)


class TestFaultPlanValidation:
    def test_negative_superstep_rejected(self):
        with pytest.raises(SimulationError):
            DeviceFailure(superstep=-1)
        with pytest.raises(SimulationError):
            TransientFault(superstep=-2)
        with pytest.raises(SimulationError):
            InterconnectDrop(step=-1)

    def test_zero_retry_success_prob_rejected(self):
        with pytest.raises(SimulationError, match="retry_success_prob"):
            FaultPlan(retry_success_prob=0.0)

    def test_max_retries_floor(self):
        with pytest.raises(SimulationError, match="max_retries"):
            FaultPlan(max_retries=0)

    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(transient_faults=(TransientFault(superstep=0),)).empty

    def test_event_lists_coerced_to_tuples(self):
        plan = FaultPlan(device_failures=[DeviceFailure(superstep=1)])
        assert isinstance(plan.device_failures, tuple)


class TestCheckpointRoundtrip:
    def _drive(self, engine, run, aggregate, usage, n):
        gen = iter_supersteps(engine, run, aggregate, usage)
        reports = []
        for _ in range(n):
            reports.append(next(gen))
        return reports

    def test_restore_rewinds_walkers_rng_and_accounting(self):
        engine = WalkEngine(graph=GRAPH, spec=DeepWalkSpec(), device=DEVICE)
        batch = queries()
        run = FrontierRun(engine)
        run.admit(batch, engine.seed)
        frontier, per_ns = run.frontier, run.per_query_ns
        aggregate = CostCounters(bytes_per_weight=engine.weight_bytes)
        usage: dict[str, int] = {}

        self._drive(engine, run, aggregate, usage, 3)
        cp = take_checkpoint(2, run, aggregate, usage)
        assert cp.ordinal == 2
        assert cp.payload_bytes == int(frontier.active_indices().size) * 72

        # Advance past the checkpoint, then rewind and re-advance: the
        # replay must land on bit-identical state (counter-based streams).
        first = self._drive(engine, run, aggregate, usage, 2)
        after_ns = per_ns.copy()
        restore_checkpoint(cp, run, aggregate, usage)
        assert not np.array_equal(per_ns, after_ns)
        replay = self._drive(engine, run, aggregate, usage, 2)
        assert np.array_equal(per_ns, after_ns)
        for a, b in zip(first, replay, strict=False):
            assert np.array_equal(a.active, b.active)
            assert a.steps == b.steps

    def test_metapath_state_survives_roundtrip(self):
        """MetaPath walkers carry schema-position state; a failure mid-walk
        must replay it bit-identically too."""
        reference = run(spec=MetaPathSpec(), graph=LABELED)
        plan = FaultPlan(seed=3, device_failures=(DeviceFailure(superstep=2),))
        recovered = run(spec=MetaPathSpec(), graph=LABELED, plan=plan,
                        interval=DEFAULT_CHECKPOINT_INTERVAL)
        assert_bit_identical(recovered, reference)
        assert recovered.degraded_devices == (0,)

    def test_pool_snapshot_size_mismatch_rejected(self):
        pool = StreamPool(7)
        pool.batch([0, 1, 2])
        snap = pool.snapshot_counters()
        other = StreamPool(7)
        other.batch([0, 1])
        with pytest.raises(ValueError, match="slots"):
            other.restore_counters(snap)


class TestCheckpointCadence:
    @pytest.mark.parametrize("interval", [2, 3, 4, 8])
    def test_checkpoints_taken_matches_interval(self, interval):
        result = run(interval=interval)
        # DeepWalk runs exactly WALK_LENGTH supersteps; a checkpoint lands
        # after every `interval`-th one.
        assert result.checkpoints_taken == WALK_LENGTH // interval
        assert result.recovery_time_ns > 0  # the modeled copy-out cost

    def test_zero_interval_means_no_explicit_checkpoints(self):
        result = run()
        assert result.checkpoints_taken == 0
        assert result.recovery_time_ns == 0.0
        assert result.degraded_devices == ()

    def test_checkpointing_is_pure_time_overhead(self):
        assert_bit_identical(run(interval=2), run())


class TestTransientFaults:
    def test_retries_priced_into_recovery_ledger(self):
        plan = FaultPlan(seed=5, transient_faults=(TransientFault(superstep=1),))
        result = run(plan=plan)
        reference = run()
        assert_bit_identical(result, reference)
        assert result.recovery_time_ns > 0
        assert result.degraded_devices == ()

    def test_exhausted_retries_raise_fault_error(self):
        # With a vanishingly small per-retry success probability the seeded
        # geometric draw exceeds any one-retry budget.
        plan = FaultPlan(
            seed=0,
            transient_faults=(TransientFault(superstep=1),),
            retry_success_prob=1e-9,
            max_retries=1,
        )
        with pytest.raises(FaultError, match="still failing"):
            run(plan=plan)

    def test_retry_story_is_seed_deterministic(self):
        plan = FaultPlan(seed=21, transient_faults=(TransientFault(superstep=0),),
                         retry_success_prob=0.4)
        assert run(plan=plan).recovery_time_ns == run(plan=plan).recovery_time_ns


class TestPermanentFailures:
    def test_failure_replays_from_last_checkpoint(self):
        plan = FaultPlan(seed=2, device_failures=(DeviceFailure(superstep=7),))
        result = run(plan=plan, interval=3)
        assert_bit_identical(result, run())
        assert result.degraded_devices == (0,)
        # Detection latency is always part of the bill.
        assert result.recovery_time_ns > FAILURE_DETECTION_NS

    def test_device_index_folds_modulo_fleet(self):
        runtime = FaultRuntime(
            DEVICE,
            plan=FaultPlan(device_failures=(DeviceFailure(superstep=0, device=5),)),
            num_devices=2,
        )
        assert runtime.fail_devices(0) == [1]
        assert runtime.survivors() == [0]
        assert runtime.fail_devices(0) == []  # consumed

    def test_reassign_owners_round_robins_onto_survivors(self):
        owner = np.array([0, 0, 1, 0, 2], dtype=np.int64)
        reassign_owners(owner, dead=[0], survivors=[1, 2])
        assert owner.tolist() == [1, 2, 1, 1, 2]

    def test_reassign_without_survivors_keeps_ownership(self):
        owner = np.array([0, 0, 0], dtype=np.int64)
        reassign_owners(owner, dead=[0], survivors=[])
        assert owner.tolist() == [0, 0, 0]


class TestScalarModeRejected:
    def test_engine_rejects_scalar_faults(self):
        with pytest.raises(SimulationError, match="batched"):
            WalkEngine(graph=GRAPH, spec=DeepWalkSpec(), device=DEVICE,
                       execution="scalar", checkpoint_interval=2)
        with pytest.raises(SimulationError, match="batched"):
            WalkEngine(graph=GRAPH, spec=DeepWalkSpec(), device=DEVICE,
                       execution="scalar",
                       fault_plan=FaultPlan(
                           transient_faults=(TransientFault(superstep=0),)
                       ))

class TestNegotiation:
    @pytest.fixture(scope="class")
    def capabilities(self):
        return WalkService(GRAPH).capabilities()

    def test_service_without_checkpointing_declines(self, capabilities):
        plan = negotiate_plan(
            dataclasses.replace(capabilities, checkpointing=False),
            FlexiWalkerConfig(checkpoint_interval=4),
        )
        assert plan.checkpoint_interval == 0
        assert any("not offered" in r for r in plan.reasons)

    def test_batched_service_grants_checkpointing(self, capabilities):
        plan = negotiate_plan(
            capabilities,
            FlexiWalkerConfig(checkpoint_interval=4),
        )
        assert plan.checkpoint_interval == 4
        assert any("checkpointing granted" in r for r in plan.reasons)

    def test_session_honours_negotiated_interval(self):
        service = WalkService(GRAPH)
        session = service.session(
            DeepWalkSpec(), FlexiWalkerConfig(checkpoint_interval=5)
        )
        session.submit(queries())
        result = session.collect()
        assert result.checkpoints_taken == WALK_LENGTH // 5
