"""Bounded scheduler state: compaction, group retirement, fault tallies.

A long-lived :class:`ServiceScheduler` must not grow with the traffic it has
served: finished walkers leave a fusion group's fused frontier at the next
admission boundary, and a group retires when its last attached session
detaches.  Neither may move a result: compaction renumbers live walkers
(their random streams are keyed by query id) and retirement folds the
group's fault tallies into scheduler-level totals, so every collected
result, ``tenant_stats()`` and the recovery ledger stay as they were.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.graph.delta import DeltaCSRGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.runtime.faults import DeviceFailure, FaultPlan, TransientFault
from repro.service import DeviceFleet, WalkService
from repro.service.session import SubmitOptions
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
GRAPH = barabasi_albert_graph(40, 3, seed=5, name="state-test")
GRAPH = GRAPH.with_weights(uniform_weights(GRAPH, seed=5))
CONFIG = FlexiWalkerConfig(device=DEVICE, seed=3)


def request(first_id: int, count: int = 4, length: int = 3) -> list[WalkQuery]:
    return [
        WalkQuery(query_id=first_id + i, start_node=(first_id + i) % GRAPH.num_nodes,
                  max_length=length)
        for i in range(count)
    ]


def solo(queries: list[WalkQuery], config: FlexiWalkerConfig):
    """The same queries run alone, fault-free, on a plain service session."""
    service = WalkService(GRAPH, fleet=DeviceFleet(DEVICE, count=config.num_devices))
    session = service.session(DeepWalkSpec(), config)
    session.submit(queries)
    return session.collect()


def fused_positions(scheduler) -> int:
    return scheduler.describe()["fused_positions"]


class TestBoundedState:
    def test_long_lived_session_keeps_only_live_walkers(self):
        """2,000 four-walker requests through one session: after every tick
        the fused frontier holds the walkers in flight before the tick's
        admission plus that admission, never the ones served before."""
        scheduler = WalkService(GRAPH, fleet=DeviceFleet(DEVICE)).scheduler()
        session = scheduler.session(DeepWalkSpec(), CONFIG)
        peak = 0
        for r in range(2000):
            # Requests overlap: one tick per request, walks of 2-4 steps.
            session.submit(request(4 * r, length=2 + r % 3))
            before = scheduler.inflight
            scheduler.tick()
            assert fused_positions(scheduler) <= before + 4
            peak = max(peak, fused_positions(scheduler))
        assert peak <= 4 * 4
        # A drained group holds nothing but the next admission.
        scheduler.run_until_idle(max_ticks=100)
        session.submit(request(8000))
        scheduler.run_until_idle(max_ticks=100)
        assert scheduler.inflight == 0
        assert fused_positions(scheduler) == 4
        assert scheduler.describe()["fusion_groups"] == 1

        result = session.collect()
        assert len(result.paths) == 8004
        queries = [q for r in range(2000) for q in request(4 * r, length=2 + r % 3)]
        reference = solo(queries + request(8000), CONFIG)
        assert result.paths == reference.paths
        assert np.array_equal(result.per_query_ns, reference.per_query_ns)
        assert result.counters.as_dict() == reference.counters.as_dict()

    def test_session_churn_does_not_grow_a_group(self):
        """Short-lived sessions attaching to a group a long-lived session
        keeps alive leave nothing behind once they detach."""
        scheduler = WalkService(GRAPH, fleet=DeviceFleet(DEVICE)).scheduler()
        keeper = scheduler.session(DeepWalkSpec(), CONFIG, tenant="keeper")
        (group,) = scheduler._groups.values()
        for r in range(300):
            keeper.submit(request(4 * r, count=1, length=3))
            visitor = scheduler.session(DeepWalkSpec(), CONFIG, tenant="visitor")
            visitor.submit(request(4 * r, count=2, length=2))
            for _ in range(2):
                scheduler.tick()
            scheduler.detach(visitor)
            assert visitor.collect().paths == solo(request(4 * r, count=2, length=2),
                                                   CONFIG).paths
            assert len(group.sessions) <= 3
        assert scheduler.describe()["fusion_groups"] == 1
        assert keeper.collect().paths == solo(
            [q for r in range(300) for q in request(4 * r, count=1, length=3)], CONFIG
        ).paths

    def test_one_group_per_live_key(self):
        """Sessions on superseded graph versions retire with their groups."""
        service = WalkService(DeltaCSRGraph(GRAPH), fleet=DeviceFleet(DEVICE))
        scheduler = service.scheduler()
        rng = np.random.default_rng(0)
        live = [scheduler.session(DeepWalkSpec(), CONFIG, tenant=t) for t in ("a", "b")]
        next_id = 0
        for version in range(1, 6):
            for session in live:
                session.submit(request(next_id))
                next_id += 4
            scheduler.tick()
            edges = np.stack([rng.integers(0, GRAPH.num_nodes, 3),
                              rng.integers(0, GRAPH.num_nodes, 3)], axis=1)
            edges = edges[edges[:, 0] != edges[:, 1]]
            present = service.graph.has_edges(edges[:, 0], edges[:, 1])
            service.apply_delta(edges[~present], np.zeros((0, 2), dtype=np.int64),
                                weights=np.ones(int((~present).sum())))
            old, live = live, [scheduler.session(DeepWalkSpec(), CONFIG, tenant=t)
                               for t in ("a", "b")]
            # Old and new versions are distinct keys: two live groups.
            assert scheduler.describe()["fusion_groups"] == 2
            for session in old:
                scheduler.detach(session)
            assert scheduler.describe()["fusion_groups"] == 1
            assert service.graph_version == version
        for session in live:
            scheduler.detach(session)
        assert scheduler.describe()["fusion_groups"] == 0
        assert scheduler.describe()["fused_positions"] == 0


class TestRetirement:
    def _faulty(self, seed: int) -> FlexiWalkerConfig:
        plan = FaultPlan(
            seed=seed,
            device_failures=(DeviceFailure(superstep=2 + seed % 3),),
            transient_faults=(TransientFault(superstep=1),),
        )
        return dataclasses.replace(CONFIG, seed=seed, fault_plan=plan,
                                   checkpoint_interval=2)

    def test_fault_totals_and_tenant_stats_survive_retirement(self):
        scheduler = WalkService(GRAPH, fleet=DeviceFleet(DEVICE)).scheduler()
        # Three groups (distinct seeds), retired out of creation order.
        sessions = [
            scheduler.session(DeepWalkSpec(), self._faulty(seed), tenant=f"t{seed % 2}")
            for seed in (3, 4, 5)
        ]
        for i, session in enumerate(sessions):
            session.submit(request(100 * i, count=5, length=8),
                           options=SubmitOptions(priority=i % 2))
        scheduler.run_until_idle(max_ticks=500)
        recovery = scheduler.recovery_time_ns
        checkpoints = scheduler.checkpoints_taken
        degraded = scheduler.degraded_devices
        stats = scheduler.tenant_stats()
        assert recovery > 0 and checkpoints > 0 and degraded == (0,)

        for session in (sessions[1], sessions[2], sessions[0]):
            scheduler.detach(session)
            assert scheduler.recovery_time_ns == recovery
            assert scheduler.checkpoints_taken == checkpoints
            assert scheduler.degraded_devices == degraded
        assert scheduler.describe()["fusion_groups"] == 0
        after = scheduler.tenant_stats()
        assert set(after) == set(stats)
        for name, before in stats.items():
            assert after[name] == dataclasses.replace(before, sessions=0)

    def test_retired_group_is_rebuilt_for_a_new_session(self):
        scheduler = WalkService(GRAPH, fleet=DeviceFleet(DEVICE)).scheduler()
        first = scheduler.session(DeepWalkSpec(), CONFIG)
        first.submit(request(0))
        scheduler.detach(first)
        assert scheduler.describe()["fusion_groups"] == 0
        second = scheduler.session(DeepWalkSpec(), CONFIG)
        second.submit(request(0))
        assert second.collect().paths == first.collect().paths


class TestCompactionUnderFaults:
    """Chaos cases where compaction runs between admissions: walkers of
    mixed lengths finish while later requests keep arriving, under a
    generated fault plan, and each session still matches its solo run."""

    @pytest.mark.parametrize("devices", [1, 2])
    @settings(max_examples=10, deadline=None)
    @given(
        failures=st.lists(st.integers(min_value=0, max_value=12), max_size=2),
        transients=st.lists(st.integers(min_value=0, max_value=12), max_size=2),
        interval=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_fused_faulty_run_matches_solo(self, devices, failures, transients,
                                           interval, seed):
        plan = FaultPlan(
            seed=seed,
            device_failures=tuple(DeviceFailure(superstep=s) for s in failures),
            transient_faults=tuple(TransientFault(superstep=s) for s in transients),
        )
        config = dataclasses.replace(CONFIG, num_devices=devices, fault_plan=plan,
                                     checkpoint_interval=interval)
        scheduler = WalkService(GRAPH, fleet=DeviceFleet(DEVICE, count=devices)).scheduler()
        a = scheduler.session(DeepWalkSpec(), config, tenant="a")
        b = scheduler.session(DeepWalkSpec(), config, tenant="b")  # fuses with a
        submitted = {id(a): [], id(b): []}
        # One request per tick, walks of 2-6 steps: from the third request
        # on, every admission finds finished walkers next to live ones.
        for r in range(10):
            session = a if r % 3 else b
            queries = request(10 * r, count=3, length=2 + (r * 3) % 5)
            session.submit(queries)
            submitted[id(session)].extend(queries)
            scheduler.tick()
        scheduler.run_until_idle(max_ticks=500)
        for session in (a, b):
            fused = session.collect()
            alone = solo(submitted[id(session)],
                         dataclasses.replace(CONFIG, num_devices=devices))
            assert fused.paths == alone.paths
            assert np.array_equal(fused.per_query_ns, alone.per_query_ns)
            assert fused.counters.as_dict() == alone.counters.as_dict()
            assert fused.total_steps == alone.total_steps
            assert fused.sampler_usage == alone.sampler_usage
            for got, want in zip(fused.device_kernels, alone.device_kernels, strict=True):
                assert got.counters.as_dict() == want.counters.as_dict()
