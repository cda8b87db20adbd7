"""Out-of-order admission within one scheduler-attached session.

Under a finite in-flight budget, a later submission can be admitted ahead of
the same session's earlier queued walkers: an SLO-lane submission
(``priority=1``) always is, and a submission accounted to another tenant
(``SubmitOptions(tenant=...)``) can win the fair-share pick.  Each walk's
result must still land in its submission-order place: ``collect()`` stays
bit-identical to one ``WalkEngine.run`` over the surviving queries in
submission order.  A walker cancelled while still queued never ran, so it
leaves no trace — not even in the replicated placement's partition.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.service import DeviceFleet, SubmitOptions, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)


def block(base: int, count: int, num_nodes: int, length: int = 12) -> list[WalkQuery]:
    rng = np.random.default_rng(base)
    return [
        WalkQuery(base + i, int(rng.integers(0, num_nodes)), length) for i in range(count)
    ]


def open_service(graph, devices: int):
    config = FlexiWalkerConfig(
        device=DEVICE, seed=3, num_devices=devices, partition_policy="balanced"
    )
    return WalkService(graph, fleet=DeviceFleet(DEVICE, count=devices)), config


@pytest.mark.parametrize("devices", [1, 2])
def test_out_of_order_admission_matches_a_solo_run(service_graph, devices):
    n = service_graph.num_nodes
    service, config = open_service(service_graph, devices)
    scheduler = service.scheduler(max_inflight_walkers=4)
    # The override tenant sorts first, so it wins the first fair-share pick
    # against the session's own tenant (equal virtual times).
    session = scheduler.session(DeepWalkSpec(), config, tenant="bulk")

    early = block(0, 6, n)
    doomed = block(100, 1, n)
    urgent = block(200, 3, n)
    other = block(300, 3, n)
    late = block(400, 2, n)
    t_early = session.submit(early)
    t_doomed = session.submit(doomed)
    t_urgent = session.submit(urgent, options=SubmitOptions(priority=1))
    t_other = session.submit(other, options=SubmitOptions(tenant="app"))
    assert t_doomed.cancel() == 1  # still queued: it never runs

    scheduler.tick()
    # The SLO submission and the override tenant's walkers went first; the
    # session's earliest walkers are still waiting for budget.
    assert t_urgent.status == "running"
    assert t_other.status == "running"
    assert t_early.status == "queued"
    t_late = session.submit(late, options=SubmitOptions(priority=1, block_on_full=True))
    result = session.collect()

    assert t_doomed.status == "cancelled"
    for ticket in (t_early, t_urgent, t_other, t_late):
        assert ticket.status == "done"

    survivors = early + urgent + other + late
    solo_service, _ = open_service(service_graph, devices)
    reference = solo_service.session(DeepWalkSpec(), config).engine.run(survivors)
    assert result.paths == reference.paths
    assert np.array_equal(result.per_query_ns, reference.per_query_ns)
    assert result.counters.__dict__ == reference.counters.__dict__
    assert result.sampler_usage == reference.sampler_usage
    assert result.total_steps == reference.total_steps
    assert result.kernel.time_ns == reference.kernel.time_ns
    assert len(result.device_kernels) == len(reference.device_kernels)
    for fused, solo in zip(result.device_kernels, reference.device_kernels, strict=True):
        assert fused.time_ns == solo.time_ns
        assert fused.num_queries == solo.num_queries
        assert fused.counters.__dict__ == solo.counters.__dict__
        assert np.array_equal(fused.lane_times_ns, solo.lane_times_ns)
    by_ticket = [t_early, t_urgent, t_other, t_late]
    assert [p for t in by_ticket for p in t.paths()] == reference.paths


@pytest.mark.parametrize("devices", [1, 2])
def test_detached_session_continues_after_a_queued_cancellation(service_graph, devices):
    n = service_graph.num_nodes
    service, config = open_service(service_graph, devices)
    scheduler = service.scheduler(max_inflight_walkers=4)
    session = scheduler.session(DeepWalkSpec(), config)
    first = block(0, 5, n)
    session.submit(first)
    assert session.submit(block(100, 2, n)).cancel() == 2
    session.collect()
    scheduler.detach(session)
    # Back to standalone execution: the next wave runs on the session's own
    # driver and must line up with the walks the scheduler settled.
    second = block(200, 4, n)
    session.submit(second)
    result = session.collect()

    solo_service, _ = open_service(service_graph, devices)
    reference = solo_service.session(DeepWalkSpec(), config).engine.run(first + second)
    assert result.paths == reference.paths
    assert np.array_equal(result.per_query_ns, reference.per_query_ns)
    assert result.counters.__dict__ == reference.counters.__dict__
    assert result.kernel.time_ns == reference.kernel.time_ns
    for fused, solo in zip(result.device_kernels, reference.device_kernels, strict=True):
        assert fused.time_ns == solo.time_ns
        assert fused.counters.__dict__ == solo.counters.__dict__
