"""Continuous-batching scheduler: fused execution must be bit-identical.

The acceptance contract of the multi-tenant scheduler: for N sessions
interleaved through one :class:`ServiceScheduler` — including two sessions
over the *same* workload fusing into one frontier, mid-flight submissions,
SLO priorities and a tight in-flight budget — every session's ``collect()``
must reproduce, bit for bit, the result of running that session alone on a
plain service: paths, sampler usage, counter totals, per-query simulated
times and kernel makespans.  Checked for batched single-device plans and
fused multi-device (replicated) plans.

The ``random`` selection policy keeps its documented exemption (its
selector's shared sequential generator makes coin flips execution-order
dependent, exactly as in the scalar/batched parity suite) and is therefore
not part of this matrix.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import FlexiWalkerConfig
from repro.errors import QueueFull, ServiceError
from repro.gpusim.device import A6000
from repro.service import DeviceFleet, SubmitOptions, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)

MODES = {
    "batched": {"fleet": 1, "config": {}},
    "multi_device": {
        "fleet": 4,
        "config": {"num_devices": 4, "partition_policy": "balanced"},
    },
}


def make_queries_block(base: int, count: int, num_nodes: int, length: int = 12):
    rng = np.random.default_rng(base)
    return [
        WalkQuery(
            query_id=base + i,
            start_node=int(rng.integers(0, num_nodes)),
            max_length=length,
        )
        for i in range(count)
    ]


def make_config(**overrides) -> FlexiWalkerConfig:
    return FlexiWalkerConfig(device=DEVICE, seed=3, **overrides)


def assert_bit_identical(result, reference) -> None:
    assert result.paths == reference.paths
    assert result.sampler_usage == reference.sampler_usage
    assert result.total_steps == reference.total_steps
    assert result.counters.__dict__ == reference.counters.__dict__
    assert np.array_equal(result.per_query_ns, reference.per_query_ns)
    assert result.kernel.time_ms == reference.kernel.time_ms
    assert len(result.device_kernels) == len(reference.device_kernels)
    for fused_kernel, solo_kernel in zip(result.device_kernels, reference.device_kernels, strict=False):
        assert fused_kernel.time_ms == solo_kernel.time_ms


def solo_result(graph, spec, config, batches):
    service = WalkService(graph, fleet=DeviceFleet(DEVICE, count=config.num_devices))
    session = service.session(spec, config)
    for batch in batches:
        session.submit(batch)
    return session.collect()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_interleaved_sessions_bit_identical(service_graph, mode):
    """Three sessions (two fused), mid-flight submissions, an SLO lane and a
    finite budget — each collect() matches the session running alone."""
    setup = MODES[mode]
    config = make_config(**setup["config"])
    graph = service_graph
    n = graph.num_nodes

    batches = {
        "s1": [make_queries_block(1000, 10, n), make_queries_block(1100, 5, n)],
        "s2": [make_queries_block(2000, 6, n)],
        "s3": [make_queries_block(3000, 8, n)],
    }

    service = WalkService(graph, fleet=DeviceFleet(DEVICE, count=config.num_devices))
    scheduler = service.scheduler(max_inflight_walkers=64)
    scheduler.register_tenant("alpha", weight=2.0)
    scheduler.register_tenant("beta", weight=1.0)
    s1 = scheduler.session(DeepWalkSpec(), config, tenant="alpha")
    s2 = scheduler.session(DeepWalkSpec(), config, tenant="beta")  # fuses with s1
    s3 = scheduler.session(Node2VecSpec(), config, tenant="beta")  # its own group

    s1.submit(batches["s1"][0])
    s2.submit(batches["s2"][0], options=SubmitOptions(priority=1))
    for _ in range(3):
        scheduler.tick()
    s1.submit(batches["s1"][1])  # admitted mid-flight, no wave drain
    s3.submit(batches["s3"][0])
    chunks = list(s2.stream())  # interleaves draining with the others

    assert_bit_identical(s1.collect(), solo_result(graph, DeepWalkSpec(), config, batches["s1"]))
    assert_bit_identical(s2.collect(), solo_result(graph, DeepWalkSpec(), config, batches["s2"]))
    assert_bit_identical(s3.collect(), solo_result(graph, Node2VecSpec(), config, batches["s3"]))

    # The fused loop still reports per-chunk latency on the shared clock.
    for chunk in chunks:
        for enq, start in zip(chunk.enqueue_steps, chunk.first_scheduled_steps, strict=False):
            assert 0 <= enq <= start <= chunk.superstep

    assert scheduler.pending == 0
    stats = scheduler.tenant_stats()
    assert stats["alpha"].completed == 15
    assert stats["beta"].completed == 14
    assert stats["beta"].slo_admitted == 6
    total_steps = stats["alpha"].steps + stats["beta"].steps
    assert total_steps == sum(
        solo_result(graph, spec, config, b).total_steps
        for spec, b in [
            (DeepWalkSpec(), batches["s1"]),
            (DeepWalkSpec(), batches["s2"]),
            (Node2VecSpec(), batches["s3"]),
        ]
    )


def test_repeated_collect_covers_later_submissions(service_graph):
    config = make_config()
    graph = service_graph
    service = WalkService(graph, fleet=DeviceFleet(DEVICE))
    scheduler = service.scheduler()
    session = scheduler.session(DeepWalkSpec(), config)
    first = make_queries_block(1, 7, graph.num_nodes)
    second = make_queries_block(100, 4, graph.num_nodes)
    session.submit(first)
    session.collect()
    session.submit(second)
    result = session.collect()
    assert_bit_identical(result, solo_result(graph, DeepWalkSpec(), config, [first, second]))


def test_detach_returns_session_to_standalone(service_graph):
    config = make_config()
    graph = service_graph
    service = WalkService(graph, fleet=DeviceFleet(DEVICE))
    scheduler = service.scheduler()
    session = scheduler.session(DeepWalkSpec(), config)
    first = make_queries_block(1, 6, graph.num_nodes)
    second = make_queries_block(50, 5, graph.num_nodes)
    session.submit(first)
    scheduler.tick()  # leave work in flight; detach must drain it
    scheduler.detach(session)
    assert session.pending == 0
    session.submit(second)  # standalone wave execution from here on
    assert_bit_identical(
        session.collect(), solo_result(graph, DeepWalkSpec(), config, [first, second])
    )


def test_backpressure_budget_and_quota(service_graph):
    graph = service_graph
    config = make_config()
    # In-flight budget: a submission arriving while every execution slot is
    # occupied is refused (or blocks until completions free capacity).
    service = WalkService(graph, fleet=DeviceFleet(DEVICE))
    scheduler = service.scheduler(max_inflight_walkers=4)
    session = scheduler.session(DeepWalkSpec(), config)
    first = make_queries_block(1, 6, graph.num_nodes)
    session.submit(first)  # 4 admitted next tick, 2 queued behind them
    scheduler.tick()
    assert scheduler.inflight == 4 and scheduler.queued == 2
    with pytest.raises(QueueFull):
        session.submit(make_queries_block(100, 2, graph.num_nodes))
    # A QueueFull submission must leave the session untouched: the same ids
    # are still submittable, and blocking admission waits for capacity.
    second = make_queries_block(100, 2, graph.num_nodes)
    session.submit(second, options=SubmitOptions(block_on_full=True))
    assert_bit_identical(
        session.collect(), solo_result(graph, DeepWalkSpec(), config, [first, second])
    )

    # Per-tenant quota: bounds outstanding (queued + in-flight) walkers.
    service = WalkService(graph, fleet=DeviceFleet(DEVICE))
    scheduler = service.scheduler(tenant_quotas=(("a", 8),))
    session = scheduler.session(DeepWalkSpec(), config, tenant="a")
    with pytest.raises(QueueFull):  # can never fit the quota
        session.submit(make_queries_block(800, 9, graph.num_nodes))
    first = make_queries_block(1, 6, graph.num_nodes)
    session.submit(first)
    with pytest.raises(QueueFull):  # 6 outstanding + 3 > 8
        session.submit(make_queries_block(100, 3, graph.num_nodes))
    third = make_queries_block(100, 2, graph.num_nodes)
    session.submit(third)  # 6 + 2 fits exactly
    assert_bit_identical(
        session.collect(), solo_result(graph, DeepWalkSpec(), config, [first, third])
    )


def test_attach_rejects_unfusable_plans(service_graph):
    graph = service_graph
    service = WalkService(graph, fleet=DeviceFleet(DEVICE, count=4))
    scheduler = service.scheduler()
    with pytest.raises(ServiceError, match="[Ss]harded"):
        scheduler.session(
            DeepWalkSpec(),
            make_config(num_devices=4, graph_placement="sharded"),
        )
    # A session with prior standalone work cannot join mid-life.
    session = service.session(DeepWalkSpec(), make_config())
    session.submit(make_queries_block(1, 3, graph.num_nodes))
    with pytest.raises(ServiceError, match="before submitting"):
        scheduler.attach(session)
    # And a session can only ride one scheduler at a time.
    fresh = service.session(DeepWalkSpec(), make_config())
    scheduler.attach(fresh)
    with pytest.raises(ServiceError, match="already attached"):
        scheduler.attach(fresh)
    with pytest.raises(ServiceError, match="different scheduler"):
        service.scheduler().attach(fresh)


def test_capabilities_record_admission_policy(service_graph):
    service = WalkService(
        service_graph,
        max_inflight_walkers=32,
        fairness="fifo",
        tenant_quotas=(("a", 8),),
    )
    capabilities = service.capabilities()
    assert capabilities.max_inflight_walkers == 32
    assert capabilities.fairness == "fifo"
    assert capabilities.tenant_quotas == (("a", 8),)
    plan = service.plan_for(DeepWalkSpec(), make_config())
    assert any("admission policy: fifo" in reason for reason in plan.reasons)
    # The scheduler factory seeds its knobs from the capabilities.
    scheduler = service.scheduler()
    assert scheduler.max_inflight_walkers == 32
    assert scheduler.fairness == "fifo"
    assert scheduler.describe()["tenants"] == ["a"]
