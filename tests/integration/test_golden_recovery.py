"""Golden figures of small fixed-seed runs recovered from injected faults.

The recovery suites compare a faulty run with a fault-free one, or two runs
that share the driver code, or only assert that some recovery time was
charged.  A change to the recovery protocol itself — which superstep a
checkpoint follows, what a replay charges, when a failure restores — moves
both sides of such a comparison together and passes silently.  These tests
pin the exact recovery ledger (``recovery_time_ns``, ``checkpoints_taken``,
``degraded_devices``), the simulated kernel time (and the per-device ones of
multi-device runs), a SHA-256 of the paths and
per-query times, and the streamed ``(superstep, query_ids)`` sequence of a
few small runs instead.  A change that is *meant* to move simulated results
must declare it and re-pin the figures below.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.runtime.faults import DeviceFailure, FaultPlan, InterconnectDrop, TransientFault
from repro.service import DeviceFleet, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
GRAPH = barabasi_albert_graph(40, 3, seed=5, name="golden-recovery")
GRAPH = GRAPH.with_weights(uniform_weights(GRAPH, seed=5))

FAILURE = DeviceFailure(superstep=3)
TRANSIENT = TransientFault(superstep=1)


def _queries(n, start=0):
    """Walks of 3 to 11 steps, so completions spread over many supersteps."""
    return [
        WalkQuery(start + i, (start + i) % GRAPH.num_nodes, 3 + (start + i) * 5 % 9)
        for i in range(n)
    ]


def _config(**overrides):
    return FlexiWalkerConfig(device=DEVICE, seed=3, checkpoint_interval=2, **overrides)


def _digest(result) -> str:
    h = hashlib.sha256()
    lengths = np.array([len(p) for p in result.paths], dtype=np.int64)
    h.update(lengths.tobytes())
    h.update(np.array([v for p in result.paths for v in p], dtype=np.int64).tobytes())
    h.update(np.asarray(result.per_query_ns, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _figures(result, chunks, recovery_ns, checkpoints, degraded):
    return {
        "recovery_time_ns": recovery_ns,
        "checkpoints_taken": checkpoints,
        "degraded_devices": tuple(degraded),
        "kernel_time_ns": result.kernel.time_ns,
        "device_kernel_ns": tuple(k.time_ns for k in result.device_kernels),
        "digest": _digest(result),
        "chunks": tuple((c.superstep, c.query_ids) for c in chunks),
    }


def _standalone(plan, devices=1, **overrides):
    """Two waves through one standalone session, each streamed to the end."""
    service = WalkService(GRAPH, fleet=DeviceFleet(DEVICE, devices))
    config = _config(num_devices=devices, fault_plan=plan, **overrides)
    session = service.session(DeepWalkSpec(), config)
    chunks = []
    session.submit(_queries(12))
    chunks.extend(session.stream())
    session.submit(_queries(10, start=20))
    chunks.extend(session.stream())
    result = session.collect()
    return _figures(
        result, chunks, result.recovery_time_ns, result.checkpoints_taken,
        result.degraded_devices,
    )


def _scheduled():
    """A scheduler-attached session: mid-run admission, one in-flight cancel.

    The failure falls after both: its restore point must be the boundary
    snapshot taken after the cancellation, not an older checkpoint.
    """
    plan = FaultPlan(
        seed=7,
        device_failures=(DeviceFailure(superstep=5),),
        transient_faults=(TRANSIENT, TransientFault(superstep=4)),
    )
    service = WalkService(GRAPH, fleet=DeviceFleet(DEVICE))
    scheduler = service.scheduler()
    session = scheduler.session(DeepWalkSpec(), _config(fault_plan=plan))
    session.submit(_queries(5))
    doomed = session.submit(_queries(1, start=30))
    for _ in range(4):
        scheduler.tick()
    session.submit(_queries(5, start=40))  # mid-run admission
    scheduler.tick()
    assert doomed.cancel() == 1  # still in flight
    scheduler.run_until_idle(max_ticks=500)
    chunks = list(session.stream())
    result = session.collect()
    return _figures(
        result, chunks, scheduler.recovery_time_ns, scheduler.checkpoints_taken,
        scheduler.degraded_devices,
    )


PLAN = FaultPlan(seed=7, device_failures=(FAILURE,), transient_faults=(TRANSIENT,))
SHARDED_PLAN = FaultPlan(
    seed=7,
    device_failures=(DeviceFailure(superstep=3, device=1),),
    transient_faults=(TRANSIENT,),
    interconnect_drops=(InterconnectDrop(step=1), InterconnectDrop(step=4)),
)

RUNS = {
    "standalone": lambda: _standalone(PLAN),
    "replicated": lambda: _standalone(PLAN, devices=2, graph_placement="replicated"),
    "sharded": lambda: _standalone(SHARDED_PLAN, devices=2, graph_placement="sharded"),
    "scheduler": _scheduled,
}

GOLDEN: dict[str, dict] = {
    "replicated": {
        "recovery_time_ns": 52436.58,
        "checkpoints_taken": 10,
        "degraded_devices": (0,),
        "kernel_time_ns": 52806.98,
        "device_kernel_ns": (0.0, 370.4),
        "digest": "07a29815d980e078",
        "chunks": (
            (2, (0, 9)), (3, (2, 11)), (4, (4,)), (5, (6,)), (6, (8,)), (7, (1, 10)),
            (8, (3,)), (9, (5,)), (10, (7,)), (13, (27,)), (14, (20, 29)), (15, (22,)),
            (16, (24,)), (17, (26,)), (18, (28,)), (19, (21,)), (20, (23,)), (21, (25,)),
        ),
    },
    "scheduler": {
        "recovery_time_ns": 29288.219999999998,
        "checkpoints_taken": 7,
        "degraded_devices": (0,),
        "kernel_time_ns": 254.26,
        "device_kernel_ns": (),
        "digest": "452b84c1e787ec44",
        "chunks": (
            (2, (0,)), (3, (2,)), (4, (4,)), (7, (1,)), (8, (3, 40)), (9, (42,)), (10, (44,)),
            (13, (41,)), (14, (43,)),
        ),
    },
    "sharded": {
        "recovery_time_ns": 55038.08,
        "checkpoints_taken": 10,
        "degraded_devices": (1,),
        "kernel_time_ns": 60242.08,
        "device_kernel_ns": (5204.0, 3902.0),
        "digest": "07a29815d980e078",
        "chunks": (
            (2, (0, 9)), (3, (2, 11)), (4, (4,)), (5, (6,)), (6, (8,)), (7, (1, 10)),
            (8, (3,)), (9, (5,)), (10, (7,)), (13, (27,)), (14, (20, 29)), (15, (22,)),
            (16, (24,)), (17, (26,)), (18, (28,)), (19, (21,)), (20, (23,)), (21, (25,)),
        ),
    },
    "standalone": {
        "recovery_time_ns": 52436.58,
        "checkpoints_taken": 10,
        "degraded_devices": (0,),
        "kernel_time_ns": 52806.98,
        "device_kernel_ns": (),
        "digest": "07a29815d980e078",
        "chunks": (
            (2, (0, 9)), (3, (2, 11)), (4, (4,)), (5, (6,)), (6, (8,)), (7, (1, 10)),
            (8, (3,)), (9, (5,)), (10, (7,)), (13, (27,)), (14, (20, 29)), (15, (22,)),
            (16, (24,)), (17, (26,)), (18, (28,)), (19, (21,)), (20, (23,)), (21, (25,)),
        ),
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_recovery(name):
    assert RUNS[name]() == GOLDEN[name]
