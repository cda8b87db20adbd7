"""Golden digests of the chunks small fixed-seed streams emit.

The parity suites check what ``collect()`` assembles; no other test pins a
streamed chunk's own figures — the superstep's ``steps`` and ``counters``
split out per session, the ``pending`` count, and the queue-delay
ordinals.  These tests hash every field of every chunk (except the
session-local ``sequence``) for two runs:

* three scheduler-attached sessions, two of which fuse, with a mid-run
  admission, an SLO submission and an in-flight cancellation;
* a standalone session streamed over two waves.

A change that is *meant* to move streamed results must declare it and
re-pin the digests below.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.service import DeviceFleet, SubmitOptions, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
GRAPH = barabasi_albert_graph(50, 3, seed=9, name="golden-chunks")
GRAPH = GRAPH.with_weights(uniform_weights(GRAPH, seed=9))
CONFIG = FlexiWalkerConfig(device=DEVICE, seed=3)


def _queries(n, start=0):
    """Walks of 2 to 9 steps, so completions spread over many supersteps."""
    return [
        WalkQuery(start + i, (start + i) * 7 % GRAPH.num_nodes, 2 + (start + i) * 3 % 8)
        for i in range(n)
    ]


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        fields = (
            c.superstep,
            c.query_ids,
            tuple(map(tuple, c.paths)),
            c.steps,
            sorted(c.counters.as_dict().items()),
            c.pending,
            c.enqueue_steps,
            c.first_scheduled_steps,
        )
        h.update(repr(fields).encode())
    return h.hexdigest()[:16]


def _scheduled():
    """Chunks of three scheduler-attached sessions; ``a`` and ``b`` fuse.

    The in-flight budget is tight, so walkers wait in the admission queues
    and the queue-delay ordinals differ from the submission ones.
    """
    service = WalkService(GRAPH, fleet=DeviceFleet(DEVICE))
    scheduler = service.scheduler(max_inflight_walkers=10)
    a = scheduler.session(DeepWalkSpec(), CONFIG, tenant="a")
    b = scheduler.session(DeepWalkSpec(), CONFIG, tenant="b")
    c = scheduler.session(Node2VecSpec(a=2.0, b=0.5), CONFIG, tenant="a")
    a.submit(_queries(6))
    b.submit(_queries(5, start=100))
    c.submit(_queries(4, start=200))
    doomed = b.submit([WalkQuery(150, 3, 12)])
    for _ in range(2):
        scheduler.tick()
    a.submit(_queries(4, start=10))  # mid-run admission
    b.submit(_queries(3, start=120), options=SubmitOptions(priority=1))  # SLO lane
    scheduler.tick()
    assert doomed.cancel() == 1  # still in flight
    return {name: list(s.stream()) for name, s in (("a", a), ("b", b), ("c", c))}


def _standalone():
    """Chunks of one standalone session over two waves, each streamed out."""
    session = WalkService(GRAPH, fleet=DeviceFleet(DEVICE)).session(DeepWalkSpec(), CONFIG)
    session.submit(_queries(8))
    chunks = list(session.stream())
    session.submit(_queries(6, start=40))
    return chunks + list(session.stream())


def test_fused_and_solo_scheduler_chunks():
    chunks = _scheduled()
    assert {name: len(c) for name, c in chunks.items()} == {"a": 9, "b": 6, "c": 4}
    assert {name: _digest(c) for name, c in chunks.items()} == {
        "a": "ab53036a0d49cafa",
        "b": "ee37911d3dbe1dba",
        "c": "a618593a2aca71ed",
    }


def test_standalone_two_wave_chunks():
    chunks = _standalone()
    assert len(chunks) == 14
    assert _digest(chunks) == "87a7d50ece6e863c"
