"""The serving API end to end: one service, many sessions, streamed results.

The session-based API is what turns this reproduction from a benchmark
harness into a servable system: a :class:`~repro.service.WalkService` keeps
the expensive shared state hot — the CSR graph, compiled workloads, device
profiles, per-node hint tables and transition caches — while every tenant
talks to its own lightweight :class:`~repro.service.WalkSession`.

This example demonstrates the three capabilities a one-shot run does not
have:

1. **Incremental submission** — queries are enqueued in batches while the
   session runs, each batch tracked by a :class:`~repro.service.QueryTicket`;
2. **Streaming** — ``stream()`` yields walks per superstep as they finish,
   instead of one terminal blob;
3. **Multi-tenancy** — a DeepWalk and a Node2Vec session share one service
   (and the DeepWalk session's transition cache is built exactly once,
   however many sessions run that workload).

``collect()`` at the end still returns the exact aggregate result — bit
identical to what the legacy one-shot run would have produced for the same
queries (the parity suite enforces this).
"""

from __future__ import annotations

from repro import (
    DeepWalkSpec,
    DeviceFleet,
    FlexiWalkerConfig,
    Node2VecSpec,
    WalkService,
    load_dataset,
    make_queries,
)
from repro.gpusim import A6000


def main() -> None:
    # 1. One service per graph.  The fleet declares the simulated hardware;
    #    sessions negotiate their execution plan against it.
    graph = load_dataset("YT", weights="uniform")
    device = A6000.scaled(96 / A6000.parallel_lanes, name="A6000 (scaled)")
    service = WalkService(graph, fleet=DeviceFleet(device, count=4))
    print(f"service: {service.describe()}")

    # 2. Open a session.  session() compiles the workload (cached on the
    #    service), profiles the device and negotiates an ExecutionPlan; the
    #    plan records *why* each backend choice was made.
    config = FlexiWalkerConfig(device=device)
    session = service.session(Node2VecSpec(a=2.0, b=0.5), config)
    print("negotiated plan:", session.plan.describe())

    # 3. Submit incrementally.  Queries execute in submission order; each
    #    submit returns a ticket you can poll.
    queries = make_queries(graph.num_nodes, walk_length=20)
    first = session.submit(queries[: len(queries) // 2])
    print(f"ticket {first.ticket_id}: {len(first.query_ids)} walks {first.status}")

    # 4. Stream.  Chunks arrive per superstep with the walks that finished
    #    in it; more work can be submitted mid-stream.
    chunks = 0
    walks_seen = 0
    second = None
    for chunk in session.stream():
        chunks += 1
        walks_seen += len(chunk)
        if second is None:
            # New queries enqueued *while the session is streaming*.
            second = session.submit(queries[len(queries) // 2 :])
        if chunk.sequence < 3:
            print(
                f"  chunk {chunk.sequence}: superstep {chunk.superstep}, "
                f"{len(chunk)} walks done, {chunk.pending} pending "
                f"(first walk: {list(chunk.paths[0])[:6]}...)"
            )
    print(f"streamed {walks_seen} walks in {chunks} chunks; "
          f"tickets: first={first.status}, second={second.status}")

    # 5. Collect the exact aggregate — identical to a one-shot run.
    result = session.collect()
    print(f"simulated kernel time: {result.time_ms:.4f} ms "
          f"(+{result.overhead_ms:.4f} ms profiling/preprocessing)")
    print(f"kernel selection ratio: {result.selection_ratio()}")

    # 6. Multi-tenancy: a second workload on the same service reuses the
    #    graph and the service registries; every DeepWalk session shares the
    #    service-owned cache holder (hint tables + transition cache), so the
    #    expensive per-workload structures are built exactly once.
    deep = service.session(DeepWalkSpec(), config)
    deep.submit(queries)
    deep_result = deep.collect()
    print(f"deepwalk tenant: {deep_result.time_ms:.4f} ms simulated, "
          f"transition cache shared: "
          f"{deep.engine.caches is service.engine_caches(DeepWalkSpec())}")
    print(f"service after serving: {service.describe()}")


if __name__ == "__main__":
    main()
