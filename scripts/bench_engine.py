#!/usr/bin/env python
"""Microbenchmark: scalar vs batched walk-engine wall clock, per workload.

Runs the scale-model YT dataset through the batched serving path and the
scalar reference oracle (``WalkEngine(execution="scalar")``) for three
workloads — DeepWalk (static, transition-cache eligible),
weighted Node2Vec (the quickstart workload) and MetaPath — and reports host
wall-clock time plus simulated-steps-per-second throughput for each.  Emits a
multi-entry ``BENCH_engine.json`` next to the repository root so the numbers
form a trackable per-workload perf trajectory
(``scripts/check_bench_regression.py`` gates every entry in CI).

Usage::

    PYTHONPATH=src python scripts/bench_engine.py [--walk-length 20] \
        [--repeats 3] [--workloads deepwalk node2vec metapath]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import DeviceFleet, FlexiWalkerConfig, WalkService, load_dataset, make_queries  # noqa: E402
from repro.runtime.engine import WalkEngine  # noqa: E402
from repro.graph.labels import random_edge_labels  # noqa: E402
from repro.walks.deepwalk import DeepWalkSpec  # noqa: E402
from repro.walks.metapath import MetaPathSpec  # noqa: E402
from repro.walks.node2vec import Node2VecSpec  # noqa: E402

#: The benchmark schema version (single-entry reports were version 1).
SCHEMA_VERSION = 2

#: Workload tag -> (spec factory, walk length override; None = CLI/default).
WORKLOADS = {
    "deepwalk": (DeepWalkSpec, None),
    "node2vec": (lambda: Node2VecSpec(a=2.0, b=0.5), None),
    "metapath": (MetaPathSpec, 5),
}

#: The entry the README quickstart (and the headline speedup) refers to.
QUICKSTART = "node2vec"

#: Devices of the replicated-vs-sharded multi-device comparison entry.
SHARD_DEVICES = 4

#: Shard decomposition of the sharded entry: the locality partitioner plus a
#: per-shard ghost cache of half the graph footprint — the configuration the
#: sharded mode is expected to serve big graphs with.
SHARD_POLICY = "locality"
GHOST_BUDGET_FRACTION = 2  # per-shard budget = footprint // this

#: Checkpoint intervals of the fault-tolerance entry's overhead sweep.  The
#: headline ``recovery_overhead`` (gated by ``--max-recovery-overhead``) is
#: the one at the runtime's default interval.
RECOVERY_INTERVALS = (2, 4, 8, 16)

#: The dynamic-graph entry: deltas applied between successive walk waves at
#: each update rate of the sweep (0 = the static reference), the number of
#: walk waves per rate, and the (+additions, -removals) shape of one delta.
DELTA_RATES = (0, 2, 8)
DELTA_WAVES = 3
DELTA_CHANGES = (24, 8)

#: The serving entry: session counts of the continuous-batching load sweep
#: (at least three scales so the trajectory shows how fused throughput and
#: tail latency react to load), plus the fixed per-session shape and the
#: in-flight walker budget that makes queueing — and therefore the p99
#: ticket latency — actually observable at the top scale.
SERVING_SESSION_COUNTS = (4, 16, 64)
SERVING_QUERIES_PER_SESSION = 8
SERVING_WALK_LENGTH = 10
SERVING_MAX_INFLIGHT = 256


@contextmanager
def no_gc():
    """Keep the cyclic garbage collector out of the timed windows.

    Same methodology as :mod:`timeit`: collect once up front, then disable
    the collector so its pauses do not land inside whichever measurement
    happens to allocate past a generation threshold.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def bench_mode(graph, spec, mode: str, walk_length: int, repeats: int) -> dict[str, float]:
    """Best-of-N wall clock for one execution mode (service compiled once).

    ``"batched"`` runs a service session (submit everything, collect);
    ``"scalar"`` runs the reference oracle, ``WalkEngine(execution="scalar")``,
    over the same service-compiled workload, selector and seed.
    """
    service = WalkService(graph)
    config = FlexiWalkerConfig()

    if mode == "scalar":
        engine = service.session(spec, config).engine
        oracle = WalkEngine(
            graph=engine.graph,
            spec=engine.spec,
            device=engine.device,
            selector=engine.selector,
            compiled=engine.compiled,
            seed=engine.seed,
            warp_width=engine.warp_width,
            weight_bytes=engine.weight_bytes,
            scheduling=engine.scheduling,
            selection_overhead=engine.selection_overhead,
            warp_switch_overhead=engine.warp_switch_overhead,
            execution="scalar",
            use_transition_cache=engine.use_transition_cache,
            caches=engine.caches,
        )

        def one_run():
            return oracle.run(make_queries(graph.num_nodes, walk_length=walk_length))
    else:
        def one_run():
            session = service.session(spec, config)
            session.submit(make_queries(graph.num_nodes, walk_length=walk_length))
            return session.collect()

    one_run()  # warm-up (profile, hint tables, transition caches)
    best = None
    with no_gc():
        for _ in range(repeats):
            started = time.perf_counter()
            result = one_run()
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best["wall_clock_s"]:
                best = {
                    "wall_clock_s": elapsed,
                    "steps_per_s": result.total_steps / elapsed,
                    "total_steps": result.total_steps,
                    "simulated_time_ms": result.time_ms,
                }
    return best


def bench_workload(graph, name: str, walk_length: int, repeats: int) -> dict[str, object]:
    """Scalar + batched measurements and the derived speedup for one workload."""
    factory, fixed_length = WORKLOADS[name]
    length = fixed_length if fixed_length is not None else walk_length
    spec = factory()
    entry: dict[str, object] = {
        "workload": name,
        "walk_length": length,
        "num_queries": graph.num_nodes,
    }
    for mode in ("scalar", "batched"):
        entry[mode] = bench_mode(graph, spec, mode, length, repeats)
        print(f"  {name:>9} {mode:>7}: {entry[mode]['wall_clock_s']:.3f}s wall, "
              f"{entry[mode]['steps_per_s']:,.0f} steps/s")
    entry["speedup"] = entry["scalar"]["wall_clock_s"] / entry["batched"]["wall_clock_s"]
    # Both modes must simulate the same execution; a drift here means the
    # batched engine broke parity, which invalidates the comparison.
    entry["simulated_time_parity"] = (
        entry["scalar"]["simulated_time_ms"] == entry["batched"]["simulated_time_ms"]
    )
    print(f"  {name:>9} speedup: {entry['speedup']:.1f}x "
          f"(simulated-time parity: {entry['simulated_time_parity']})")
    return entry


def bench_sharded(graph, walk_length: int, repeats: int) -> dict[str, object]:
    """Replicated-vs-sharded multi-device entry.

    Both placements run the same fused superstep loop; the sharded mode adds
    the per-superstep shard accounting (ownership lookups, migration
    charges, per-device task logs), so this entry's ``speedup`` tracks the
    host-side overhead of that accounting — the regression gate keeps the
    sharded driver from becoming pathologically slower than the replicated
    path.  ``simulated_time_parity`` here means *base-time* parity: walks
    and per-query base times must be bit-identical across the placements
    (only the modeled communication term and makespan may differ).
    """
    spec = DeepWalkSpec()
    service = WalkService(graph, fleet=DeviceFleet(count=SHARD_DEVICES))
    ghost_budget = graph.memory_footprint_bytes() // GHOST_BUDGET_FRACTION
    entry: dict[str, object] = {
        "workload": "sharded",
        "walk_length": walk_length,
        "num_queries": graph.num_nodes,
        "num_devices": SHARD_DEVICES,
        "shard_policy": SHARD_POLICY,
        "ghost_cache_bytes": ghost_budget,
    }
    configs = {
        mode: FlexiWalkerConfig(
            num_devices=SHARD_DEVICES,
            graph_placement=mode,
            shard_policy=SHARD_POLICY,
            ghost_cache_bytes=ghost_budget if mode == "sharded" else 0,
        )
        for mode in ("replicated", "sharded")
    }

    def one_run(mode):
        session = service.session(spec, configs[mode])
        session.submit(make_queries(graph.num_nodes, walk_length=walk_length))
        return session.collect()

    collected = {}
    best: dict[str, dict[str, float] | None] = {mode: None for mode in configs}
    for mode in configs:  # warm-up (profile, hint tables, shard decomposition)
        one_run(mode)
    # The two placements run the same ~tens-of-ms loop and differ by a
    # couple of percent, so the repeats are interleaved (drift hits both
    # modes, not whichever is measured second) and the within-repeat order
    # alternates (neither mode always inherits the other's cache state).
    order = list(configs)
    with no_gc():
        for repeat in range(repeats):
            for mode in order if repeat % 2 == 0 else reversed(order):
                started = time.perf_counter()
                result = one_run(mode)
                elapsed = time.perf_counter() - started
                if best[mode] is None or elapsed < best[mode]["wall_clock_s"]:
                    best[mode] = {
                        "wall_clock_s": elapsed,
                        "steps_per_s": result.total_steps / elapsed,
                        "total_steps": result.total_steps,
                        "simulated_time_ms": result.time_ms,
                    }
                collected[mode] = result
    for mode in configs:
        entry[mode] = best[mode]
        print(f"  {'sharded':>9} {mode:>10}: {best[mode]['wall_clock_s']:.3f}s wall, "
              f"{best[mode]['steps_per_s']:,.0f} steps/s")
    entry["speedup"] = (
        entry["replicated"]["wall_clock_s"] / entry["sharded"]["wall_clock_s"]
    )
    # Sharding must not perturb any walk or base time — only the modeled
    # communication term and the makespan are allowed to differ.
    entry["simulated_time_parity"] = bool(
        collected["replicated"].paths == collected["sharded"].paths
        and np.array_equal(
            collected["replicated"].per_query_ns, collected["sharded"].per_query_ns
        )
    )
    entry["remote_edge_ratio"] = collected["sharded"].remote_edge_ratio
    entry["ghost_hit_ratio"] = collected["sharded"].ghost_hit_ratio
    entry["migration_batches"] = collected["sharded"].migration_batches
    print(f"  {'sharded':>9} overhead: {entry['speedup']:.2f}x replicated/sharded wall "
          f"(base-time parity: {entry['simulated_time_parity']}, "
          f"remote-edge ratio: {entry['remote_edge_ratio']:.3f}, "
          f"ghost-hit ratio: {entry['ghost_hit_ratio']:.3f})")
    return entry


def bench_recovery(graph, walk_length: int) -> dict[str, object]:
    """Fault-tolerance entry: modeled checkpoint overhead vs interval.

    Runs the DeepWalk workload fault-free, then with superstep
    checkpointing at each interval of ``RECOVERY_INTERVALS``, and reports
    the *simulated-time* overhead of each — a deterministic number (the
    checkpoint copy-outs are priced by the device model, not measured on
    the host), so the entry needs no repeats and cannot flake.  The
    headline ``recovery_overhead`` is the overhead at the runtime's
    default interval; ``speedup`` is its reciprocal form ``1/(1+overhead)``
    so the generic speedup floor still applies, and
    ``--max-recovery-overhead`` gates the overhead itself.

    ``simulated_time_parity`` here is the recovery invariant: every
    checkpointed run — and a run that loses a device mid-flight and
    replays from its last checkpoint — must reproduce the fault-free
    paths, per-query base times and counter totals bit-identically (only
    the modeled time may differ).
    """
    from repro.gpusim.counters import CostCounters
    from repro.runtime.faults import (
        DEFAULT_CHECKPOINT_INTERVAL,
        DeviceFailure,
        FaultPlan,
        TransientFault,
    )

    spec_factory = WORKLOADS["deepwalk"][0]
    service = WalkService(graph)

    def one_run(config):
        session = service.session(spec_factory(), config)
        session.submit(make_queries(graph.num_nodes, walk_length=walk_length))
        return session.collect()

    def matches(result, reference) -> bool:
        return bool(
            result.paths == reference.paths
            and np.array_equal(result.per_query_ns, reference.per_query_ns)
            and all(
                getattr(result.counters, name) == getattr(reference.counters, name)
                for name in CostCounters._COUNT_FIELDS
            )
        )

    base = one_run(FlexiWalkerConfig())
    parity = True
    overheads: dict[str, float] = {}
    for interval in RECOVERY_INTERVALS:
        result = one_run(FlexiWalkerConfig(checkpoint_interval=interval))
        overheads[str(interval)] = result.time_ms / base.time_ms - 1.0
        parity = parity and matches(result, base)
        print(f"  {'recovery':>9} interval {interval:>2}: "
              f"{overheads[str(interval)]:+.1%} simulated-time overhead "
              f"({result.checkpoints_taken} checkpoints)")

    # A permanent device failure two thirds of the way in, plus an earlier
    # transient, recovered from the last default-interval checkpoint: the
    # replayed run must land bit-identically on the fault-free results.
    plan = FaultPlan(
        seed=11,
        device_failures=(DeviceFailure(superstep=(2 * walk_length) // 3),),
        transient_faults=(TransientFault(superstep=walk_length // 4),),
    )
    faulty = one_run(FlexiWalkerConfig(
        fault_plan=plan, checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL
    ))
    parity = parity and matches(faulty, base)

    overhead = overheads[str(DEFAULT_CHECKPOINT_INTERVAL)]
    entry: dict[str, object] = {
        "workload": "recovery",
        "walk_length": walk_length,
        "num_queries": graph.num_nodes,
        "checkpoint_interval": DEFAULT_CHECKPOINT_INTERVAL,
        "overhead_by_interval": overheads,
        "recovery_overhead": overhead,
        "speedup": 1.0 / (1.0 + max(overhead, 0.0)),
        "simulated_time_parity": parity,
        "faulty_run": {
            "degraded_devices": list(faulty.degraded_devices),
            "recovery_time_ms": faulty.recovery_time_ns / 1e6,
            "checkpoints_taken": faulty.checkpoints_taken,
        },
    }
    print(f"  {'recovery':>9} headline: {overhead:+.1%} overhead at the "
          f"default interval {DEFAULT_CHECKPOINT_INTERVAL} "
          f"(recovery parity: {parity}, degraded {faulty.degraded_devices}, "
          f"recovery {faulty.recovery_time_ns / 1e6:.4f} ms)")
    return entry


def bench_delta(graph, walk_length: int, repeats: int) -> dict[str, object]:
    """Dynamic-graph entry: walk throughput vs streaming-update rate.

    Sweeps the delta-CSR overlay's update rate — ``DELTA_RATES`` deltas of
    ``DELTA_CHANGES`` edges applied between successive walk waves on one
    live :class:`~repro.service.WalkService` — and reports steps-per-second
    at each rate plus edges-applied-per-second at the top rate.  The
    headline ``delta_slowdown`` (gated by ``--max-delta-slowdown``) is the
    static-rate throughput over the top-rate throughput: everything the
    versioned-invalidation machinery costs per update — overlay
    maintenance, CSR cache repair, per-workload recompilation and scoped
    cache migration — lands in that ratio.  ``speedup`` is its reciprocal
    so the generic floor applies.

    ``simulated_time_parity`` here is the compaction-identity contract: a
    session opened at the final version of the swept (mutated) service must
    collect bit-identically — paths, per-query base times, simulated time —
    to a session on a *fresh* service built from the merged edge list.
    """
    from repro.graph.builders import from_edge_list
    from repro.graph.delta import DeltaCSRGraph

    spec_factory = WORKLOADS["deepwalk"][0]
    config = FlexiWalkerConfig()
    num_queries = graph.num_nodes
    adds, rems = DELTA_CHANGES

    def one_sweep(rate: int):
        """Fresh dynamic service, DELTA_WAVES waves at the given rate."""
        service = WalkService(DeltaCSRGraph(graph))
        rng = np.random.default_rng(17)

        def wave(seed: int):
            session = service.session(spec_factory(), config)
            session.submit(make_queries(graph.num_nodes, walk_length=walk_length,
                                        num_queries=num_queries, seed=seed))
            result = session.collect()
            session.close()
            return result

        wave(0)  # warm-up (profile, hint tables, transition cache)
        steps = 0
        edges_changed = 0
        started = time.perf_counter()
        for index in range(DELTA_WAVES):
            for _ in range(rate):
                dynamic = service.dynamic_graph
                cand = rng.integers(0, graph.num_nodes, size=(10 * adds, 2))
                fresh = np.unique(
                    cand[~dynamic.has_edges(cand[:, 0], cand[:, 1])], axis=0
                )[:adds]
                live = dynamic.edge_list()[0]
                removals = np.unique(
                    live[rng.choice(live.shape[0], rems, replace=False)], axis=0
                )
                labels = (rng.integers(0, int(graph.labels.max()) + 1,
                                       size=len(fresh))
                          if graph.labels is not None else None)
                service.apply_delta(fresh, removals,
                                    weights=rng.random(len(fresh)),
                                    labels=labels)
                edges_changed += len(fresh) + len(removals)
            steps += wave(1 + index).total_steps
        elapsed = time.perf_counter() - started
        return {
            "wall_clock_s": elapsed,
            "steps_per_s": steps / elapsed,
            "total_steps": steps,
            "edges_changed": edges_changed,
            "edges_per_s": edges_changed / elapsed,
        }, service

    best: dict[int, dict] = {}
    final_service = None
    with no_gc():
        for _ in range(repeats):
            for rate in DELTA_RATES:
                measured, service = one_sweep(rate)
                if rate not in best or measured["wall_clock_s"] < best[rate]["wall_clock_s"]:
                    best[rate] = measured
                    if rate == DELTA_RATES[-1]:
                        final_service = service
    entry: dict[str, object] = {
        "workload": "delta",
        "walk_length": walk_length,
        "num_queries": num_queries,
        "waves": DELTA_WAVES,
        "delta_changes": list(DELTA_CHANGES),
        "rates": {},
    }
    for rate in DELTA_RATES:
        entry["rates"][str(rate)] = best[rate]
        print(f"  {'delta':>9} rate {rate:>2}: {best[rate]['wall_clock_s']:.3f}s wall, "
              f"{best[rate]['steps_per_s']:,.0f} steps/s, "
              f"{best[rate]['edges_per_s']:,.0f} edges applied/s")
    slowdown = (best[DELTA_RATES[0]]["steps_per_s"]
                / best[DELTA_RATES[-1]]["steps_per_s"])
    entry["delta_slowdown"] = slowdown
    entry["speedup"] = 1.0 / max(slowdown, 1e-9)
    entry["edges_per_s"] = best[DELTA_RATES[-1]]["edges_per_s"]

    # Compaction-identity parity on the mutated service from the top rate.
    def run_session(service):
        session = service.session(spec_factory(), config)
        session.submit(make_queries(service.graph.num_nodes,
                                    walk_length=walk_length,
                                    num_queries=num_queries, seed=99))
        result = session.collect()
        session.close()
        return result

    mutated = run_session(final_service)
    edges, weights, labels = final_service.dynamic_graph.edge_list()
    rebuilt = from_edge_list(edges, num_nodes=graph.num_nodes, weights=weights,
                             labels=labels, name=graph.name)
    reference = run_session(WalkService(rebuilt))
    entry["simulated_time_parity"] = bool(
        mutated.paths == reference.paths
        and np.array_equal(mutated.per_query_ns, reference.per_query_ns)
        and mutated.time_ms == reference.time_ms
    )
    print(f"  {'delta':>9} headline: {slowdown:.2f}x slowdown at "
          f"{DELTA_RATES[-1]} deltas/wave vs static "
          f"(fresh-build parity: {entry['simulated_time_parity']})")
    return entry


def _load_generator():
    """The examples/load_generator.py module (the serving entry's driver)."""
    import importlib.util

    path = REPO_ROOT / "examples" / "load_generator.py"
    spec = importlib.util.spec_from_file_location("bench_load_generator", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _serving_parity(graph, walk_length: int) -> bool:
    """Scheduler-vs-sequential parity: two sessions fused into one frontier
    must each collect() bit-identically to running alone."""
    from repro.walks.deepwalk import DeepWalkSpec as _DeepWalk
    from repro.walks.state import WalkQuery

    def block(base, count):
        rng = np.random.default_rng(base)
        return [
            WalkQuery(query_id=base + i,
                      start_node=int(rng.integers(0, graph.num_nodes)),
                      max_length=walk_length)
            for i in range(count)
        ]

    batches = {"a": [block(1000, 24), block(1100, 8)], "b": [block(2000, 16)]}
    service = WalkService(graph)
    scheduler = service.scheduler(max_inflight_walkers=64)
    fused = {key: scheduler.session(_DeepWalk(), FlexiWalkerConfig()) for key in batches}
    fused["a"].submit(batches["a"][0])
    fused["b"].submit(batches["b"][0])
    for _ in range(3):
        scheduler.tick()
    fused["a"].submit(batches["a"][1])  # admitted mid-flight
    for key in batches:
        solo = WalkService(graph).session(_DeepWalk(), FlexiWalkerConfig())
        for batch in batches[key]:
            solo.submit(batch)
        reference, result = solo.collect(), fused[key].collect()
        if not (
            result.paths == reference.paths
            and np.array_equal(result.per_query_ns, reference.per_query_ns)
            and result.time_ms == reference.time_ms
        ):
            return False
    return True


def bench_serving(graph, repeats: int) -> dict[str, object]:
    """Continuous-batching serving entry: latency/throughput vs session count.

    Drives ``examples/load_generator.py`` (the multi-tenant open-loop load
    generator) at several session counts, all sessions fused into one shared
    frontier, and records p50/p99 ticket latency (in scheduler supersteps —
    a simulation-clock metric, stable across hosts) plus aggregate
    walker-steps per second (a wall-clock metric, best of N).  ``speedup``
    is the fused throughput at the top scale over the bottom scale — the
    continuous-batching scaling factor the regression gate tracks; the
    ``p99_latency_ticks`` ceiling is gated separately
    (``--max-p99-rise``).  ``simulated_time_parity`` re-checks that fusing
    sessions changes no walk, time or count (scheduler-vs-sequential
    parity).  Always runs the YT scale model, whatever ``--dataset`` says —
    the serving trajectory must stay comparable across baselines.
    """
    generator = _load_generator()
    entry: dict[str, object] = {
        "workload": "serving",
        "queries_per_session": SERVING_QUERIES_PER_SESSION,
        "walk_length": SERVING_WALK_LENGTH,
        "max_inflight_walkers": SERVING_MAX_INFLIGHT,
        "scales": {},
    }
    best: dict[int, dict] = {}
    with no_gc():
        for _ in range(repeats):
            for count in SERVING_SESSION_COUNTS:
                metrics = generator.run_load(
                    count,
                    queries_per_session=SERVING_QUERIES_PER_SESSION,
                    walk_length=SERVING_WALK_LENGTH,
                    max_inflight_walkers=SERVING_MAX_INFLIGHT,
                )
                if (
                    count not in best
                    or metrics["aggregate_steps_per_s"]
                    > best[count]["aggregate_steps_per_s"]
                ):
                    best[count] = metrics
    for count in SERVING_SESSION_COUNTS:
        metrics = best[count]
        entry["scales"][str(count)] = {
            key: metrics[key]
            for key in (
                "sessions", "walks", "supersteps", "p50_latency_ticks",
                "p99_latency_ticks", "p99_queue_delay_ticks",
                "aggregate_steps_per_s", "wall_s",
            )
        }
        print(f"  {'serving':>9} {count:>4} sessions: "
              f"p50/p99 latency {metrics['p50_latency_ticks']:.0f}/"
              f"{metrics['p99_latency_ticks']:.0f} ticks, "
              f"{metrics['aggregate_steps_per_s']:,.0f} steps/s")
    low = best[SERVING_SESSION_COUNTS[0]]
    high = best[SERVING_SESSION_COUNTS[-1]]
    entry["speedup"] = (
        high["aggregate_steps_per_s"] / low["aggregate_steps_per_s"]
    )
    entry["p50_latency_ticks"] = high["p50_latency_ticks"]
    entry["p99_latency_ticks"] = high["p99_latency_ticks"]
    entry["simulated_time_parity"] = _serving_parity(graph, SERVING_WALK_LENGTH)
    print(f"  {'serving':>9} scaling: {entry['speedup']:.2f}x steps/s at "
          f"{SERVING_SESSION_COUNTS[-1]} vs {SERVING_SESSION_COUNTS[0]} sessions "
          f"(scheduler parity: {entry['simulated_time_parity']}, "
          f"p99 {entry['p99_latency_ticks']:.0f} ticks)")
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)

    def positive_int(value: str) -> int:
        parsed = int(value)
        if parsed < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {parsed}")
        return parsed

    parser.add_argument("--dataset", default="YT", help="dataset tag (default: YT)")
    parser.add_argument("--walk-length", type=positive_int, default=20,
                        help="walk length for deepwalk/node2vec (metapath uses its schema depth)")
    parser.add_argument("--repeats", type=positive_int, default=3)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS),
                        help="subset of workloads to benchmark")
    parser.add_argument("--skip-sharded", action="store_true",
                        help="skip the replicated-vs-sharded multi-device entry")
    parser.add_argument("--skip-serving", action="store_true",
                        help="skip the continuous-batching serving entry")
    parser.add_argument("--skip-recovery", action="store_true",
                        help="skip the fault-tolerance checkpoint-overhead entry")
    parser.add_argument("--skip-delta", action="store_true",
                        help="skip the dynamic-graph update-rate entry")
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_engine.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    graph = load_dataset(args.dataset, weights="uniform")
    if graph.labels is None and "metapath" in args.workloads:
        graph = graph.with_labels(random_edge_labels(graph, num_labels=5, seed=0))
    print(f"benchmarking on {graph} (one query per node, best of {args.repeats})")

    report: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "dataset": args.dataset,
        "quickstart": QUICKSTART,
        "entries": {},
    }
    for name in args.workloads:
        report["entries"][name] = bench_workload(graph, name, args.walk_length, args.repeats)
    if not args.skip_sharded:
        report["entries"]["sharded"] = bench_sharded(graph, args.walk_length, args.repeats)
    if not args.skip_serving:
        report["entries"]["serving"] = bench_serving(graph, args.repeats)
    if not args.skip_recovery:
        report["entries"]["recovery"] = bench_recovery(graph, args.walk_length)
    if not args.skip_delta:
        report["entries"]["delta"] = bench_delta(graph, args.walk_length, args.repeats)

    parity = all(e["simulated_time_parity"] for e in report["entries"].values())
    if QUICKSTART in report["entries"]:
        # Headline mirror of the quickstart entry, kept for readers of the
        # raw JSON (the regression gate reads the per-entry fields).
        report["speedup"] = report["entries"][QUICKSTART]["speedup"]
        report["simulated_time_parity"] = parity

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0 if parity else 1


if __name__ == "__main__":
    raise SystemExit(main())
