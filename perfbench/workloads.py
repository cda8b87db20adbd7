"""The three workloads, driven through the public serving API.

* ``deepwalk-ba`` and ``node2vec-rmat`` are batch workloads: each timed wave
  opens a session on a warmed :class:`WalkService`, submits the same
  queries as tickets of ``TICKET_WALKS`` walks, streams the walks back and
  collects the exact result.
* ``serve-churn`` is an open loop through one :class:`ServiceScheduler`:
  requests from two tenants arrive at seeded Poisson times while edge deltas
  land every ``DELTA_EVERY`` requests.  The load generator and the server
  share one thread, so the generator's own work stays small and is done
  before the clock starts where possible (inputs and deltas are
  pre-generated).

Every run returns ``(attempted, failed, metrics)``; ``metrics`` maps metric
names to values, units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    DeepWalkSpec,
    FlexiWalkerConfig,
    Node2VecSpec,
    SubmitOptions,
    WalkQuery,
    WalkService,
)
from repro.graph.builders import from_edge_list

from inputs import (
    EdgeReference,
    apply_delta_keys,
    barabasi_albert_edges,
    edge_keys,
    make_deltas,
    rmat_edges,
)
from spans import Tracer, clock

#: Set-ups per run: at least SETUP_MIN_REPEATS and until SETUP_SECONDS have
#: passed; ``setup_s`` is their median (one set-up takes 0.1-0.6 s, too
#: short for a single sample to be steady).
SETUP_MIN_REPEATS = 5
SETUP_SECONDS = 3.0
#: Timed waves per batch run at least, whatever ``--seconds`` says.
MIN_WAVES = 3
#: Walks per submitted ticket in a batch wave; a ticket's latency is the
#: time from the wave's start until its last walk is streamed back.
TICKET_WALKS = 20
CONFIG = FlexiWalkerConfig(seed=0)

TRACE_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class BatchWorkload:
    graph: str              # "ba" or "rmat"
    size: int               # BA: nodes; RMAT: log2(nodes)
    edges_per_node: int
    spec: object
    walkers: int
    length: int
    warmup_walkers: int = 1000


BATCH = {
    "deepwalk-ba": BatchWorkload("ba", 100_000, 8, DeepWalkSpec(), 50_000, 20),
    "node2vec-rmat": BatchWorkload("rmat", 15, 8, Node2VecSpec(a=2.0, b=0.5), 20_000, 20),
}

# serve-churn: 20k-node BA graph, Poisson arrivals, two tenants.
SERVE_NODES = 20_000
SERVE_EDGES_PER_NODE = 8
SERVE_RATE = 50.0             # requests per second
DELTA_EVERY = 60              # requests between edge deltas
DELTA_ADDITIONS = 24
DELTA_REMOVALS = 8
INTERACTIVE_SHARE = 0.75
WARMUP_WALKERS = 1000


@dataclass(frozen=True)
class Tenant:
    name: str
    spec: object
    walks: int
    length: int
    weight: float
    options: SubmitOptions


TENANTS = (
    Tenant("interactive", DeepWalkSpec(), 4, 10, 4.0, SubmitOptions(priority=1)),
    Tenant("batch", DeepWalkSpec(), 16, 20, 1.0, SubmitOptions()),
)


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """The ``q``-th percentile, or 0.0 when fewer than ten samples lie beyond it."""
    values = np.asarray(values, dtype=np.float64)
    if values.size * (100 - q) < 1000:
        return 0.0
    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def digest(result) -> str:
    """Same-seed fingerprint of a result: paths, simulated times, exact counts."""
    h = hashlib.sha256()
    paths = result.paths
    lengths = np.fromiter((len(p) for p in paths), dtype=np.int64, count=len(paths))
    h.update(lengths.tobytes())
    h.update(np.fromiter((v for p in paths for v in p), dtype=np.int64,
                         count=int(lengths.sum())).tobytes())
    h.update(repr((result.kernel.time_ns, result.kernel.total_work_ns,
                   sorted(result.counters.as_dict().items()),
                   sorted(result.sampler_usage.items()))).encode())
    return h.hexdigest()


@dataclass
class Exact:
    """Exact operation counts summed over results (repeat bit-for-bit)."""

    steps: int = 0
    counters: dict = field(default_factory=dict)
    usage: dict = field(default_factory=dict)

    def add(self, steps: int, counters: dict, usage: dict) -> None:
        self.steps += steps
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in usage.items():
            self.usage[name] = self.usage.get(name, 0) + value

    def add_result(self, result) -> None:
        self.add(result.total_steps, result.counters.as_dict(), result.sampler_usage)


#: Layers reported as self-seconds per million walker-steps.
STEP_LAYERS = (
    "rng", "sampling.eRJS", "sampling.eRVS", "sampling.weights", "graph.has_edges",
    "runtime.hints", "runtime.select", "gpusim.accounting", "walks.update",
    "service.assembly",
)
#: Layers reported as the median duration of one call.
CALL_LAYERS = (
    "service.session_open", "compiler.compile", "runtime.profile", "service.submit",
    "graph.overlay", "graph.snapshot", "graph.repair", "graph.rebind",
)


def layer_metrics(tracer: Tracer, exact: Exact, faults: int) -> dict:
    """Per-layer metrics shared by every workload's traced run."""
    self_s = tracer.self_seconds()
    steps = max(exact.steps, 1)
    draws = exact.counters.get("rng_draws", 0)
    trials = exact.counters.get("rejection_trials", 0)
    erjs = exact.usage.get("eRJS", 0)
    sampled = sum(exact.usage.values())
    ticks = tracer.durations_ms("scheduler.tick")
    metrics = {f"{layer}.s_per_mstep": self_s.get(layer, 0.0) * 1e6 / steps
               for layer in STEP_LAYERS}
    metrics.update({f"{layer}_ms.p50": percentile(tracer.durations_ms(layer), 50)
                    for layer in CALL_LAYERS})
    metrics.update({
        "rng.reserved_per_draw": tracer.work.get("rng", 0.0) / draws if draws else 0.0,
        "sampling.eRJS.share": erjs / sampled if sampled else 0.0,
        "sampling.eRJS.trials_per_step": trials / erjs if erjs else 0.0,
        "graph.has_edges.queries_per_step": tracer.work.get("graph.has_edges", 0.0) / steps,
        "host.minflt_per_kstep": faults * 1e3 / steps,
        "gpusim.rng_draws_per_step": draws / steps,
        "gpusim.rejection_trials_per_step": trials / steps,
        "gpusim.random_accesses_per_step": exact.counters.get("random_accesses", 0) / steps,
        "scheduler.tick_ms.p50": percentile(ticks, 50),
        "scheduler.tick_ms.p99": percentile(ticks, 99),
    })
    return metrics


def setup_metrics(setups: list[dict]) -> dict:
    phases = {"graph.csr_build_s": "csr", "compiler.compile_s": "compile",
              "runtime.profile_s": "profile", "service.warmup_s": "warmup"}
    return {name: statistics.median(s[key] for s in setups) for name, key in phases.items()}


def repeated_setups(build) -> tuple[object, list[dict]]:
    """Run ``build`` repeatedly; keep the last result and every timing."""
    built, timings = None, []
    while len(timings) < SETUP_MIN_REPEATS or sum(t["total"] for t in timings) < SETUP_SECONDS:
        built = None
        gc.collect()
        built, timing = build()
        timings.append(timing)
    return built, timings


def write_trace(tracer: Tracer, workload: str, seed: int) -> None:
    tracer.write_chrome(TRACE_DIR / f"trace-{workload}-seed{seed}.json")


# ---------------------------------------------------------------------- #
# Batch workloads
# ---------------------------------------------------------------------- #
@dataclass
class BatchInputs:
    edges: np.ndarray
    weights: np.ndarray
    num_nodes: int
    warmup: list[WalkQuery]
    queries: list[WalkQuery]
    starts: np.ndarray


def batch_inputs(w: BatchWorkload, seed: int) -> BatchInputs:
    if w.graph == "ba":
        edges, n = barabasi_albert_edges(w.size, w.edges_per_node, seed), w.size
    else:
        edges, n = rmat_edges(w.size, w.edges_per_node, seed), 1 << w.size
    rng = np.random.default_rng([seed, 1])
    weights = rng.uniform(1.0, 5.0, edges.shape[0])
    warm = rng.integers(0, n, w.warmup_walkers)
    starts = rng.integers(0, n, w.walkers)
    return BatchInputs(
        edges, weights, n,
        [WalkQuery(i, int(s), w.length) for i, s in enumerate(warm)],
        [WalkQuery(i, int(s), w.length) for i, s in enumerate(starts)],
        starts,
    )


def batch_setup(w: BatchWorkload, inp: BatchInputs):
    """Edge arrays in memory -> warmed service ready for sessions."""
    t0 = clock()
    graph = from_edge_list(inp.edges, num_nodes=inp.num_nodes, weights=inp.weights,
                           deduplicate=True)
    t1 = clock()
    service = WalkService(graph)
    service.compile(w.spec)
    t2 = clock()
    service.profile(w.spec, seed=CONFIG.seed)
    t3 = clock()
    session = service.session(w.spec, CONFIG)
    session.submit(inp.warmup)
    session.collect()
    session.close()
    t4 = clock()
    return service, {"csr": t1 - t0, "compile": t2 - t1, "profile": t3 - t2,
                     "warmup": t4 - t3, "total": t4 - t0}


@dataclass
class Wave:
    seconds: float
    steps: int
    sim_ms: float
    p50_ms: float
    p99_ms: float
    digest: str
    bad: int
    exact: Exact


def run_wave(service, w: BatchWorkload, inp: BatchInputs, ref: EdgeReference) -> Wave:
    """One timed wave: submit every ticket, stream every walk back, collect."""
    t0 = clock()
    session = service.session(w.spec, CONFIG)
    for lo in range(0, len(inp.queries), TICKET_WALKS):
        session.submit(inp.queries[lo:lo + TICKET_WALKS])
    chunks = []
    for chunk in session.stream():
        chunks.append((clock(), chunk.query_ids))
    result = session.collect()
    elapsed = clock() - t0
    session.close()
    # A ticket is done when its last walk is; query ids are 0..walkers-1.
    done_ms = np.empty(len(inp.queries))
    for at, query_ids in chunks:
        done_ms[np.asarray(query_ids, dtype=np.int64)] = (at - t0) * 1e3
    ticket_ms = np.maximum.reduceat(done_ms, np.arange(0, done_ms.size, TICKET_WALKS))
    exact = Exact()
    exact.add_result(result)
    return Wave(
        seconds=elapsed,
        steps=result.total_steps,
        sim_ms=result.kernel.total_work_ns / 1e6,
        p50_ms=percentile(ticket_ms, 50),
        p99_ms=percentile(ticket_ms, 99),
        digest=digest(result),
        bad=ref.bad_paths(result.paths, inp.starts, w.length),
        exact=exact,
    )


def run_batch(name: str, seed: int, seconds: float, trace: bool):
    w = BATCH[name]
    inp = batch_inputs(w, seed)
    ref = EdgeReference(edge_keys(inp.edges, inp.num_nodes), inp.num_nodes)
    service, setups = repeated_setups(lambda: batch_setup(w, inp))

    plain: list[Wave] = []
    traced: list[Wave] = []
    tracer = Tracer()
    faults = 0
    start = time.perf_counter()
    while len(plain) < MIN_WAVES or time.perf_counter() - start < seconds:
        plain.append(run_wave(service, w, inp, ref))
        if trace:
            # Traced and untraced waves alternate, so host drift hits both.
            before = minor_faults()
            tracer.install()
            try:
                with tracer.span("wave"):
                    traced.append(run_wave(service, w, inp, ref))
            finally:
                tracer.restore()
            faults += minor_faults() - before

    waves = plain + traced
    failed = sum(1 for v in waves if v.bad or v.digest != waves[0].digest)
    if not trace:
        return len(waves), failed, {
            "setup_s": statistics.median(s["total"] for s in setups),
            "steps_per_s": statistics.median(v.steps / v.seconds for v in plain),
            "sim_ms": plain[0].sim_ms,
            "peak_rss_mb": peak_rss_mb(),
            "latency_p99_ms": statistics.median(v.p99_ms for v in plain),
        }

    write_trace(tracer, name, seed)
    exact = Exact()
    for v in traced:
        exact.add(v.exact.steps, v.exact.counters, v.exact.usage)
    metrics = layer_metrics(tracer, exact, faults)
    metrics.update(setup_metrics(setups))
    metrics.update({
        "scheduler.steps_per_tick": 0.0,
        "scheduler.fusion_groups": 0.0,
        "loadgen.late_ms.p99": 0.0,
        "service.latency_p50_ms": statistics.median(v.p50_ms for v in traced),
        "service.interactive_p98_ms": 0.0,
        "service.update_ms.p50": 0.0,
        "trace.overhead": statistics.median(v.seconds for v in traced)
        / statistics.median(v.seconds for v in plain),
    })
    return len(waves), failed, metrics


# ---------------------------------------------------------------------- #
# serve-churn
# ---------------------------------------------------------------------- #
@dataclass
class ServeInputs:
    edges: np.ndarray
    weights: np.ndarray
    keys: np.ndarray
    due: np.ndarray          # seconds after the loop starts
    tenant: np.ndarray       # index into TENANTS per request
    starts: list[np.ndarray]
    deltas: list


def serve_inputs(seed: int, requests: int) -> ServeInputs:
    edges = barabasi_albert_edges(SERVE_NODES, SERVE_EDGES_PER_NODE, seed)
    keys = edge_keys(edges, SERVE_NODES)
    rng = np.random.default_rng([seed, 2])
    weights = rng.uniform(1.0, 5.0, edges.shape[0])
    due = np.cumsum(rng.exponential(1.0 / SERVE_RATE, requests))
    # Every window between two deltas holds the same tenant mix, shuffled,
    # so each session sees the same amount of work whatever the seed.
    window = np.repeat([0, 1], [round(INTERACTIVE_SHARE * DELTA_EVERY),
                                DELTA_EVERY - round(INTERACTIVE_SHARE * DELTA_EVERY)])
    tenant = np.concatenate([rng.permutation(window)
                             for _ in range(-(-requests // DELTA_EVERY))])[:requests]
    starts = [rng.integers(0, SERVE_NODES, TENANTS[t].walks) for t in tenant]
    deltas = make_deltas(keys, SERVE_NODES, (requests - 1) // DELTA_EVERY,
                         DELTA_ADDITIONS, DELTA_REMOVALS, rng)
    return ServeInputs(edges, weights, keys, due, tenant, starts, deltas)


def serve_setup(inp: ServeInputs):
    """Edge arrays in memory -> scheduler with one open session per tenant."""
    t0 = clock()
    graph = from_edge_list(inp.edges, num_nodes=SERVE_NODES, weights=inp.weights,
                           deduplicate=True)
    t1 = clock()
    service = WalkService(graph)
    for t in TENANTS:
        service.compile(t.spec)
    t2 = clock()
    for t in TENANTS:
        service.profile(t.spec, seed=CONFIG.seed)
    t3 = clock()
    warm = np.random.default_rng(0).integers(0, SERVE_NODES, WARMUP_WALKERS)
    for t in TENANTS:
        session = service.session(t.spec, CONFIG)
        session.submit([WalkQuery(i, int(s), t.length) for i, s in enumerate(warm)])
        session.collect()
        session.close()
    t4 = clock()
    scheduler = service.scheduler()
    sessions = {}
    for t in TENANTS:
        scheduler.register_tenant(t.name, weight=t.weight)
        sessions[t.name] = scheduler.session(t.spec, CONFIG, tenant=t.name)
    t5 = clock()
    return (service, scheduler, sessions), {
        "csr": t1 - t0, "compile": t2 - t1, "profile": t3 - t2, "warmup": t4 - t3,
        "total": t5 - t0,
    }


class VirtualClock:
    """The open loop's clock: CPU seconds since the start plus skipped idle time.

    While the server works, the clock advances by the process's CPU time, so
    time the host gives to other jobs does not count as latency.  When nothing
    is pending it jumps to the next arrival instead of sleeping.
    """

    def __init__(self) -> None:
        self.origin = clock()
        self.skipped = 0.0

    def now(self) -> float:
        return clock() - self.origin + self.skipped

    def idle_until(self, t: float) -> None:
        self.skipped += max(t - self.now(), 0.0)


@dataclass
class Request:
    ticket: object
    due: float
    tenant: Tenant
    version: int
    starts: np.ndarray


@dataclass
class ServePass:
    latency_ms: list[float]
    interactive_ms: list[float]
    late_ms: list[float]
    update_ms: list[float]
    busy_s: float
    steps: int
    ticks: int
    fusion_groups: int
    sim_ms: float
    attempted: int
    failed: int
    digest: str
    exact: Exact


def serve_pass(built, inp: ServeInputs) -> ServePass:
    """Drive every request through the scheduler, then check every walk."""
    service, scheduler, current = built
    opened = list(current.values())
    retiring = []
    outstanding: list[Request] = []
    finished: list[Request] = []
    latency, interactive, late, update = [], [], [], []
    failed = 0
    steps = ticks = 0
    next_qid = 0
    deltas = iter(inp.deltas)
    count = inp.due.size
    i = 0
    busy_s = 0.0
    vclock = VirtualClock()
    while i < count or scheduler.pending:
        now = vclock.now()
        while i < count and inp.due[i] <= now:
            if i and i % DELTA_EVERY == 0:
                delta = next(deltas)
                started = clock()
                service.apply_delta(delta.additions, delta.removals, weights=delta.weights)
                update.append((clock() - started) * 1e3)
                retiring.extend(current.values())
                for t in TENANTS:
                    current[t.name] = scheduler.session(t.spec, CONFIG, tenant=t.name)
                    opened.append(current[t.name])
            tenant = TENANTS[inp.tenant[i]]
            session = current[tenant.name]
            starts = inp.starts[i]
            queries = [WalkQuery(next_qid + j, int(s), tenant.length)
                       for j, s in enumerate(starts)]
            next_qid += len(queries)
            late.append((vclock.now() - inp.due[i]) * 1e3)
            ticket = session.submit(queries, options=tenant.options)
            outstanding.append(Request(ticket, inp.due[i], tenant,
                                       session.graph_version, starts))
            i += 1
            now = vclock.now()
        if not scheduler.pending:
            if i < count:
                vclock.idle_until(inp.due[i])
            continue
        started = clock()
        steps += scheduler.tick()
        busy_s += clock() - started
        ticks += 1
        done_at = vclock.now() * 1e3
        waiting = []
        for req in outstanding:
            status = req.ticket.status
            if status == "done":
                ms = done_at - req.due * 1e3
                latency.append(ms)
                if req.tenant is TENANTS[0]:
                    interactive.append(ms)
                finished.append(req)
            elif status == "cancelled":
                failed += 1
            else:
                waiting.append(req)
        outstanding = waiting
        for session in [s for s in retiring if s.pending == 0]:
            scheduler.detach(session)
            session.close()
            retiring.remove(session)
    failed += len(outstanding)  # never seen done although nothing is pending
    fusion_groups = scheduler.describe()["fusion_groups"]

    # Results and checks, after the clock: every session's exact result and
    # every ticket's walks against the graph version its session is pinned to.
    for session in [*retiring, *current.values()]:
        scheduler.detach(session)
    exact = Exact()
    sim_ms = 0.0
    h = hashlib.sha256()
    for session in opened:
        result = session.collect() if session.completed else None
        if result is not None:
            exact.add_result(result)
            sim_ms += result.kernel.total_work_ns / 1e6
            h.update(digest(result).encode())
        session.close()
    by_version: dict[int, list[Request]] = {}
    for req in finished:
        by_version.setdefault(req.version, []).append(req)
    keys = inp.keys
    for version in range(len(inp.deltas) + 1):
        if version:
            d = inp.deltas[version - 1]
            keys = apply_delta_keys(keys, d.additions, d.removals, SERVE_NODES)
        if version not in by_version:
            continue
        ref = EdgeReference(keys, SERVE_NODES)
        for req in by_version[version]:
            if ref.bad_paths(req.ticket.paths(), req.starts, req.tenant.length):
                failed += 1
    return ServePass(latency, interactive, late, update, busy_s, steps, ticks,
                     fusion_groups, sim_ms, count, failed, h.hexdigest(), exact)


def fresh_serve_setup(inp: ServeInputs):
    gc.collect()
    built, _ = serve_setup(inp)
    return built


def run_serve(seed: int, seconds: float, trace: bool):
    inp = serve_inputs(seed, int(round(SERVE_RATE * seconds)))
    built, setups = repeated_setups(lambda: serve_setup(inp))
    # Passes over the same requests, each on a fresh set-up (scheduler state
    # only grows), until --seconds have passed; latencies are pooled.
    plain: list[ServePass] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        if plain:
            built = fresh_serve_setup(inp)
        plain.append(serve_pass(built, inp))
        built = None  # freed before the next set-up
    failed = sum(p.failed + (p.digest != plain[0].digest) for p in plain)
    attempted = sum(p.attempted for p in plain)
    if not trace:
        return attempted, failed, {
            "setup_s": statistics.median(s["total"] for s in setups),
            "steps_per_s": sum(p.exact.steps for p in plain) / sum(p.busy_s for p in plain),
            "sim_ms": plain[0].sim_ms,
            "peak_rss_mb": peak_rss_mb(),
            "latency_p99_ms": percentile([ms for p in plain for ms in p.latency_ms], 99),
        }

    # A traced pass over the same requests on a fresh set-up.
    built = fresh_serve_setup(inp)
    tracer = Tracer()
    before = minor_faults()
    tracer.install()
    try:
        with tracer.span("pass"):
            traced = serve_pass(built, inp)
    finally:
        tracer.restore()
    faults = minor_faults() - before
    write_trace(tracer, "serve-churn", seed)
    failed += traced.failed + (traced.digest != plain[0].digest)
    metrics = layer_metrics(tracer, traced.exact, faults)
    metrics.update(setup_metrics(setups))
    metrics.update({
        "scheduler.steps_per_tick": traced.steps / max(traced.ticks, 1),
        "scheduler.fusion_groups": float(traced.fusion_groups),
        "loadgen.late_ms.p99": percentile(traced.late_ms, 99),
        "service.latency_p50_ms": percentile(traced.latency_ms, 50),
        "service.interactive_p98_ms": percentile(traced.interactive_ms, 98),
        "service.update_ms.p50": percentile(traced.update_ms, 50),
        "trace.overhead": traced.busy_s / statistics.median(p.busy_s for p in plain),
    })
    return attempted + traced.attempted, failed, metrics


def run(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "serve-churn":
        return run_serve(seed, seconds, trace)
    return run_batch(workload, seed, seconds, trace)


WORKLOADS = (*BATCH, "serve-churn")
