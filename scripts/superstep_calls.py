#!/usr/bin/env python
"""Deterministic count of the calls one scheduler superstep makes.

Drives the ``serve-churn`` benchmark workload (perfbench's inputs and
set-up: a 20k-node BA graph, two DeepWalk tenants, an edge delta every 60
requests) through one :class:`~repro.service.ServiceScheduler` in a closed
loop: the open-loop clock is replaced by a fixed ``--tick-ms`` per tick, so
every run of one commit executes the same ticks and two commits can be
compared tick for tick.  Only the ``scheduler.tick()`` calls are counted,
with ``sys.setprofile`` (no timers): Python-level calls, C-level calls
(builtins and numpy functions and methods) and the top call sites.  Unlike
CPU time, the counts are free of host noise.

``--wave A B`` counts a standalone wave instead (:func:`wave_calls`: one
``submit`` of every walker, ``stream``, ``collect``) at ``A`` and at ``B``
walkers and prints the calls each extra walker adds: the per-walker Python
work on the batch path.

Usage::

    PYTHONPATH=src python scripts/superstep_calls.py                 # 1,000 requests
    PYTHONPATH=src python scripts/superstep_calls.py --requests 120 --top 30
    PYTHONPATH=src python scripts/superstep_calls.py --wave 1000 4000
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro import WalkQuery  # noqa: E402

#: Source directory whose Python functions count as "program" calls.
PROGRAM_DIR = str(REPO_ROOT / "src" / "repro")


@dataclass
class CallCounts:
    """Calls observed inside ``scheduler.tick()`` over one closed-loop pass."""

    ticks: int = 0
    steps: int = 0
    python: int = 0
    program: int = 0  # Python-level calls into src/repro
    c: int = 0
    sites: Counter = field(default_factory=Counter)
    fusion_groups: int = 0
    sim_ms: float = 0.0
    digest: str = ""

    def per_tick(self, calls: int) -> float:
        return calls / max(self.ticks, 1)

    def summary(self) -> dict[str, float]:
        return {
            "ticks": self.ticks,
            "steps_per_tick": self.per_tick(self.steps),
            "python_calls_per_tick": self.per_tick(self.python),
            "program_calls_per_tick": self.per_tick(self.program),
            "c_calls_per_tick": self.per_tick(self.c),
            "calls_per_tick": self.per_tick(self.python + self.c),
            "fusion_groups": self.fusion_groups,
            "sim_ms": self.sim_ms,
        }


def _site(frame, event: str, arg) -> str:
    if event == "call":
        code = frame.f_code
        path = code.co_filename
        if path.startswith(str(REPO_ROOT)):
            path = path[len(str(REPO_ROOT)) + 1:]
        path = path.rpartition("site-packages/")[2]
        return f"{path}:{code.co_firstlineno}:{code.co_name}"
    owner = getattr(arg, "__self__", None)
    name = getattr(arg, "__qualname__", None) or getattr(arg, "__name__", repr(arg))
    if owner is not None and not isinstance(owner, type) and "." not in name:
        name = f"{type(owner).__name__}.{name}"
    return f"<c> {name}"


class _Profiler:
    def __init__(self, counts: CallCounts) -> None:
        self.counts = counts

    def __call__(self, frame, event: str, arg) -> None:
        if event == "call":
            self.counts.python += 1
            if frame.f_code.co_filename.startswith(PROGRAM_DIR):
                self.counts.program += 1
        elif event == "c_call":
            self.counts.c += 1
        else:
            return
        self.counts.sites[_site(frame, event, arg)] += 1


def closed_loop_pass(requests: int = 1000, seed: int = 4, tick_ms: float = 0.6) -> CallCounts:
    """One closed-loop ``serve-churn`` pass, counting the calls of every tick."""
    import workloads  # perfbench/workloads.py: the benchmark's own inputs

    inp = workloads.serve_inputs(seed, requests)
    (service, scheduler, current), _ = workloads.serve_setup(inp)
    counts = CallCounts()
    profiler = _Profiler(counts)
    opened = list(current.values())
    retiring = []
    deltas = iter(inp.deltas)
    tick_s = tick_ms / 1e3
    clock = 0.0
    next_qid = 0
    i = 0
    count = inp.due.size
    while i < count or scheduler.pending:
        while i < count and inp.due[i] <= clock:
            if i and i % workloads.DELTA_EVERY == 0:
                delta = next(deltas)
                service.apply_delta(delta.additions, delta.removals, weights=delta.weights)
                retiring.extend(current.values())
                for t in workloads.TENANTS:
                    current[t.name] = scheduler.session(t.spec, workloads.CONFIG, tenant=t.name)
                    opened.append(current[t.name])
            tenant = workloads.TENANTS[inp.tenant[i]]
            queries = [WalkQuery(next_qid + j, int(s), tenant.length)
                       for j, s in enumerate(inp.starts[i])]
            next_qid += len(queries)
            current[tenant.name].submit(queries, options=tenant.options)
            i += 1
        if not scheduler.pending:
            clock = max(clock, float(inp.due[i]))
            continue
        sys.setprofile(profiler)
        try:
            steps = scheduler.tick()
        finally:
            sys.setprofile(None)
        counts.steps += steps
        counts.ticks += 1
        clock += tick_s
        for session in [s for s in retiring if s.pending == 0]:
            scheduler.detach(session)
            session.close()
            retiring.remove(session)
    counts.fusion_groups = scheduler.describe()["fusion_groups"]
    for session in [*retiring, *current.values()]:
        scheduler.detach(session)
    h = hashlib.sha256()
    for session in opened:
        if session.completed:
            result = session.collect()
            counts.sim_ms += result.kernel.total_work_ns / 1e6
            h.update(workloads.digest(result).encode())
        session.close()
    counts.digest = h.hexdigest()
    return counts


def wave_calls(walkers: int, seed: int = 4, nodes: int = 5_000, length: int = 20) -> CallCounts:
    """Calls of one standalone wave of ``walkers`` DeepWalk walks.

    The graph is a weighted ``nodes``-node BA graph; a 100-walker wave warms
    the service first, so the counted wave (``submit`` of every walker,
    ``stream``, ``collect``) pays no one-off set-up.  ``ticks`` counts the
    streamed chunks.  Walkers up to the device's lane count (4,032) keep the
    executor's schedule an identity, so the difference between two walker
    counts is the per-walker host work.
    """
    import numpy as np

    from repro import DeepWalkSpec, FlexiWalkerConfig, WalkService
    from repro.graph.generators import barabasi_albert_graph
    from repro.graph.weights import uniform_weights

    graph = barabasi_albert_graph(nodes, 4, seed=seed)
    service = WalkService(graph.with_weights(uniform_weights(graph, seed=seed)))
    config = FlexiWalkerConfig(seed=seed)
    starts = np.random.default_rng(seed).integers(0, nodes, walkers + 100).tolist()
    warm = service.session(DeepWalkSpec(), config)
    warm.submit([WalkQuery(i, s, length) for i, s in enumerate(starts[walkers:])])
    warm.collect()
    warm.close()

    session = service.session(DeepWalkSpec(), config)
    queries = [WalkQuery(i, s, length) for i, s in enumerate(starts[:walkers])]
    counts = CallCounts()
    profiler = _Profiler(counts)
    sys.setprofile(profiler)
    try:
        session.submit(queries)
        for _ in session.stream():
            counts.ticks += 1
        result = session.collect()
    finally:
        sys.setprofile(None)
    session.close()
    counts.steps = result.total_steps
    counts.sim_ms = result.kernel.total_work_ns / 1e6
    counts.digest = hashlib.sha256(
        result.paths.matrix.tobytes() + result.paths.lengths.tobytes()
    ).hexdigest()
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--tick-ms", type=float, default=0.6,
                        help="simulated clock advance per tick (closed loop)")
    parser.add_argument("--top", type=int, default=25, help="call sites to list")
    parser.add_argument("--wave", type=int, nargs=2, metavar=("A", "B"),
                        help="count standalone waves of A and B walkers instead")
    args = parser.parse_args(argv)

    if args.wave:
        low, high = (wave_calls(walkers) for walkers in args.wave)
        extra = args.wave[1] - args.wave[0]
        for name in ("python", "program", "c"):
            a, b = getattr(low, name), getattr(high, name)
            print(f"{name:>8} calls: {a} at {args.wave[0]}, {b} at {args.wave[1]} walkers; "
                  f"{(b - a) / extra:.4f} per walker")
        print(f"\ntop {args.top} call sites (extra calls per walker):")
        growth = high.sites.copy()
        growth.subtract(low.sites)
        for site, calls in growth.most_common(args.top):
            print(f"  {calls / extra:8.4f}  {site}")
        return 0

    counts = closed_loop_pass(args.requests, args.seed, args.tick_ms)
    for name, value in counts.summary().items():
        print(f"{name:>24}: {value:.6g}" if isinstance(value, float) else f"{name:>24}: {value}")
    print(f"{'digest':>24}: {counts.digest[:16]}")
    print(f"\ntop {args.top} call sites (calls per tick):")
    for site, calls in counts.sites.most_common(args.top):
        print(f"  {counts.per_tick(calls):8.2f}  {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
