"""Multi-GPU execution model (Fig. 15).

The paper scales FlexiWalker to four GPUs by replicating the graph on every
device and partitioning the walk queries across them — hash-based index
mapping of the start nodes, because naive range-based mapping showed lower
scalability.  This module holds the partitioning policies and the
:class:`MultiGPUExecutor` front-end.  The executor drives the *real* walk
engine: every device's walkers advance through the engine's shared
step-synchronous frontier, each partition is scheduled on its own device,
and the job finishes when the slowest device does.  A legacy cost-array replay
(:meth:`MultiGPUExecutor.execute`) is kept for analyses that only have
per-query times, e.g. what-if makespan studies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.executor import KernelExecutor, KernelResult

if TYPE_CHECKING:  # pragma: no cover - engine imported lazily (layering)
    from repro.runtime.engine import WalkEngine, WalkRunResult
    from repro.walks.state import WalkQuery

#: Valid values of the query-partitioning policy.
PARTITION_POLICIES = ("hash", "range", "balanced")


def occupied_load_imbalance(kernels: list[KernelResult]) -> float:
    """Max-over-mean kernel time across devices that received work.

    The Fig. 15 imbalance statistic.  Only devices with at least one query
    participate: an idle device (possible when the device count exceeds the
    query count) reflects a partitioning choice, and letting its zero time
    deflate the mean would report imbalance where every *working* device is
    perfectly balanced.  1.0 when at most one device did any work.
    """
    times = np.array([k.time_ns for k in kernels if k.num_queries > 0])
    if times.size <= 1 or times.mean() == 0:
        return 1.0
    return float(times.max() / times.mean())


def partition_queries(
    start_nodes: np.ndarray,
    num_gpus: int,
    policy: str = "hash",
    costs: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Partition query indices over ``num_gpus`` devices.

    ``"hash"`` assigns query ``i`` to GPU ``hash(start_node[i]) % num_gpus``
    (a cheap multiplicative hash), ``"range"`` slices the query array into
    contiguous equal ranges, and ``"balanced"`` greedily packs queries onto
    the least-loaded device in descending order of ``costs`` (longest
    processing time first) — a degree-aware policy when the caller passes
    start-node degrees, or an oracle when it passes measured per-query times.

    Empty partitions are valid output: when ``num_gpus`` exceeds the number
    of queries (or a policy simply maps nothing to a device) the surplus
    devices receive zero-length index arrays and idle for the whole kernel.
    Idle devices do not count toward load-imbalance statistics — see
    :attr:`MultiGPUResult.load_imbalance`.
    """
    start_nodes = np.asarray(start_nodes, dtype=np.int64)
    if num_gpus < 1:
        raise SimulationError("need at least one GPU")
    if policy == "hash":
        # Knuth multiplicative hash keeps assignment stable and well spread
        # even when start nodes are consecutive integers.
        hashed = (start_nodes * np.int64(2654435761)) & np.int64(0x7FFFFFFF)
        owner = hashed % num_gpus
    elif policy == "range":
        owner = (np.arange(start_nodes.size) * num_gpus) // max(start_nodes.size, 1)
    elif policy == "balanced":
        if costs is None:
            raise SimulationError(
                "the 'balanced' partition policy needs a per-query cost array "
                "(e.g. start-node degrees or measured per-query times)"
            )
        costs = np.asarray(costs, dtype=np.float64)
        if costs.shape != start_nodes.shape:
            raise SimulationError("costs and start_nodes must be parallel arrays")
        owner = _balanced_owners(costs, num_gpus)
    else:
        raise SimulationError(f"unknown partition policy {policy!r}")
    return [np.nonzero(owner == g)[0] for g in range(num_gpus)]


def _balanced_owners(costs: np.ndarray, num_gpus: int) -> np.ndarray:
    """Greedy longest-processing-time assignment of per-query costs to devices.

    Deterministic: queries are visited in descending cost (ties broken by
    query index) and each goes to the least-loaded device (ties broken by
    device index), so the same inputs always produce the same placement.
    """
    order = np.lexsort((np.arange(costs.size), -costs))
    owner = np.zeros(costs.size, dtype=np.int64)
    heap = [(0.0, g) for g in range(num_gpus)]
    heapq.heapify(heap)
    for i in order:
        load, gpu = heapq.heappop(heap)
        owner[i] = gpu
        heapq.heappush(heap, (load + float(costs[i]), gpu))
    return owner


@dataclass
class MultiGPUResult:
    """Outcome of a multi-GPU launch."""

    time_ns: float
    per_gpu: list[KernelResult]
    policy: str
    #: The full engine result when the launch ran the real walk engine
    #: (:meth:`MultiGPUExecutor.run`); ``None`` for cost-array replays.
    run: WalkRunResult | None = field(default=None, repr=False)

    @property
    def time_ms(self) -> float:
        return self.time_ns / 1e6

    def speedup_over(self, single_gpu_time_ns: float) -> float:
        if self.time_ns <= 0:
            return float("inf")
        return single_gpu_time_ns / self.time_ns

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean time across occupied GPUs; the loss term on AB.

        See :func:`occupied_load_imbalance` for the idle-device rule.
        """
        return occupied_load_imbalance(self.per_gpu)


class MultiGPUExecutor:
    """Runs one walk workload across several replicated-graph GPUs."""

    def __init__(self, device: DeviceSpec, num_gpus: int) -> None:
        if num_gpus < 1:
            raise SimulationError("need at least one GPU")
        self.device = device
        self.num_gpus = num_gpus

    def run(
        self,
        engine: WalkEngine,
        queries: list[WalkQuery],
        policy: str = "hash",
    ) -> MultiGPUResult:
        """Drive the real walk engine across ``num_gpus`` replicated devices.

        The engine is re-targeted (not mutated) at this executor's device
        count and the requested partition policy, then every partition runs
        the full frontier loop.  Because walker randomness is counter-based
        per query id, the walks, per-query counters and per-query simulated
        times are identical to a single-device run — only the makespan (and
        hence the Fig. 15 speedup) depends on the placement.
        """
        multi = engine.with_devices(self.num_gpus, partition_policy=policy)
        result = multi.run(queries)
        per_gpu = result.device_kernels if result.device_kernels else [result.kernel]
        return MultiGPUResult(
            time_ns=result.kernel.time_ns, per_gpu=per_gpu, policy=policy, run=result
        )

    def execute(
        self,
        per_query_ns: np.ndarray,
        start_nodes: np.ndarray,
        policy: str = "hash",
        counters: CostCounters | None = None,
    ) -> MultiGPUResult:
        """Replay precomputed per-query costs: partition, execute, take the max.

        The legacy cost-array path — no walks are recomputed, so it can
        replay placements of runs that already happened (the ``"balanced"``
        policy then packs by the *measured* per-query times).  Experiments
        that need the honest end-to-end path use :meth:`run` instead.
        """
        per_query_ns = np.asarray(per_query_ns, dtype=np.float64)
        start_nodes = np.asarray(start_nodes, dtype=np.int64)
        if per_query_ns.shape != start_nodes.shape:
            raise SimulationError("per_query_ns and start_nodes must be parallel arrays")
        partitions = partition_queries(start_nodes, self.num_gpus, policy, costs=per_query_ns)
        executor = KernelExecutor(self.device)
        results = [
            executor.execute(per_query_ns[part], counters=counters, scheduling="dynamic")
            for part in partitions
        ]
        makespan = max((r.time_ns for r in results), default=0.0)
        return MultiGPUResult(time_ns=makespan, per_gpu=results, policy=policy)
