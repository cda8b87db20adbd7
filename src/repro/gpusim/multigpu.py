"""Multi-GPU execution model (Fig. 15).

The paper scales FlexiWalker to four GPUs by replicating the graph on every
device and partitioning the walk queries across them — hash-based index
mapping of the start nodes, because naive range-based mapping showed lower
scalability.  This module holds the partitioning policies and the load
imbalance statistic.  The multi-device run itself is the walk engine's:
``engine.with_devices(n, partition_policy=p).run(queries)`` advances every
device's walkers through the shared step-synchronous frontier, schedules each
partition on its own device, and finishes when the slowest device does.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.executor import KernelResult

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
    :func:`occupied_load_imbalance`.
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
