"""Blocked warp-kernel supersteps keep their temporaries cache-sized.

A warp partition's per-edge temporaries (weights, edge-key queries, Philox
counters, race keys) are built one walker block of at most ``_EDGE_BLOCK``
candidate edges at a time.  Page-fault counts depend on the host's
allocator, so this guards the same property deterministically: the peak
traced allocation of one Node2Vec eRVS superstep over more than a million
candidate edges stays within a fixed multiple of one block's float64
array, and far below the unblocked superstep's.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np

from repro.gpusim.counters import CostCounters
from repro.graph.csr import CSRGraph
from repro.runtime import frontier as frontier_module
from repro.runtime.engine import WalkEngine
from repro.runtime.frontier import FrontierRun, iter_supersteps
from repro.runtime.selector import FixedSelector
from repro.sampling.ervs import EnhancedReservoirSampler
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import WalkQuery

NODES = 2_048
DEGREE = 512  # NODES x DEGREE = 1,048,576 candidate edges per superstep


def _circulant_graph() -> CSRGraph:
    """Every node linked to the same spread of offsets (sorted rows)."""
    offsets = np.unique(np.random.default_rng(0).integers(1, NODES, size=4 * DEGREE))[:DEGREE]
    rows = np.arange(NODES, dtype=np.int64)[:, None]
    indices = np.sort((rows + offsets[None, :]) % NODES, axis=1).ravel()
    weights = np.random.default_rng(1).uniform(0.5, 2.0, size=indices.size)
    indptr = np.arange(0, indices.size + 1, DEGREE, dtype=np.int64)
    graph = CSRGraph(indptr=indptr, indices=indices, weights=weights)
    graph.has_edges(np.zeros(1, dtype=np.int64), indices[:1])  # build the key cache
    return graph


def _second_superstep_peak(graph: CSRGraph, block: int) -> int:
    """Peak traced bytes of the second superstep (every walker has a prev)."""
    engine = WalkEngine(
        graph=graph, spec=Node2VecSpec(a=2.0, b=0.5),
        selector=FixedSelector(EnhancedReservoirSampler()), seed=3,
    )
    run = FrontierRun(engine)
    run.admit([WalkQuery(i, i, 4) for i in range(NODES)], engine.seed)
    aggregate = CostCounters(bytes_per_weight=engine.weight_bytes)
    with mock.patch.object(frontier_module, "_EDGE_BLOCK", block):
        steps = iter_supersteps(engine, run, aggregate, {}, track_finished=False)
        next(steps)
        tracemalloc.start()
        try:
            report = next(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert int(report.active.size) == NODES
    assert int(report.counters.rng_draws.sum()) > 0
    return peak


def test_blocked_superstep_peak_is_cache_sized():
    graph = _circulant_graph()
    assert graph.num_edges >= 1 << 20
    block = frontier_module._EDGE_BLOCK
    blocked = _second_superstep_peak(graph, block)
    unblocked = _second_superstep_peak(graph, 1 << 40)
    assert blocked <= 16 * block * 8
    assert blocked * 8 <= unblocked
