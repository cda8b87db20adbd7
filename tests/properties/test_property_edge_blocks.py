"""Blocked warp-kernel supersteps are invisible (hypothesis).

The superstep dispatch runs every warp-processed partition (eRVS, RVS, ITS,
ALS) over contiguous walker blocks of at most ``_EDGE_BLOCK`` candidate
edges, a longer row forming a block of its own.  Streams are keyed per
walker and counts land per slot, so the split must not be observable: with
the block shrunk to 1, 7 and 64 edges, every superstep's next nodes, its
``CounterBatch.counts`` matrix and every stream's Philox counter and draw
tally must equal the unblocked run's bit for bit.  Graphs are skewed — one
hub longer than every tested block, rows whose weights are all zero, and
dead ends — and the runs cover Node2Vec, DeepWalk and second-order
PageRank, with and without a transition cache.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_workload
from repro.gpusim.counters import CostCounters
from repro.graph.builders import from_edge_list
from repro.runtime import frontier as frontier_module
from repro.runtime.engine import WalkEngine
from repro.runtime.frontier import FrontierRun, iter_supersteps
from repro.runtime.selector import FixedSelector
from repro.sampling.alias import AliasSampler
from repro.sampling.ervs import EnhancedReservoirSampler
from repro.sampling.its import InverseTransformSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.state import WalkQuery
from tests.integration.test_golden_digest import (
    GOLDEN,
    _ba_graph,
    _digest,
    _rmat_graph,
    _session_run,
)

#: Larger than any candidate count below: the unblocked reference.
UNBLOCKED = 1 << 40

SAMPLERS = [EnhancedReservoirSampler, ReservoirSampler, InverseTransformSampler, AliasSampler]
SPECS = [lambda: Node2VecSpec(a=2.0, b=0.5), DeepWalkSpec, lambda: SecondOrderPRSpec(0.2)]


@st.composite
def skewed_runs(draw):
    """A hub-dominated weighted graph and walkers crowding onto the hub."""
    n = draw(st.integers(6, 20))
    hub_targets = draw(st.lists(st.integers(1, n - 1), min_size=65, max_size=110))
    edges = [(0, t) for t in hub_targets]
    dead = draw(st.integers(1, n - 2))  # a row with no out-edges
    zero = draw(st.integers(1, n - 1).filter(lambda v: v != dead))
    for src in range(1, n):
        if src == dead:
            continue
        targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        edges.extend((src, t) for t in targets)
    weights = [
        0.0 if src == zero else draw(st.sampled_from([0.0, 0.25, 1.0, 2.5, 3.7]))
        for src, _ in edges
    ]
    graph = from_edge_list(edges, num_nodes=n, weights=weights)
    starts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=24))
    starts += [0] * draw(st.integers(1, 6))  # several walkers on the hub
    length = draw(st.integers(1, 6))
    queries = [WalkQuery(i, s, length) for i, s in enumerate(starts)]
    return graph, queries, draw(st.integers(0, 2**16))


def trace(graph, spec, sampler, queries, seed, cached, block):
    """Per superstep: next nodes, the count matrix, stream counters/draws."""
    engine = WalkEngine(
        graph=graph, spec=spec, selector=FixedSelector(sampler), seed=seed,
        compiled=compile_workload(spec, graph), use_transition_cache=cached,
        warp_switch_overhead=True,
    )
    run = FrontierRun(engine)
    run.admit(queries, seed)
    aggregate = CostCounters(bytes_per_weight=engine.weight_bytes)
    usage: dict[str, int] = {}
    out = []
    with mock.patch.object(frontier_module, "_EDGE_BLOCK", block):
        for report in iter_supersteps(engine, run, aggregate, usage):
            streams = [run.pool.stream(i) for i in range(len(run))]
            out.append((
                report.active.tolist(),
                run.frontier.current.tolist(),
                run.frontier.active_indices().tolist(),
                report.counters.counts.tolist(),
                [s.philox_counter for s in streams],
                [s.draws for s in streams],
            ))
    return out, aggregate.as_dict(), usage


@pytest.mark.parametrize("make_spec", SPECS, ids=["node2vec", "deepwalk", "2nd_pr"])
@pytest.mark.parametrize("sampler_cls", SAMPLERS, ids=lambda c: c.name)
@settings(max_examples=12, deadline=None)
@given(case=skewed_runs(), block=st.sampled_from([1, 7, 64]), cached=st.booleans())
def test_blocks_are_invisible(make_spec, sampler_cls, case, block, cached):
    graph, queries, seed = case
    spec = make_spec()
    blocked = trace(graph, spec, sampler_cls(), queries, seed, cached, block)
    reference = trace(graph, spec, sampler_cls(), queries, seed, cached, UNBLOCKED)
    assert blocked == reference


@pytest.mark.parametrize(
    "name, run",
    [
        ("deepwalk", lambda: _session_run(_ba_graph(), DeepWalkSpec())),
        ("node2vec", lambda: _session_run(_rmat_graph(), Node2VecSpec(a=0.5, b=2.0))),
    ],
)
def test_blocked_runs_keep_the_golden_digest(name, run):
    with mock.patch.object(frontier_module, "_EDGE_BLOCK", 64):
        assert _digest(run()) == GOLDEN[name]


def test_edge_blocks_partition_greedily():
    degrees = np.array([3, 4, 10, 1, 1, 2, 9])
    with mock.patch.object(frontier_module, "_EDGE_BLOCK", 8):
        blocks = frontier_module._edge_blocks(degrees)
    # 3+4 fits, 10 is longer than the block, 1+1+2 fits, 9 stands alone.
    assert [(b.start, b.stop) for b in blocks] == [(0, 2), (2, 3), (3, 6), (6, 7)]
