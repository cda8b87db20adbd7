"""Node2Vec's on-demand hooks: exact ceilings and one Eq. 2 formula (hypothesis).

On-demand eRJS trusts two contracts of the Node2Vec family.  The weight
ceiling must bound every weight of a walker's row *exactly* in floating
point, or a walker that skips its row could sample against a bound below
its true maximum.  And ``edge_weights_batch`` over every candidate must be
``transition_weights_batch`` bit for bit, or probed candidates would weigh
differently from the full row.  Both are checked on small random graphs
with random previous nodes — none, an arbitrary node, or a neighbour of the
current node — and random positive ``a``/``b``, non-dyadic ones included,
whose reciprocals round.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.preprocess import preprocess_graph
from repro.gpusim.counters import CounterBatch
from repro.graph.builders import from_edge_list
from repro.rng.streams import StreamPool
from repro.sampling.batch import BatchStepContext, segment_max
from repro.walks.node2vec import Node2VecSpec, UnweightedNode2VecSpec
from repro.walks.second_order_pr import SecondOrderPRSpec
from repro.walks.state import WalkerFrontier, WalkQuery

MAX_NODES = 10

params = st.one_of(
    st.sampled_from([0.3, 3.7, 0.1, 7.3, 2.0, 0.5, 1.0]),
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False),
)
weights = st.one_of(
    st.sampled_from([0.1, 0.3, 1.0, 2.5, 3.7]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def frontiers(draw):
    """A random weighted graph plus walkers with random current/previous nodes."""
    n = draw(st.integers(2, MAX_NODES))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=40,
    ))
    edge_weights = draw(st.lists(weights, min_size=len(edges), max_size=len(edges)))
    graph = from_edge_list(edges, num_nodes=n, weights=edge_weights)
    sources = np.nonzero(graph.degrees() > 0)[0]
    walkers = draw(st.integers(1, 12))
    current, prev = [], []
    for _ in range(walkers):
        node = int(draw(st.sampled_from(sources)))
        kind = draw(st.sampled_from(["none", "any", "neighbour"]))
        if kind == "none":
            before = -1
        elif kind == "any":
            before = draw(st.integers(0, n - 1))
        else:
            before = int(draw(st.sampled_from(graph.neighbors(node))))
        current.append(node)
        prev.append(before)
    return graph, np.array(current), np.array(prev)


def batch_for(graph, spec, current, prev):
    k = current.size
    frontier = WalkerFrontier([WalkQuery(i, int(c), 4) for i, c in enumerate(current)])
    frontier.prev[:] = prev
    return BatchStepContext(
        graph=graph, spec=spec, frontier=frontier, walkers=np.arange(k),
        rng=StreamPool(0).batch(list(range(k))), counters=CounterBatch(k),
        slots=np.arange(k), node_aggregates=preprocess_graph(graph).aggregates,
    )


@pytest.mark.parametrize("family", [Node2VecSpec, UnweightedNode2VecSpec])
@settings(max_examples=60, deadline=None)
@given(case=frontiers(), a=params, b=params)
def test_ceiling_bounds_rows_exactly_and_edge_hook_matches(family, case, a, b):
    graph, current, prev = case
    spec = family(a=a, b=b)
    batch = batch_for(graph, spec, current, prev)

    full = spec.transition_weights_batch(graph, batch)
    ceiling = spec.weight_ceiling_batch(graph, batch)
    assert ceiling is not None
    # Exact float comparison: no tolerance.
    assert np.all(ceiling >= segment_max(full, batch.degrees))

    edges = spec.edge_weights_batch(graph, batch, batch.seg_ids, batch.flat_edges)
    assert edges.dtype == full.dtype
    assert np.array_equal(edges.view(np.uint64), full.view(np.uint64))

    # Arbitrary (walker, edge) pairs, in any order, read the same bits.
    order = np.random.default_rng(full.size).permutation(full.size)
    picked = spec.edge_weights_batch(
        graph, batch, batch.seg_ids[order], batch.flat_edges[order]
    )
    assert np.array_equal(picked.view(np.uint64), full[order].view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(case=frontiers())
def test_default_edge_hook_picks_from_full_rows(case):
    # Specs without their own edge hook (here 2nd-order PageRank) get the
    # base class's, which reads the full rows and has no ceiling.
    graph, current, prev = case
    spec = SecondOrderPRSpec()
    batch = batch_for(graph, spec, current, prev)
    full = spec.transition_weights_batch(graph, batch)
    order = np.random.default_rng(full.size).permutation(full.size)
    picked = spec.edge_weights_batch(graph, batch, batch.seg_ids[order], batch.flat_edges[order])
    assert np.array_equal(picked.view(np.uint64), full[order].view(np.uint64))
    assert spec.weight_ceiling_batch(graph, batch) is None
