"""Property-based oracle for edge membership.

``CSRGraph.has_edges`` answers through a hashed membership filter and an
exact search of the sorted edge keys behind it; ``DeltaCSRGraph.has_edges``
counts the surviving base copies in those keys.  Both must agree with a plain Python set of ``(src, dst)`` pairs on every
pair of nodes: across parallel edges, self-loops, empty graphs, one-node
graphs and trailing isolated nodes, across delta chains (including removals
of edges the base holds several parallel copies of), and on the compacted
snapshot of every version.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_list
from repro.graph.delta import DeltaCSRGraph


@st.composite
def edge_multisets(draw):
    """``(num_nodes, edges)``: ids below a node count that may leave trailing
    isolated nodes, repeated pairs kept as parallel edges, self-loops allowed."""
    used = draw(st.integers(min_value=1, max_value=9))
    num_nodes = used + draw(st.integers(min_value=0, max_value=3))
    pairs = st.tuples(st.integers(0, used - 1), st.integers(0, used - 1))
    edges = draw(st.lists(pairs, max_size=40))
    # Repeat some edges so parallel copies are common, not a rare draw.
    repeats = draw(st.lists(st.integers(0, max(len(edges) - 1, 0)), max_size=6))
    edges += [edges[i] for i in repeats if edges]
    return num_nodes, edges


def all_pairs(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    src, dst = np.divmod(np.arange(num_nodes * num_nodes, dtype=np.int64), num_nodes)
    return src, dst


def assert_matches(graph, edges: set[tuple[int, int]]) -> None:
    src, dst = all_pairs(graph.num_nodes)
    expected = [(s, d) in edges for s, d in zip(src.tolist(), dst.tolist())]
    assert graph.has_edges(src, dst).tolist() == expected
    # Edges asked in a scrambled order with repeats, as a frontier asks.
    order = np.random.default_rng(graph.num_nodes).permutation(np.repeat(np.arange(src.size), 2))
    assert graph.has_edges(src[order], dst[order]).tolist() == [expected[i] for i in order]
    # Scalar (0-d) queries, on edges and on non-edges.
    for s, d in sorted(edges)[:2] + [(0, 0), (graph.num_nodes - 1, 0)]:
        answer = graph.has_edges(np.int64(s), np.int64(d))
        assert np.shape(answer) == () and bool(answer) == ((s, d) in edges)


@settings(max_examples=60, deadline=None)
@given(edge_multisets())
def test_csr_membership_matches_a_set_of_pairs(case):
    num_nodes, edges = case
    graph = from_edge_list(np.array(edges, dtype=np.int64).reshape(-1, 2), num_nodes=num_nodes)
    assert_matches(graph, set(edges))
    empty = np.zeros(0, dtype=np.int64)
    assert graph.has_edges(empty, empty).shape == (0,)


def test_empty_and_one_node_graphs():
    for num_nodes, edges in ((1, []), (1, [(0, 0)]), (1, [(0, 0), (0, 0)]), (4, [])):
        graph = from_edge_list(np.array(edges, dtype=np.int64).reshape(-1, 2), num_nodes=num_nodes)
        assert_matches(graph, set(edges))
        assert_matches(DeltaCSRGraph(graph), set(edges))
        assert (graph._edge_filter_cache is None) == (not edges)   # none without edges


@settings(max_examples=40, deadline=None)
@given(
    case=edge_multisets(),
    steps=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 4), st.integers(0, 3)),
        min_size=1, max_size=4,
    ),
)
def test_delta_membership_matches_a_set_of_pairs(case, steps):
    """Every version of a delta chain, and its compacted snapshot, against
    the set the chain leaves.  A removal drops every parallel copy, so
    removing an edge the base holds twice exercises the copy count."""
    num_nodes, edges = case
    base = from_edge_list(np.array(edges, dtype=np.int64).reshape(-1, 2), num_nodes=num_nodes)
    live = set(edges)
    version = DeltaCSRGraph(base)
    assert_matches(version, live)
    src, dst = all_pairs(num_nodes)
    for seed, adds, rems in steps:
        rng = np.random.default_rng(seed)
        absent = [(s, d) for s, d in zip(src.tolist(), dst.tolist()) if (s, d) not in live]
        present = sorted(live)
        additions = [absent[i] for i in rng.permutation(len(absent))[:adds]]
        removals = [present[i] for i in rng.permutation(len(present))[:rems]]
        version = version.apply_delta(
            np.array(additions, dtype=np.int64).reshape(-1, 2),
            np.array(removals, dtype=np.int64).reshape(-1, 2),
        )
        live = (live - set(removals)) | set(additions)
        assert_matches(version, live)
        snapshot = version.compact()
        if snapshot is not base:          # an empty overlay compacts to the base
            assert snapshot._edge_filter_cache is None    # built on first use
        assert_matches(snapshot, live)
        assert_matches(DeltaCSRGraph(snapshot), live)
