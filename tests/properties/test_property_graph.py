"""Property-based tests for the graph substrate (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_list, to_undirected
from repro.graph.csr import CSRGraph
from repro.graph.weights import dequantize_weights_int8, quantize_weights_int8

edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    min_size=1,
    max_size=60,
)


def reference_build(edges, num_nodes, weights, labels, deduplicate) -> CSRGraph:
    """The two-array build: lexsort by (src, dst), dedupe on both arrays,
    row pointers by scatter-add.  ``from_edge_list`` must match it bit for bit."""
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = edge_arr[:, 0], edge_arr[:, 1]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    weights = None if weights is None else np.asarray(weights, dtype=np.float64)[order]
    labels = None if labels is None else np.asarray(labels, dtype=np.int64)[order]
    if deduplicate and src.size:
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
        weights = None if weights is None else weights[keep]
        labels = None if labels is None else labels[keep]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRGraph(indptr=indptr, indices=dst, weights=weights, labels=labels)


@st.composite
def weighted_edge_lists(draw):
    """Edge lists over few nodes (so parallel edges and self loops are
    common), possibly empty, with optional weights and labels and optional
    isolated trailing nodes."""
    top = draw(st.integers(0, 7))
    edges = draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)), max_size=40))
    num_nodes = top + 1 + draw(st.integers(0, 3))
    k = len(edges)
    weights = draw(st.none() | st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]), min_size=k, max_size=k))
    labels = draw(st.none() | st.lists(st.integers(0, 4), min_size=k, max_size=k))
    return edges, num_nodes, weights, labels


@settings(max_examples=120, deadline=None)
@given(case=weighted_edge_lists(), deduplicate=st.booleans())
def test_build_matches_the_reference_build_bit_for_bit(case, deduplicate):
    edges, num_nodes, weights, labels = case
    built = from_edge_list(
        edges, num_nodes=num_nodes, weights=weights, labels=labels, deduplicate=deduplicate
    )
    ref = reference_build(edges, num_nodes, weights, labels, deduplicate)
    for field in ("indptr", "indices", "weights", "labels"):
        got, want = getattr(built, field), getattr(ref, field)
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), field


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists)
def test_parallel_copies_keep_input_order_and_dedupe_keeps_the_first(edges):
    # Weight i and label i tag input edge i, so each row's tags show which
    # input copy landed where.
    tags = np.arange(len(edges))
    graph = from_edge_list(edges, num_nodes=16, weights=tags.astype(float), labels=tags)
    deduped = from_edge_list(edges, num_nodes=16, weights=tags.astype(float), labels=tags, deduplicate=True)
    copies: dict[tuple[int, int], list[int]] = {}
    for i, edge in enumerate(edges):
        copies.setdefault(edge, []).append(i)
    for (v, u), positions in copies.items():
        lo, hi = graph.edge_slice(v)
        row = graph.labels[lo:hi][graph.indices[lo:hi] == u]
        assert row.tolist() == positions
        lo, hi = deduped.edge_slice(v)
        kept = deduped.indices[lo:hi] == u
        assert deduped.labels[lo:hi][kept].tolist() == [positions[0]]
        assert deduped.weights[lo:hi][kept].tolist() == [float(positions[0])]


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists)
def test_csr_preserves_edge_multiset(edges):
    graph = from_edge_list(edges, num_nodes=16)
    rebuilt = []
    for v in range(graph.num_nodes):
        rebuilt.extend((v, int(u)) for u in graph.neighbors(v))
    assert sorted(rebuilt) == sorted(edges)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists)
def test_degrees_sum_to_edge_count(edges):
    graph = from_edge_list(edges, num_nodes=16)
    assert int(graph.degrees().sum()) == graph.num_edges
    assert int(graph.in_degrees().sum()) == graph.num_edges


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists)
def test_neighbor_lists_are_sorted(edges):
    graph = from_edge_list(edges, num_nodes=16)
    for v in range(graph.num_nodes):
        nbrs = graph.neighbors(v)
        assert np.all(np.diff(nbrs) >= 0)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists)
def test_has_edge_agrees_with_neighbor_lists(edges):
    graph = from_edge_list(edges, num_nodes=16, deduplicate=True)
    present = {(v, int(u)) for v in range(graph.num_nodes) for u in graph.neighbors(v)}
    for v in range(graph.num_nodes):
        for u in range(graph.num_nodes):
            assert graph.has_edge(v, u) == ((v, u) in present)


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists)
def test_to_undirected_is_symmetric(edges):
    graph = to_undirected(from_edge_list(edges, num_nodes=16, deduplicate=True))
    for v in range(graph.num_nodes):
        for u in graph.neighbors(v):
            assert graph.has_edge(int(u), v)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=100)
)
def test_int8_quantisation_error_bounded_by_half_step(weights):
    w = np.asarray(weights)
    codes, scale = quantize_weights_int8(w)
    recovered = dequantize_weights_int8(codes, scale)
    assert np.all(np.abs(recovered - w) <= scale / 2 + 1e-9)
