"""Builders that turn edge lists / adjacency structures into CSR graphs."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, as_edge_array, as_edge_labels, as_entry_array


def from_edge_list(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    num_nodes: int | None = None,
    weights: Sequence[float] | np.ndarray | None = None,
    labels: Sequence[int] | np.ndarray | None = None,
    name: str = "",
    deduplicate: bool = False,
) -> CSRGraph:
    """Build a directed CSR graph from an iterable of ``(src, dst)`` pairs.

    * Edges are ordered by a stable sort on ``(src, dst)``, so neighbour lists
      are sorted by destination id (:meth:`CSRGraph.has_edge` binary-searches
      them) and per-edge ``weights`` and ``labels`` follow their edge.
    * Parallel copies of an edge keep their input order.
    * ``deduplicate`` keeps one copy of each edge: the first in input order,
      with that occurrence's weight and label.
    * Node ids must be integral (``3.0`` is accepted, ``2.5`` or NaN raise
      :class:`~repro.errors.GraphError`) and non-negative; labels must be
      integral in the same way.
    """
    edge_arr = as_edge_array(edges)
    num_edges = edge_arr.shape[0]
    if num_edges and edge_arr.min() < 0:
        raise GraphError("node ids must be non-negative")

    inferred = int(edge_arr.max()) + 1 if num_edges else 0
    n = inferred if num_nodes is None else int(num_nodes)
    if n < inferred:
        raise GraphError(f"num_nodes={n} is smaller than the largest node id + 1 ({inferred})")

    weight_arr = None if weights is None else np.asarray(weights, dtype=np.float64)
    label_arr = None if labels is None else as_entry_array(labels)
    if weight_arr is not None and weight_arr.shape[0] != num_edges:
        raise GraphError("weights must have one entry per edge")
    if label_arr is not None:
        if label_arr.shape[0] != num_edges:
            raise GraphError("labels must have one entry per edge")
        label_arr = as_edge_labels(label_arr, edge_arr.__getitem__)

    # dst < n, so the edge key src * n + dst (the key CSRGraph._edge_keys
    # rebuilds) orders edges by (src, dst), and a stable sort of it keeps
    # parallel copies in input order.
    nn = np.int64(n)
    key = edge_arr[:, 0] * nn
    key += edge_arr[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    if deduplicate and num_edges:
        keep = np.empty(num_edges, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        order = order[keep]
        del keep
    if weight_arr is not None:
        weight_arr = weight_arr[order]
    if label_arr is not None:
        label_arr = label_arr[order]
    del order

    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * nn)
    indices = np.remainder(key, nn, out=key)
    return CSRGraph(indptr=indptr, indices=indices, weights=weight_arr, labels=label_arr, name=name)


def from_adjacency(
    adjacency: Sequence[Sequence[int]],
    weights: Sequence[Sequence[float]] | None = None,
    name: str = "",
) -> CSRGraph:
    """Build a CSR graph from an adjacency-list representation.

    ``adjacency[v]`` is the list of out-neighbours of ``v``; ``weights`` when
    given must be parallel to it.
    """
    edges: list[tuple[int, int]] = []
    flat_weights: list[float] | None = [] if weights is not None else None
    for v, nbrs in enumerate(adjacency):
        nbr_weights = None if weights is None else weights[v]
        if nbr_weights is not None and len(nbr_weights) != len(nbrs):
            raise GraphError(f"weights for node {v} must be parallel to its adjacency list")
        for i, u in enumerate(nbrs):
            edges.append((v, int(u)))
            if flat_weights is not None and nbr_weights is not None:
                flat_weights.append(float(nbr_weights[i]))
    return from_edge_list(edges, num_nodes=len(adjacency), weights=flat_weights, name=name)


def to_undirected(graph: CSRGraph) -> CSRGraph:
    """Return the symmetric closure of ``graph`` (each edge mirrored).

    Property weights are copied onto the mirrored edges; duplicate edges are
    removed.  Edge labels are likewise mirrored when present.
    """
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees())
    dst = graph.indices
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    both_w = np.concatenate([graph.weights, graph.weights])
    both_l = None if graph.labels is None else np.concatenate([graph.labels, graph.labels])
    edges = np.stack([both_src, both_dst], axis=1)
    return from_edge_list(
        edges,
        num_nodes=graph.num_nodes,
        weights=both_w,
        labels=both_l,
        name=graph.name,
        deduplicate=True,
    )
