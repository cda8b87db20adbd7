"""Node2Vec: the canonical second-order (dynamic) random walk.

Node2Vec (Grover & Leskovec, 2016) biases each step by the distance between
the candidate neighbour ``u`` and the previously visited node ``v'``
(Eq. 2 of the paper):

* ``dist(v', u) == 0`` (returning to ``v'``):      ``w = 1/a``
* ``dist(v', u) == 1`` (``u`` is a neighbour of ``v'``): ``w = 1``
* ``dist(v', u) == 2`` (otherwise):                 ``w = 1/b``

The paper evaluates with ``a = 2.0`` and ``b = 0.5``.  The *unweighted*
variant uses ``h = 1`` for every edge, which makes the maximum transition
weight a compile-time constant (``max(1, 1/a, 1/b)``) — the PER_KERNEL case of
Flexi-Compiler; the *weighted* variant multiplies by the property weight and
needs a PER_STEP bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import WalkSpecError
from repro.graph.csr import CSRGraph
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import BatchStepContext


def _prev_degrees(graph: CSRGraph, prev: np.ndarray) -> np.ndarray:
    """Out-degree of each walker's previous node (0 where there is none)."""
    safe = np.where(prev >= 0, prev, 0)
    degrees = graph.indptr[safe + 1] - graph.indptr[safe]
    return np.where(prev >= 0, degrees, 0)


def _second_order_bias(graph: CSRGraph, batch: BatchStepContext) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate-edge second-order classification for the whole frontier.

    Returns ``(has_prev, linked)``, both parallel to ``batch.neighbors_flat``:
    ``has_prev`` marks edges of walkers that have a previous node, ``linked``
    marks candidates that are themselves neighbours of that previous node —
    the ``dist(v', u) == 1`` test, answered for the whole frontier by one
    :meth:`~repro.graph.csr.CSRGraph.has_edges` call: the graph's hashed
    membership filter rules out most non-neighbours, and a binary search
    over the sorted edge keys verifies the rest.
    """
    seg = batch.seg_ids
    prev_per_edge = batch.prev[seg]
    has_prev = prev_per_edge >= 0
    linked = np.zeros(prev_per_edge.size, dtype=bool)
    check = np.nonzero(has_prev)[0]
    if check.size:
        linked[check] = graph.has_edges(
            prev_per_edge[check], batch.neighbors_flat[check]
        )
    return has_prev, linked


class Node2VecSpec(WalkSpec):
    """Node2Vec walk specification with return parameter ``a`` and in-out ``b``."""

    name = "node2vec"
    is_dynamic = True
    default_walk_length = 80
    #: Whether the property weight ``h`` multiplies the Eq. 2 factor.
    weighted = True

    def __init__(self, a: float = 2.0, b: float = 0.5) -> None:
        if a <= 0 or b <= 0:
            raise WalkSpecError("Node2Vec parameters a and b must be positive")
        self.a = float(a)
        self.b = float(b)
        super().__init__()

    # ------------------------------------------------------------------ #
    # User code analysed by Flexi-Compiler (paper Fig. 9a)
    # ------------------------------------------------------------------ #
    def get_weight(self, graph: CSRGraph, state: WalkerState, edge: int) -> float:
        h_e = graph.weights[edge]
        post = graph.indices[edge]
        if state.prev_node < 0:
            return h_e
        if post == state.prev_node:
            return h_e / self.a
        if not graph.has_edge(state.prev_node, post):
            return h_e / self.b
        return h_e

    # ------------------------------------------------------------------ #
    def transition_weights(self, graph: CSRGraph, state: WalkerState) -> np.ndarray:
        """Vectorised Eq. 2: classify every neighbour against ``prev_node``."""
        neighbors = graph.neighbors(state.current_node)
        if state.prev_node < 0:
            w = np.ones(neighbors.size, dtype=np.float64)
        else:
            prev_neighbors = graph.neighbors(state.prev_node)
            w = np.full(neighbors.size, 1.0 / self.b, dtype=np.float64)
            if prev_neighbors.size:
                # Neighbour lists are sorted, so membership is a binary search.
                pos = np.searchsorted(prev_neighbors, neighbors)
                pos = np.clip(pos, 0, prev_neighbors.size - 1)
                linked = prev_neighbors[pos] == neighbors
                w[linked] = 1.0
            w[neighbors == state.prev_node] = 1.0 / self.a
        if self.weighted:
            w *= graph.edge_weights(state.current_node)
        return w

    def transition_weights_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray:
        """Frontier-wide Eq. 2: :meth:`edge_weights_batch` over every candidate."""
        return self.edge_weights_batch(graph, batch, batch.seg_ids, batch.flat_edges)

    def edge_weights_batch(
        self,
        graph: CSRGraph,
        batch: BatchStepContext,
        walkers: np.ndarray,
        edges: np.ndarray,
    ) -> np.ndarray:
        """Eq. 2 for arbitrary ``(walker, edge)`` pairs — the one batched formula.

        The ``dist(v', u) == 1`` test of every pair whose walker has a
        previous node is one :meth:`~repro.graph.csr.CSRGraph.has_edges`
        call: the membership filter rules out most non-edges, and only the
        pairs it passes are binary-searched in the sorted edge keys.
        """
        prev = batch.prev[walkers]
        post = graph.indices[edges]
        has_prev = prev >= 0
        if has_prev.all():
            # Every superstep after the first: no pair needs filtering.
            w = np.where(graph.has_edges(prev, post), 1.0, 1.0 / self.b)
            w[post == prev] = 1.0 / self.a
        else:
            w = np.full(edges.size, 1.0 / self.b, dtype=np.float64)
            check = np.nonzero(has_prev)[0]
            if check.size:
                w[check[graph.has_edges(prev[check], post[check])]] = 1.0
            w[has_prev & (post == prev)] = 1.0 / self.a
            w[~has_prev] = 1.0
        if self.weighted:
            w *= graph.weights[edges]
        return w

    def weight_ceiling_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray | None:
        """Exact ceiling: the largest Eq. 2 factor times the row's largest ``h``.

        Uses the float operations of :meth:`edge_weights_batch` (a factor
        times ``h``); rounding is monotone, so ``factor · h <= factor ·
        max h`` holds exactly.  The row maximum of ``h`` is the compiler's
        per-node ``weights_max`` aggregate; without it there is no ceiling.
        """
        if not self.weighted:
            h_max = np.ones(batch.size, dtype=np.float64)
        else:
            aggregates = batch.node_aggregates
            if aggregates is None or "weights_max" not in aggregates:
                return None
            h_max = aggregates["weights_max"][batch.current]
        ceiling = (1.0 / self.b) * h_max
        np.maximum(ceiling, 1.0 * h_max, out=ceiling)
        np.maximum(ceiling, (1.0 / self.a) * h_max, out=ceiling)
        return ceiling

    # ------------------------------------------------------------------ #
    # Simulator cost hooks: the dist(v', u) check is a membership probe.
    # ------------------------------------------------------------------ #
    def probe_cost_words(self, graph: CSRGraph, state: WalkerState) -> int:
        if state.prev_node < 0:
            return 0
        d_prev = graph.degree(state.prev_node)
        return int(np.ceil(np.log2(d_prev + 2)))

    def scan_cost_words(self, graph: CSRGraph, state: WalkerState) -> int:
        if state.prev_node < 0:
            return 0
        return graph.degree(state.prev_node)

    def probe_cost_words_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray:
        prev = batch.prev
        d_prev = _prev_degrees(graph, prev)
        words = np.ceil(np.log2(d_prev + 2)).astype(np.int64)
        return np.where(prev < 0, 0, words)

    def scan_cost_words_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray:
        return _prev_degrees(graph, batch.prev)

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info.update({"a": self.a, "b": self.b})
        return info


class UnweightedNode2VecSpec(Node2VecSpec):
    """Node2Vec with the property weights ignored (``h = 1`` for every edge).

    This is the paper's *unweighted Node2Vec* configuration: because no
    edge-indexed data reaches the return value, the maximum transition weight
    is the compile-time constant ``max(1, 1/a, 1/b)`` — the PER_KERNEL case of
    Flexi-Compiler, and the only dynamic configuration NextDoor supports
    natively.
    """

    name = "node2vec_unweighted"
    weighted = False

    # ------------------------------------------------------------------ #
    # User code analysed by Flexi-Compiler: note no graph.weights[edge] read.
    # ------------------------------------------------------------------ #
    def get_weight(self, graph: CSRGraph, state: WalkerState, edge: int) -> float:
        post = graph.indices[edge]
        if state.prev_node < 0:
            return 1.0
        if post == state.prev_node:
            return 1.0 / self.a
        if not graph.has_edge(state.prev_node, post):
            return 1.0 / self.b
        return 1.0
