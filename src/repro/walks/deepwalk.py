"""DeepWalk: the static-walk reference workload.

DeepWalk (Perozzi et al., 2014) chooses every next node purely from the edge
property weights — ``w(v, u) = 1`` — so its transition distribution per node
never changes.  It is not one of the paper's evaluated dynamic workloads, but
it is the natural correctness/throughput reference: static frameworks
precompute per-node tables for it, and every dynamic kernel must reproduce its
distribution exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sampling.batch import BatchStepContext


class DeepWalkSpec(WalkSpec):
    """Static uniform-over-property-weights walk."""

    name = "deepwalk"
    is_dynamic = False
    default_walk_length = 80

    def get_weight(self, graph: CSRGraph, state: WalkerState, edge: int) -> float:
        h_e = graph.weights[edge]
        return h_e

    def transition_weights(self, graph: CSRGraph, state: WalkerState) -> np.ndarray:
        return graph.edge_weights(state.current_node).astype(np.float64)

    def transition_weights_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray:
        return graph.weights[batch.flat_edges].astype(np.float64)

    def static_transition_weights(self, graph: CSRGraph) -> np.ndarray:
        """Whole-graph weights in one pass (enables bulk transition caching):
        the graph's own property-weight array, not a copy."""
        return np.asarray(graph.weights, dtype=np.float64)
