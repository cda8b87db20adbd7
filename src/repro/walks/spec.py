"""The gather-move-update walk specification interface.

Users of FlexiWalker implement three functions (Section 4.2):

* ``init``        — set workload-specific hyperparameters,
* ``get_weight``  — compute the transition weight of one edge,
* ``update``      — update query-specific parameters after each step.

``get_weight`` receives the graph, the walker state and the *global edge
index* of the candidate edge, and returns the full transition weight
``w̃(v, u) = w(v, u) · h(v, u)`` — exactly the contract of the CUDA API in
Fig. 9a.  Flexi-Compiler statically analyses the Python source of this method
to generate the max/sum estimation helpers used by eRJS and the runtime cost
model.

For execution speed, a spec may also override ``transition_weights`` with a
vectorised implementation that returns the weights of every out-edge of the
current node at once; the default implementation simply loops over
``get_weight``.  Both paths must agree — the test suite checks this for every
built-in workload.

Two optional batched hooks let eRJS read only the candidates its trials
probe instead of every weight of a walker's row:

* ``weight_ceiling_batch`` — a per-walker upper bound on every weight
  ``transition_weights_batch`` can return for that walker's row.  It is an
  *exact float* bound (``weight <= ceiling`` with no tolerance), so a walker
  whose compiler hint is at or above it provably samples against the hint.
* ``edge_weights_batch`` — the weights of arbitrary ``(walker, edge)``
  pairs, equal *bit for bit* to the matching entries of
  ``transition_weights_batch``.

Together they keep an on-demand walker's path, counters and simulated time
identical to the full-row kernel's.  The default ceiling ``None`` keeps a
spec on the full-row path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.walks.state import WalkerFrontier, WalkerState

if TYPE_CHECKING:  # pragma: no cover - sampling imports walks, not vice versa
    from repro.sampling.batch import BatchStepContext


class WalkSpec(ABC):
    """Base class for dynamic random walk workloads.

    Attributes
    ----------
    name:
        Workload tag used in result tables.
    is_dynamic:
        True when the transition weights depend on walker state (everything
        except DeepWalk here).
    default_walk_length:
        The walk length the paper uses for this workload (80, or the schema
        depth for MetaPath).
    """

    name: str = "walk"
    is_dynamic: bool = True
    default_walk_length: int = 80

    def __init__(self) -> None:
        self.init()

    # ------------------------------------------------------------------ #
    # The user-facing gather-move-update API
    # ------------------------------------------------------------------ #
    def init(self) -> None:  # noqa: B027 (optional override, deliberately empty)
        """Initialise workload-specific hyperparameters (optional override)."""

    @abstractmethod
    def get_weight(self, graph: CSRGraph, state: WalkerState, edge: int) -> float:
        """Transition weight of the edge at global edge index ``edge``."""

    def update(self, graph: CSRGraph, state: WalkerState, next_node: int) -> None:  # noqa: B027
        """Update query-specific parameters after a step (optional override)."""

    # ------------------------------------------------------------------ #
    # Framework-facing helpers
    # ------------------------------------------------------------------ #
    def transition_weights(self, graph: CSRGraph, state: WalkerState) -> np.ndarray:
        """Weights of every out-edge of the current node (vectorised hook).

        The default implementation loops over :meth:`get_weight`; built-in
        workloads override it with numpy code.  Either way the result is
        parallel to ``graph.neighbors(state.current_node)``.
        """
        start, stop = graph.edge_slice(state.current_node)
        return np.array(
            [self.get_weight(graph, state, e) for e in range(start, stop)],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------ #
    # Batched (frontier) hooks — vectorised across walkers
    # ------------------------------------------------------------------ #
    def transition_weights_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray:
        """Weights of every candidate edge of every walker in the frontier.

        Returns one flat ``float64`` array parallel to
        ``batch.neighbors_flat`` (walker ``i``'s weights occupy
        ``batch.offsets[i]:batch.offsets[i + 1]``).  Built-in workloads
        override this with cross-walker numpy code; the default loops over
        :meth:`transition_weights` per walker, which keeps any custom
        workload exact in the batched engine.
        """
        if batch.size == 0:
            return np.zeros(0, dtype=np.float64)
        parts = [
            self.transition_weights(graph, batch.state(i)) for i in range(batch.size)
        ]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.float64)

    def edge_weights_batch(
        self,
        graph: CSRGraph,
        batch: BatchStepContext,
        walkers: np.ndarray,
        edges: np.ndarray,
    ) -> np.ndarray:
        """Weights of arbitrary ``(walker, candidate edge)`` pairs.

        ``walkers`` holds batch-local walker indices and ``edges``, parallel
        to it, global indices of edges out of those walkers' current nodes.
        Each returned weight must equal, bit for bit, the entry
        :meth:`transition_weights_batch` returns for the same walker and
        edge: on-demand eRJS evaluates only the candidates its trials probe
        through this hook and must sample exactly what the full-row path
        samples.  The default meets the contract by construction — it
        computes the rows of the walkers involved and picks the entries —
        so an override pays off only when it evaluates single edges.
        """
        rows, local = np.unique(walkers, return_inverse=True)
        sub = batch.subset(rows)
        weights = self.transition_weights_batch(graph, sub)
        return weights[sub.offsets[local] + (edges - sub.edge_start[local])]

    def weight_ceiling_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray | None:
        """Per-walker upper bound on every weight of the walker's row.

        Returns one ``float64`` per walker such that every weight
        :meth:`transition_weights_batch` returns in walker ``i``'s segment
        is ``<= ceiling[i]`` as compared in floating point — an exact bound,
        not one that holds up to rounding.  A hinted eRJS walker whose
        ceiling is at most its hint samples against the hint without the
        full row, probing candidates through :meth:`edge_weights_batch`.
        The default ``None`` (no ceiling) keeps every walker on the full-row
        path.
        """
        return None

    def static_transition_weights(self, graph: CSRGraph) -> np.ndarray | None:
        """Full-edge transition weights, for state-free workloads only.

        When ``get_weight`` never reads walker state, the weight of an edge
        is a constant of the (graph, spec) pair; a workload may return the
        whole array (parallel to ``graph.indices``) here so the runtime's
        :class:`~repro.sampling.transition_cache.TransitionCache` fills in
        one vectorised pass instead of probing node by node.  The cache
        only reads the array, so a workload whose weights are the edge
        property weights may return ``graph.weights`` itself.  The default
        ``None`` keeps the per-node fill path; state-dependent workloads are
        never asked.
        """
        return None

    def probe_cost_words_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray:
        """Vectorised :meth:`probe_cost_words` (one entry per walker)."""
        if type(self).probe_cost_words is WalkSpec.probe_cost_words:
            return np.zeros(batch.size, dtype=np.int64)
        return np.array(
            [self.probe_cost_words(graph, batch.state(i)) for i in range(batch.size)],
            dtype=np.int64,
        )

    def scan_cost_words_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray:
        """Vectorised :meth:`scan_cost_words` (one entry per walker)."""
        if type(self).scan_cost_words is WalkSpec.scan_cost_words:
            return np.zeros(batch.size, dtype=np.int64)
        return np.array(
            [self.scan_cost_words(graph, batch.state(i)) for i in range(batch.size)],
            dtype=np.int64,
        )

    def update_batch(
        self,
        graph: CSRGraph,
        frontier: WalkerFrontier,
        walkers: np.ndarray,
        next_nodes: np.ndarray,
    ) -> None:
        """Apply :meth:`update` for every advancing walker of a superstep.

        Runs *before* the frontier arrays advance, exactly like the scalar
        engine calls ``update`` before ``state.advance``.  When ``update`` is
        not overridden this is a no-op, so workloads without per-step
        bookkeeping never materialise object-form walker state.
        """
        if type(self).update is WalkSpec.update:
            return
        for walker, nxt in zip(walkers, next_nodes, strict=False):
            self.update(graph, frontier.state_view(int(walker)), int(nxt))

    # ------------------------------------------------------------------ #
    # Cost hooks consumed by the GPU simulator
    # ------------------------------------------------------------------ #
    def probe_cost_words(self, graph: CSRGraph, state: WalkerState) -> int:
        """Extra uncoalesced words read to evaluate ``get_weight`` for ONE edge.

        Rejection-style kernels evaluate the dynamic weight of a single probed
        candidate, which for second-order workloads involves a membership
        check against the previous node's adjacency list (a binary search).
        Static workloads cost nothing beyond the property-weight read.
        """
        return 0

    def scan_cost_words(self, graph: CSRGraph, state: WalkerState) -> int:
        """Extra coalesced words read to evaluate the weights of ALL out-edges.

        Scan-style kernels (reservoir, alias, ITS) evaluate every neighbour's
        weight in one pass; second-order workloads can amortise the
        membership checks with a merge join over the previous node's sorted
        adjacency list, so the extra traffic is that list — read once per
        step, not once per neighbour.
        """
        return 0

    def describe(self) -> dict[str, object]:
        """Human-readable hyperparameter dump (used in experiment logs)."""
        return {"name": self.name, "dynamic": self.is_dynamic}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class UniformWalkSpec(WalkSpec):
    """A trivially static walk: every edge has weight ``h`` (w = 1).

    Useful as a correctness reference — every sampler must reproduce the
    property-weight distribution exactly on this spec.
    """

    name = "uniform"
    is_dynamic = False

    def get_weight(self, graph: CSRGraph, state: WalkerState, edge: int) -> float:
        h_e = graph.weights[edge]
        return h_e

    def transition_weights(self, graph: CSRGraph, state: WalkerState) -> np.ndarray:
        return graph.edge_weights(state.current_node).astype(np.float64)

    def transition_weights_batch(self, graph: CSRGraph, batch: BatchStepContext) -> np.ndarray:
        return graph.weights[batch.flat_edges].astype(np.float64)

    def static_transition_weights(self, graph: CSRGraph) -> np.ndarray:
        return np.asarray(graph.weights, dtype=np.float64)
