"""Cross-superstep transition caching for node-only workloads.

Real GPU walk engines amortise per-node sampling state across the whole run:
C-SAW keeps per-node CDFs, Skywalker keeps per-node alias tables, and both
are only rebuilt when the transition weights actually change.  For workloads
whose ``get_weight`` is a pure function of the current node (the analyser's
``weights_node_only`` classification — DeepWalk and every other static
workload), the weights of a node are identical for every walker, superstep,
device and repeated ``engine.run`` call, so the batched engine can compute
them **once per (graph, spec)** and share the result from then on.

The cache stores three flattened per-node structures, all parallel to the
graph's CSR edge arrays, allocated when first needed and filled lazily on
first visit (a sparse-query run must not pay an O(num_edges) startup it
would never have paid, and a workload that never runs ITS or ALS never
holds CDF or alias arrays):

* the transition **weights** themselves (consulted by
  :meth:`~repro.sampling.batch.BatchStepContext.transition_weights`, i.e. by
  every kernel's weight gather), with each node's **row maximum** filled in
  the same pass (the rejection kernels probe single weights in place through
  :meth:`TransitionCache.weight_arrays` and need only the maximum besides);
* the per-node **CDF + total** pair (consulted by the ITS kernel, replacing
  its per-walker ``np.cumsum`` cores);
* the per-node **alias tables** (consulted by the ALS kernel, replacing its
  per-walker Vose builds).

Simulated cost accounting is deliberately untouched: the kernels still charge
the modeled scans/table builds at every step — on the GPU being modeled the
data *is* re-read per step — so counter totals and simulated timings are
bit-identical with the cache on or off (the parity suite enforces this).
Only host wall-clock changes.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.alias import build_alias_table
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState, WalkQuery


class TransitionCache:
    """Per-(graph, spec) flattened weight / CDF / alias-table cache.

    Attributes
    ----------
    weight_fills / cdf_fills / alias_fills:
        Number of nodes whose respective structure has been materialised so
        far (introspection for tests and the benchmark harness).
    lookups:
        Number of cache-served weight requests (gathers and in-place probes).
    """

    def __init__(self, graph: CSRGraph, spec: WalkSpec) -> None:
        self.graph = graph
        self.spec = spec
        num_nodes = graph.num_nodes
        # Edge-parallel arrays stay None until a fill needs them.
        self._weights: np.ndarray | None = None
        self._row_max = np.full(num_nodes, -np.inf, dtype=np.float64)
        self._have_weights = np.zeros(num_nodes, dtype=bool)
        #: True while every node's weights are filled (``ensure_weights``
        #: has nothing to check).
        self._weights_complete = False
        self._cdf: np.ndarray | None = None
        self._totals = np.zeros(num_nodes, dtype=np.float64)
        self._have_cdf = np.zeros(num_nodes, dtype=bool)
        self._alias_prob: np.ndarray | None = None
        self._alias_idx: np.ndarray | None = None
        self._have_alias = np.zeros(num_nodes, dtype=bool)
        self._probe = WalkerState(
            query=WalkQuery(query_id=0, start_node=0, max_length=1), current_node=0
        )
        self.weight_fills = 0
        self.cdf_fills = 0
        self.alias_fills = 0
        self.lookups = 0

    # ------------------------------------------------------------------ #
    # Weights
    # ------------------------------------------------------------------ #
    def ensure_weights(self, nodes: np.ndarray) -> None:
        """Materialise the weight slices of the given nodes (idempotent).

        Each filled node's row maximum is stored alongside (``-inf`` for a
        node without out-edges, like
        :func:`~repro.sampling.batch.segment_max`).
        """
        if self._weights_complete:
            return
        pending = np.unique(nodes[~self._have_weights[nodes]])
        if pending.size == 0:
            return
        bulk = self.spec.static_transition_weights(self.graph)
        if bulk is not None:
            # The workload can produce the whole edge array in one shot; fill
            # everything and never come back.  The array may be the graph's
            # own weights: it is only ever read (a rebind builds new ones).
            bulk = np.asarray(bulk, dtype=np.float64)
            if bulk.shape != self.graph.indices.shape:
                raise ValueError(
                    "static_transition_weights must be parallel to graph.indices"
                )
            self._weights = bulk
            indptr = self.graph.indptr
            nonempty = np.nonzero(indptr[1:] > indptr[:-1])[0]
            self._row_max[:] = -np.inf
            if nonempty.size:
                # Empty rows between two non-empty starts add no elements to
                # the preceding segment, so one reduceat is exact.
                self._row_max[nonempty] = np.maximum.reduceat(bulk, indptr[nonempty])
            self._have_weights[:] = True
            self._weights_complete = True
            self.weight_fills += int(self.graph.num_nodes)
            return
        if self._weights is None:
            self._weights = np.zeros(self.graph.num_edges, dtype=np.float64)
        indptr = self.graph.indptr
        for node in pending.tolist():
            self._probe.current_node = node
            row = self.spec.transition_weights(self.graph, self._probe)
            self._weights[indptr[node]:indptr[node + 1]] = row
            self._row_max[node] = row.max() if row.size else -np.inf
        self._have_weights[pending] = True
        self.weight_fills += int(pending.size)

    # ------------------------------------------------------------------ #
    # Versioned invalidation (dynamic graphs)
    # ------------------------------------------------------------------ #
    def rebind(self, new_graph: CSRGraph, touched_nodes: np.ndarray) -> None:
        """Scoped invalidation contract: carry untouched nodes to a new CSR.

        Called by the versioned invalidation layer
        (:mod:`repro.graph.invalidation`) when a graph delta produces a new
        compacted snapshot.  The edge-parallel arrays are remapped onto the
        new CSR layout: every node outside ``touched_nodes`` has an
        identical adjacency slice in both snapshots (same degree, same
        content — the delta did not touch it), so its materialised weights /
        CDF / alias entries are scatter-copied to their new positions and
        its ``have``-flags survive.  Touched nodes are cleared and refill
        lazily on their next visit.  The cache *object* (and its per-node
        mask/total arrays) keeps its identity, so every engine and session
        sharing it through :class:`~repro.runtime.engine.EngineCaches`
        keeps sharing it.
        """
        from repro.graph.delta import _intra_offsets

        old_graph = self.graph
        touched = np.asarray(touched_nodes, dtype=np.int64)

        def remapped(old: np.ndarray | None) -> np.ndarray | None:
            # An array never allocated holds nothing to carry.
            return None if old is None else np.zeros(new_graph.num_edges, dtype=old.dtype)

        new_weights = remapped(self._weights)
        new_cdf = remapped(self._cdf)
        new_alias_prob = remapped(self._alias_prob)
        new_alias_idx = remapped(self._alias_idx)

        def carried(have: np.ndarray) -> np.ndarray:
            mask = have.copy()
            mask[touched] = False
            return np.nonzero(mask)[0]

        def segment_positions(nodes: np.ndarray, indptr: np.ndarray) -> np.ndarray:
            deg = (indptr[nodes + 1] - indptr[nodes]).astype(np.int64)
            return np.repeat(indptr[nodes], deg) + _intra_offsets(deg)

        for nodes, copies in (
            (carried(self._have_weights), ((self._weights, new_weights),)),
            (carried(self._have_cdf), ((self._cdf, new_cdf),)),
            (
                carried(self._have_alias),
                ((self._alias_prob, new_alias_prob), (self._alias_idx, new_alias_idx)),
            ),
        ):
            if nodes.size == 0:
                continue
            old_pos = segment_positions(nodes, old_graph.indptr)
            new_pos = segment_positions(nodes, new_graph.indptr)
            for old_arr, new_arr in copies:
                new_arr[new_pos] = old_arr[old_pos]

        self._weights = new_weights
        self._cdf = new_cdf
        self._alias_prob = new_alias_prob
        self._alias_idx = new_alias_idx
        self._have_weights[touched] = False
        self._weights_complete = self._weights_complete and touched.size == 0
        self._row_max[touched] = -np.inf
        self._have_cdf[touched] = False
        self._have_alias[touched] = False
        self._totals[touched] = 0.0
        self.graph = new_graph

    def weight_arrays(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(global edge-parallel weights, row maxima of nodes)``, ensured.

        The weights hold the same values ``spec.transition_weights_batch``
        computes (node-only workloads compute per-node weights that both
        paths agree on — the spec test suite enforces it).  Kernels either
        gather their neighbour lists from them or probe single weights in
        place (``weights[indptr[v] + x]``).  The returned weight array is
        the cache's own storage: read it, never write it.
        """
        self.ensure_weights(nodes)
        if self._weights is None:  # nothing requested, nothing filled yet
            self._weights = np.zeros(self.graph.num_edges, dtype=np.float64)
        self.lookups += 1
        return self._weights, self._row_max[nodes]

    # ------------------------------------------------------------------ #
    # CDFs (ITS)
    # ------------------------------------------------------------------ #
    def ensure_cdf(self, nodes: np.ndarray) -> None:
        """Materialise CDF/total pairs, replaying the per-walker expressions.

        ``np.cumsum`` / ``ndarray.sum`` are evaluated per node slice exactly
        as the uncached ITS kernel evaluates them per walker, so the stored
        values are bit-identical to what every later step would recompute.
        """
        if self._cdf is None:
            self._cdf = np.zeros(self.graph.num_edges, dtype=np.float64)
        pending = np.unique(nodes[~self._have_cdf[nodes]])
        if pending.size == 0:
            return
        self.ensure_weights(pending)
        indptr = self.graph.indptr
        for node in pending.tolist():
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            wslice = self._weights[lo:hi]
            self._cdf[lo:hi] = np.cumsum(wslice)
            self._totals[node] = wslice.sum()
        self._have_cdf[pending] = True
        self.cdf_fills += int(pending.size)

    def cdf_arrays(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(global flattened CDF, per-request totals)`` for the given nodes."""
        self.ensure_cdf(nodes)
        return self._cdf, self._totals[nodes]

    # ------------------------------------------------------------------ #
    # Alias tables (ALS)
    # ------------------------------------------------------------------ #
    def ensure_alias(self, nodes: np.ndarray) -> None:
        """Materialise Vose alias tables for the given nodes (idempotent)."""
        if self._alias_prob is None:
            self._alias_prob = np.zeros(self.graph.num_edges, dtype=np.float64)
            self._alias_idx = np.zeros(self.graph.num_edges, dtype=np.int64)
        pending = np.unique(nodes[~self._have_alias[nodes]])
        if pending.size == 0:
            return
        self.ensure_weights(pending)
        indptr = self.graph.indptr
        for node in pending.tolist():
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            prob, alias = build_alias_table(self._weights[lo:hi])
            self._alias_prob[lo:hi] = prob
            self._alias_idx[lo:hi] = alias
        self._have_alias[pending] = True
        self.alias_fills += int(pending.size)

    def alias_arrays(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The global flattened ``(prob, alias)`` arrays, ensured for ``nodes``."""
        self.ensure_alias(nodes)
        return self._alias_prob, self._alias_idx
