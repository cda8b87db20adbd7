"""Versioned cache-invalidation contracts for dynamic graphs.

Every derived structure the engine layers built on top of a frozen
:class:`~repro.graph.csr.CSRGraph` is a pure function of the graph (and,
usually, one workload): the cross-superstep
:class:`~repro.sampling.transition_cache.TransitionCache`, the per-node
compiler :class:`~repro.runtime.frontier.NodeHintTables`, the CSR-level
topology caches (``_edge_key_cache`` / ``_edge_filter_cache`` /
``_in_degree_cache``), the
:class:`~repro.graph.sharded.ShardedCSRGraph` decompositions and their ghost
caches.  When a :class:`~repro.graph.delta.DeltaCSRGraph` folds a delta into
a new version, all of them go stale — but only *scoped* to the touched-node
set the delta reports, because every per-node entry is a pure function of
that node's own adjacency slice.

This module is the single place those contracts are written down and
executed.  Per structure:

* **TransitionCache** — edge-parallel arrays are remapped onto the new CSR
  layout (untouched nodes keep their materialised values and their
  ``have``-flags; touched nodes are cleared and refill lazily).  The cache
  *object* survives the delta — sibling sessions sharing it keep sharing it.
* **NodeHintTables** — per-node arrays are fixed-size, so the repair is
  scoped to the touched rows: a table filled when built (the normal case)
  re-fills them with one vectorised replay against the new version, so it
  stays complete and equal to a fresh build; a lazy table — one whose
  replay bails, e.g. on a zero-degree node — clears them to "not computed"
  and refills them on first visit.  Untouched rows (including the arrays
  themselves) keep their identity.  The compiled workload is swapped for
  the new version's first (its preprocessed per-node aggregates are
  graph-derived).
* **CSRGraph topology caches** — the in-degree cache is repaired
  incrementally on the new snapshot by two bincounts over the delta
  endpoints; the sorted edge-key cache needs no repair, because
  :meth:`~repro.graph.delta.DeltaCSRGraph.compact` splices it alongside the
  edge arrays and hands it to the snapshot.  The hashed membership filter
  over those keys is not carried: the snapshot builds its own lazily from
  the spliced keys on its first ``has_edges`` call (a service running no
  second-order workload never makes one), while
  :class:`~repro.graph.delta.DeltaCSRGraph` versions search their base's
  sorted keys directly and never build it.
* **ShardedCSRGraph** — re-owns only touched nodes: the owner map is kept
  (delta edges are attributed to the current owners), shards owning no
  touched node are reused *by object identity*, and only affected shards are
  re-sliced against the new snapshot.  Compaction-triggered re-partitioning
  is the service's call (``apply_delta(..., repartition=True)`` drops the
  decompositions so the next use rebuilds them fresh).
* **GhostNodeCache** — dropped: the degree ranking that picked the ghosted
  hubs may shift under any delta, and the budgeted rebuild is lazy anyway.

Scope caveat: the per-node contracts assume a workload's transition weights
and hints for node ``v`` read only ``v``'s own adjacency slice — true for
every shipped node-only workload (they gather the intrinsic edge property
weights).  A custom spec whose weights read *other* nodes' state must be
invalidated fully; pass ``touched_nodes=np.arange(num_nodes)`` to these
contracts to do so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.delta import DeltaCSRGraph

__all__ = ["DeltaInvalidation", "graph_version", "invalidation_for", "repair_csr_caches"]


def graph_version(graph) -> int:
    """The version of a graph: ``graph.version`` for overlays, 0 for CSR."""
    return int(getattr(graph, "version", 0))


@dataclass(frozen=True)
class DeltaInvalidation:
    """What one ``apply_delta`` invalidates, in invalidation-contract terms.

    Attributes
    ----------
    old_version / new_version:
        The version transition this record describes.
    touched_nodes:
        Sorted unique nodes whose out-adjacency changed — the scope of every
        per-node invalidation.
    touched_destinations:
        Sorted unique destination endpoints (in-degree repair scope).
    added / removed:
        The delta's normalised ``(k, 2)`` edge arrays (incremental repairs
        of edge-indexed caches consume them directly).
    """

    old_version: int
    new_version: int
    touched_nodes: np.ndarray
    touched_destinations: np.ndarray
    added: np.ndarray
    removed: np.ndarray


def invalidation_for(graph: DeltaCSRGraph) -> DeltaInvalidation:
    """The invalidation record of the delta that produced ``graph``."""
    if graph.delta is None:
        raise ValueError("version 0 carries no delta to invalidate for")
    delta = graph.delta
    return DeltaInvalidation(
        old_version=graph.version - 1,
        new_version=graph.version,
        touched_nodes=delta.touched_nodes,
        touched_destinations=delta.touched_destinations,
        added=delta.additions,
        removed=delta.removals,
    )


# ---------------------------------------------------------------------- #
# CSRGraph-level topology caches
# ---------------------------------------------------------------------- #
def repair_in_degree_cache(
    old: CSRGraph, new: CSRGraph, record: DeltaInvalidation
) -> None:
    """Incremental in-degree repair: two bincounts over the delta endpoints.

    A no-op when the old snapshot never materialised its cache (the new one
    then stays lazy too — a delta must not force O(E) work the reader never
    asked for).
    """
    if old._in_degree_cache is None:
        return
    degrees = old._in_degree_cache.copy()
    n = new.num_nodes
    if record.removed.size:
        degrees -= np.bincount(record.removed[:, 1], minlength=n).astype(np.int64)
    if record.added.size:
        degrees += np.bincount(record.added[:, 1], minlength=n).astype(np.int64)
    new._in_degree_cache = degrees


def repair_csr_caches(old: CSRGraph, new: CSRGraph, record: DeltaInvalidation) -> None:
    """Run every CSR-level cache contract for one old → new snapshot pair.

    Only the in-degree cache needs repairing: the sorted edge-key cache
    arrives with the snapshot, spliced by
    :meth:`~repro.graph.delta.DeltaCSRGraph.compact` alongside the edges.
    """
    repair_in_degree_cache(old, new, record)


# ---------------------------------------------------------------------- #
# Engine-cache holder
# ---------------------------------------------------------------------- #
def rebind_engine_caches(
    caches,
    new_graph: CSRGraph,
    record: DeltaInvalidation,
    compiled=None,
    repartition: bool = False,
) -> None:
    """Migrate one :class:`~repro.runtime.engine.EngineCaches` holder.

    Applies the scoped contracts in place: the hint tables and transition
    cache keep their object identity (untouched-node entries survive),
    sharded decompositions re-own only touched nodes (or are dropped
    entirely when ``repartition`` asks for a fresh partitioning at the next
    use), and ghost tables are dropped per their contract.  ``compiled``
    must be the new version's compiled workload whenever hint tables exist —
    its preprocessed per-node aggregates are graph-derived.
    """
    if caches.hint_tables is not None:
        caches.hint_tables.rebind(new_graph, record.touched_nodes, compiled=compiled)
    if caches.transition_cache is not None:
        caches.transition_cache.rebind(new_graph, record.touched_nodes)
    if repartition:
        caches.sharded_graphs.clear()
    else:
        for key, sharded in list(caches.sharded_graphs.items()):
            caches.sharded_graphs[key] = sharded.rebind(new_graph, record.touched_nodes)
    caches.ghost_tables.clear()
