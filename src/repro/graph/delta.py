"""Delta-CSR overlay: dynamic graphs as versioned edge deltas over a base CSR.

Every execution mode of this library runs against a frozen
:class:`~repro.graph.csr.CSRGraph`, but a production walk service sees edges
arrive continuously (follows, likes, transactions).  Static-preprocessing
systems (KnightKing, C-SAW — both modeled in :mod:`repro.baselines`) pay a
full rebuild on every change; the delta-CSR overlay instead keeps the base
CSR immutable and layers an append-only **edge delta** on top:

* :meth:`DeltaCSRGraph.apply_delta` folds a batch of edge additions and
  removals into a **new graph version** — a cheap O(|delta| log |delta|)
  operation that shares the base arrays with every other version.  Versions
  are immutable values: an in-flight session keeps reading the version it
  started on while new sessions see the new edges.
* The overlay answers adjacency queries through a **vectorized
  merged-adjacency view** (:meth:`DeltaCSRGraph.merged_adjacency`): the
  surviving base CSR segment of each node merged with its sorted delta
  segment, one ``lexsort`` for a whole node batch.
* :meth:`DeltaCSRGraph.compact` folds the deltas into a fresh
  :class:`~repro.graph.csr.CSRGraph` by **splicing** the already-sorted
  cumulative overlay into the base arrays: no sort, one slice copy per run
  of surviving base edges (one gather per output array once the overlay
  is large), O(E) copying plus O(|overlay| log E) searching.  The result is
  **bit-identical** to building that graph from scratch with
  :func:`~repro.graph.builders.from_edge_list`.  This is the invariant the
  dynamic scenario family asserts: walks after compaction match walks on a
  freshly built graph exactly (paths, counters, per-query times).

Each ``apply_delta`` also records the **touched-node set** (nodes whose
out-adjacency changed), which is what the versioned invalidation layer
(:mod:`repro.graph.invalidation`) uses to repair derived structures
incrementally instead of rebuilding them.

Delta semantics (kept deliberately strict so every operation is
deterministic and validatable):

* the node set is fixed by the base graph — additions and removals must
  reference existing node ids (grow the node space by rebuilding the base);
* an addition must not duplicate an edge present in the current version
  (parallel edges may exist in the *base*, but deltas keep the dynamic
  portion a simple graph);
* a removal must name an edge present in the current version and removes
  every parallel copy of it;
* one delta may not add and remove the same edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, as_edge_array, as_edge_labels, check_edge_weights

__all__ = ["DeltaCSRGraph", "GraphDelta"]

#: :meth:`DeltaCSRGraph.compact` copies the surviving base edges run by run
#: (one slice copy per stretch between removed positions and insertion
#: points) while there is at most one run per this many output edges; a
#: larger overlay gathers through one index array instead, whose cost does
#: not grow with the number of runs.
_EDGES_PER_SLICE_RUN = 64


def _intra_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for run lengths ``counts`` (no Python loop)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.arange(total, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return offsets - starts


def _sorted_membership(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in a sorted array (one searchsorted)."""
    if sorted_arr.size == 0 or values.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(sorted_arr, values)
    pos = np.minimum(pos, sorted_arr.size - 1)
    return sorted_arr[pos] == values


@dataclass(frozen=True)
class GraphDelta:
    """One batch of edge mutations, normalised and validated.

    Attributes
    ----------
    additions / removals:
        ``(k, 2)`` / ``(m, 2)`` int64 arrays of ``(src, dst)`` pairs.
    weights:
        Property weights of the added edges, parallel to ``additions``
        (all-ones when the caller passed none).
    labels:
        Edge labels of the added edges, parallel to ``additions`` (``None``
        on unlabeled graphs).
    """

    additions: np.ndarray
    removals: np.ndarray
    weights: np.ndarray
    labels: np.ndarray | None

    @property
    def num_additions(self) -> int:
        return int(self.additions.shape[0])

    @property
    def num_removals(self) -> int:
        return int(self.removals.shape[0])

    @property
    def num_edges_changed(self) -> int:
        return self.num_additions + self.num_removals

    @property
    def touched_nodes(self) -> np.ndarray:
        """Sorted unique nodes whose *out*-adjacency this delta changes."""
        return np.unique(np.concatenate([self.additions[:, 0], self.removals[:, 0]]))

    @property
    def touched_destinations(self) -> np.ndarray:
        """Sorted unique destination endpoints (whose in-degree changes)."""
        return np.unique(np.concatenate([self.additions[:, 1], self.removals[:, 1]]))


class DeltaCSRGraph:
    """An immutable graph *version*: base CSR + append-only edge deltas.

    Construct version 0 directly over a base graph::

        dynamic = DeltaCSRGraph(graph)          # version 0, no deltas
        v1 = dynamic.apply_delta([(0, 5)])      # version 1, one new edge
        v2 = v1.apply_delta([], removals=[(0, 5)])

    Every version shares the base arrays; only the (small) delta state is
    per-version.  Read accessors (``degrees``, ``neighbors``, ``has_edges``,
    :meth:`merged_adjacency`) answer against the merged view without
    materialising a CSR; :meth:`compact` / :meth:`snapshot` materialise one
    when a kernel-shaped consumer needs flat arrays.

    Attributes
    ----------
    base:
        The frozen :class:`~repro.graph.csr.CSRGraph` under the overlay.
    version:
        Monotonically increasing version counter (0 for the bare base).
    delta:
        The :class:`GraphDelta` that produced this version (``None`` at
        version 0) — carries the touched-node set the invalidation layer
        consumes.
    """

    def __init__(self, base: CSRGraph) -> None:
        if not isinstance(base, CSRGraph):
            raise GraphError("DeltaCSRGraph wraps a CSRGraph base")
        self.base = base
        self.version = 0
        self.delta: GraphDelta | None = None
        n = base.num_nodes
        # Cumulative surviving additions since the base, as a delta-CSR:
        # sorted by (src, dst), with a per-node row-pointer so per-node delta
        # segments are contiguous sorted slices.
        self._add_src = np.zeros(0, dtype=np.int64)
        self._add_dst = np.zeros(0, dtype=np.int64)
        self._add_w = np.zeros(0, dtype=np.float64)
        self._add_lbl = np.zeros(0, dtype=np.int64) if base.labels is not None else None
        self._add_indptr = np.zeros(n + 1, dtype=np.int64)
        self._add_keys = np.zeros(0, dtype=np.int64)
        # Sorted positions (into the base edge arrays) of removed base edges.
        self._removed_pos = np.zeros(0, dtype=np.int64)
        self._snapshot: CSRGraph | None = None
        self._degree_cache: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes

    @property
    def num_edges(self) -> int:
        return self.base.num_edges - int(self._removed_pos.size) + int(self._add_src.size)

    @property
    def has_labels(self) -> bool:
        return self.base.labels is not None

    @property
    def num_delta_edges(self) -> int:
        """Surviving added edges currently living in the overlay."""
        return int(self._add_src.size)

    @property
    def num_removed_edges(self) -> int:
        """Base edges masked out by the overlay."""
        return int(self._removed_pos.size)

    # ------------------------------------------------------------------ #
    # Delta application
    # ------------------------------------------------------------------ #
    def apply_delta(
        self,
        additions,
        removals=(),
        *,
        weights=None,
        labels=None,
    ) -> DeltaCSRGraph:
        """Fold one batch of edge mutations into a **new version**.

        Returns a fresh :class:`DeltaCSRGraph` at ``version + 1``; this
        version is left untouched (in-flight readers keep it).  ``additions``
        may be a :class:`GraphDelta` (its ``removals``/``weights``/``labels``
        then travel with it and the explicit arguments must be empty).
        """
        if isinstance(additions, GraphDelta):
            if len(as_edge_array(removals)) or weights is not None or labels is not None:
                raise GraphError(
                    "pass either a GraphDelta or explicit additions/removals, not both"
                )
            delta = additions
            additions, removals = delta.additions, delta.removals
            weights, labels = delta.weights, delta.labels

        n = self.num_nodes
        add = as_edge_array(additions)
        rem = as_edge_array(removals)
        for tag, arr in (("addition", add), ("removal", rem)):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise GraphError(
                    f"{tag} references a node outside [0, {n}); grow the node "
                    "space by rebuilding the base graph"
                )

        add_w = (
            np.ones(add.shape[0], dtype=np.float64)
            if weights is None
            else np.asarray(weights, dtype=np.float64)
        )
        if add_w.shape != (add.shape[0],):
            raise GraphError("delta weights must be parallel to the additions")
        check_edge_weights(add_w, add.__getitem__)
        if self.has_labels:
            if labels is None and add.shape[0]:
                raise GraphError("labeled graphs need labels for every added edge")
            add_lbl = np.zeros(0, dtype=np.int64) if add.shape[0] == 0 else np.asarray(labels)
            if add_lbl.shape != (add.shape[0],):
                raise GraphError("delta labels must be parallel to the additions")
            add_lbl = as_edge_labels(add_lbl, add.__getitem__)
        else:
            if labels is not None:
                raise GraphError("the base graph has no edge labels")
            add_lbl = None

        nn = np.int64(n)
        add_keys = add[:, 0] * nn + add[:, 1] if add.size else np.zeros(0, dtype=np.int64)
        rem_keys = rem[:, 0] * nn + rem[:, 1] if rem.size else np.zeros(0, dtype=np.int64)

        if np.unique(add_keys).size != add_keys.size:
            raise GraphError("a delta may not add the same edge twice")
        if np.unique(rem_keys).size != rem_keys.size:
            raise GraphError("a delta may not remove the same edge twice")
        if np.intersect1d(add_keys, rem_keys).size:
            raise GraphError("a delta may not add and remove the same edge")

        exists = self.has_edges(
            np.concatenate([add[:, 0], rem[:, 0]]),
            np.concatenate([add[:, 1], rem[:, 1]]),
        )
        add_exists, rem_exists = exists[: add.shape[0]], exists[add.shape[0]:]
        if np.any(add_exists):
            first = add[np.nonzero(add_exists)[0][0]]
            raise GraphError(
                f"edge ({int(first[0])}, {int(first[1])}) already exists at "
                f"version {self.version}; duplicate additions are rejected"
            )
        if not np.all(rem_exists):
            first = rem[np.nonzero(~rem_exists)[0][0]]
            raise GraphError(
                f"edge ({int(first[0])}, {int(first[1])}) does not exist at "
                f"version {self.version}; removals must name live edges"
            )

        # Split removals: those hitting overlay additions drop out of the
        # delta arrays; the rest mask base edge positions (every parallel
        # copy — validation guaranteed at least one copy is live).
        hit_add = _sorted_membership(self._add_keys, rem_keys)
        drop_add_pos = np.searchsorted(self._add_keys, rem_keys[hit_add])
        keep_add = np.ones(self._add_src.size, dtype=bool)
        keep_add[drop_add_pos] = False

        new_removed = self._removed_pos
        base_rem_keys = rem_keys[~hit_add]
        if base_rem_keys.size:
            base_keys = self.base._edge_keys()
            lo = np.searchsorted(base_keys, base_rem_keys, side="left")
            hi = np.searchsorted(base_keys, base_rem_keys, side="right")
            counts = hi - lo
            positions = np.repeat(lo, counts) + _intra_offsets(counts)
            new_removed = np.union1d(self._removed_pos, positions)

        # Merge surviving prior additions with the new ones and sort by the
        # edge key, i.e. by (src, dst): delta keys are unique, so the order
        # is deterministic.
        keys = np.concatenate([self._add_keys[keep_add], add_keys])
        order = np.argsort(keys)

        def merged(prior: np.ndarray, added: np.ndarray) -> np.ndarray:
            return np.concatenate([prior[keep_add], added])[order]

        child = DeltaCSRGraph.__new__(DeltaCSRGraph)
        child.base = self.base
        child.version = self.version + 1
        child.delta = GraphDelta(additions=add, removals=rem, weights=add_w, labels=add_lbl)
        child._add_src = merged(self._add_src, add[:, 0])
        child._add_dst = merged(self._add_dst, add[:, 1])
        child._add_w = merged(self._add_w, add_w)
        child._add_lbl = None if add_lbl is None else merged(self._add_lbl, add_lbl)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(child._add_src, minlength=n), out=indptr[1:])
        child._add_indptr = indptr
        child._add_keys = keys[order]
        child._removed_pos = new_removed
        child._snapshot = None
        child._degree_cache = None
        return child

    # ------------------------------------------------------------------ #
    # Merged read view
    # ------------------------------------------------------------------ #
    def degrees(self) -> np.ndarray:
        """Out-degree of every node under the merged view (cached)."""
        if self._degree_cache is None:
            degs = self.base.degrees().copy()
            if self._removed_pos.size:
                removed_src = (
                    np.searchsorted(self.base.indptr, self._removed_pos, side="right") - 1
                )
                degs -= np.bincount(removed_src, minlength=self.num_nodes).astype(np.int64)
            degs += np.diff(self._add_indptr)
            self._degree_cache = degs
        return self._degree_cache

    def degree(self, node: int) -> int:
        self._check_node(node)
        return int(self.degrees()[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Merged sorted destination ids of ``node``'s out-edges."""
        indptr_l, indices, _, _ = self.merged_adjacency(np.asarray([node], dtype=np.int64))
        return indices[indptr_l[0]:indptr_l[1]]

    def edge_weights(self, node: int) -> np.ndarray:
        """Merged property weights of ``node``'s out-edges."""
        indptr_l, _, weights, _ = self.merged_adjacency(np.asarray([node], dtype=np.int64))
        return weights[indptr_l[0]:indptr_l[1]]

    def has_edge(self, src: int, dst: int) -> bool:
        result = self.has_edges(np.asarray([src]), np.asarray([dst]))
        return bool(result[0])

    def has_edges(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Vectorised edge membership under the merged view.

        An edge exists when it lives in the delta additions, or at least one
        base copy of it survives the removal mask.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.size == 0:
            return np.zeros(srcs.shape, dtype=bool)
        keys = srcs * np.int64(self.num_nodes) + dsts
        present = _sorted_membership(self._add_keys, keys)
        if self.base.num_edges:
            base_keys = self.base._edge_keys()
            lo = np.searchsorted(base_keys, keys, side="left")
            hi = np.searchsorted(base_keys, keys, side="right")
            copies = hi - lo
            if self._removed_pos.size:
                removed = np.searchsorted(self._removed_pos, hi) - np.searchsorted(
                    self._removed_pos, lo
                )
                copies = copies - removed
            present |= copies > 0
        return present

    def _surviving_base_positions(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-node surviving base edge positions, concatenated.

        Returns ``(segment_ids, positions)`` where ``segment_ids[i]`` is the
        index into ``nodes`` whose slice ``positions[i]`` belongs to.
        """
        base = self.base
        deg = (base.indptr[nodes + 1] - base.indptr[nodes]).astype(np.int64)
        positions = np.repeat(base.indptr[nodes], deg) + _intra_offsets(deg)
        segment = np.repeat(np.arange(nodes.size, dtype=np.int64), deg)
        if self._removed_pos.size and positions.size:
            keep = ~_sorted_membership(self._removed_pos, positions)
            positions, segment = positions[keep], segment[keep]
        return segment, positions

    def merged_adjacency(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """The vectorized merged-adjacency view of a node batch.

        Returns ``(indptr, indices, weights, labels)`` where ``indptr`` is a
        local row-pointer over ``nodes`` (length ``len(nodes) + 1``) and the
        flat arrays hold each node's **merged** out-edges — the surviving
        base segment interleaved with the sorted delta segment, sorted by
        destination exactly as a compacted CSR row would be.  One ``lexsort``
        serves the whole batch.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        base = self.base
        seg_b, pos_b = self._surviving_base_positions(nodes)
        add_deg = (self._add_indptr[nodes + 1] - self._add_indptr[nodes]).astype(np.int64)
        pos_a = np.repeat(self._add_indptr[nodes], add_deg) + _intra_offsets(add_deg)
        seg_a = np.repeat(np.arange(nodes.size, dtype=np.int64), add_deg)

        dst = np.concatenate([base.indices[pos_b], self._add_dst[pos_a]])
        w = np.concatenate([base.weights[pos_b], self._add_w[pos_a]])
        lbl = None
        if base.labels is not None:
            lbl = np.concatenate([base.labels[pos_b], self._add_lbl[pos_a]])
        segment = np.concatenate([seg_b, seg_a])
        # Base copies sort before delta entries on destination ties (the
        # compacted order) via the explicit origin tiebreak; ties only occur
        # between parallel base copies in practice (delta keys are unique).
        origin = np.concatenate(
            [np.zeros(seg_b.size, dtype=np.int64), np.ones(seg_a.size, dtype=np.int64)]
        )
        order = np.lexsort((origin, dst, segment))

        counts = np.bincount(segment, minlength=nodes.size)
        indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        return (
            indptr.astype(np.int64),
            dst[order],
            w[order],
            None if lbl is None else lbl[order],
        )

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The current edge set as ``(edges, weights, labels)`` arrays.

        The canonical enumeration: edges in compacted (src, dst) order, so
        ``from_edge_list(*self.edge_list())`` builds exactly the graph
        :meth:`compact` produces.  Reads the cached :meth:`snapshot`.
        """
        compacted = self.snapshot()
        sources = np.repeat(
            np.arange(compacted.num_nodes, dtype=np.int64), compacted.degrees()
        )
        edges = np.stack([sources, compacted.indices], axis=1)
        return edges, compacted.weights.copy(), (
            None if compacted.labels is None else compacted.labels.copy()
        )

    def compact(self) -> CSRGraph:
        """Fold the deltas into a fresh CSR, bit-identical to a fresh build.

        One splice of the cumulative overlay into the base, with no sort:
        the surviving base edges keep their order (parallel copies
        included), and each addition lands at the ``searchsorted`` position
        of its key among the surviving base keys.  That is exactly the
        (src, dst) order :func:`~repro.graph.builders.from_edge_list`
        produces for the same edge multiset, because overlay keys are
        unique and never equal a surviving base key (an addition must be
        absent from its version, and a removal drops every parallel copy).
        So ``indptr``/``indices``/``weights``/``labels`` come out
        bit-identical to building the graph from scratch at this version,
        and the spliced key array becomes the new CSR's edge-key cache.
        The surviving base edges are copied as slices, one per run between
        cut points, while the overlay is small next to the graph, and
        through one gather index otherwise (``_EDGES_PER_SLICE_RUN``); the
        two give the same arrays.
        """
        base = self.base
        removed = self._removed_pos
        add_keys = self._add_keys
        base_keys = base._edge_keys()
        if removed.size == 0 and add_keys.size == 0:
            # Nothing to splice: the base itself is this version's snapshot,
            # and like every snapshot it carries its edge keys.
            return base
        num_edges = self.num_edges
        # Rank of each addition among the surviving base keys, then its
        # output slot (earlier additions sit in front of it too).
        first = np.searchsorted(base_keys, add_keys)
        rank = first - np.searchsorted(removed, first)
        add_slots = rank + np.arange(add_keys.size, dtype=np.int64)
        # Runs of surviving base edges: the stretches between consecutive
        # cut points (removed positions, the positions just past them, and
        # the base positions additions are inserted before), minus the
        # one-edge stretches that are removed edges.  A run starting at
        # base position lo lands behind the survivors before it and every
        # addition ranked at or before its first survivor.
        cuts = np.unique(np.concatenate([[0, base.num_edges], removed, removed + 1, first]))
        lo, hi = cuts[:-1], cuts[1:]
        live = (hi > lo) & ~np.isin(lo, removed)
        lo, hi = lo[live], hi[live]
        if lo.size * _EDGES_PER_SLICE_RUN <= num_edges:
            survivors = lo - np.searchsorted(removed, lo)
            dst = survivors + np.searchsorted(rank, survivors, side="right")
            runs = list(zip(lo.tolist(), hi.tolist(), dst.tolist()))

            def place(base_values: np.ndarray, out: np.ndarray) -> None:
                for a, b, d in runs:
                    out[d:d + b - a] = base_values[a:b]
        else:
            # gather[k]: the base position output slot k copies.  Walking
            # the slots in order, it advances by one per base slot plus one
            # per removed position skipped just before that slot; addition
            # slots do not advance it (they are overwritten below).  The
            # survivor right after the i-th removed position r is survivor
            # r - i, and its slot lies behind every addition ranked at or
            # before it.
            gather = np.ones(num_edges, dtype=np.int64)
            gather[add_slots] = 0
            after = removed - np.arange(removed.size, dtype=np.int64)
            after = after[after < base.num_edges - removed.size]
            np.add.at(gather, after + np.searchsorted(rank, after, side="right"), 1)
            np.cumsum(gather, out=gather)
            gather -= 1

            def place(base_values: np.ndarray, out: np.ndarray) -> None:
                # Addition slots before the first base slot hold -1: clip it.
                np.take(base_values, gather, out=out, mode="clip")

        def splice(base_values: np.ndarray, add_values: np.ndarray) -> np.ndarray:
            out = np.empty(num_edges, dtype=base_values.dtype)
            if base_values.size:
                place(base_values, out)
            out[add_slots] = add_values
            return out

        indptr = np.zeros(base.num_nodes + 1, dtype=np.int64)
        np.cumsum(self.degrees(), out=indptr[1:])
        return CSRGraph(
            indptr=indptr,
            indices=splice(base.indices, self._add_dst),
            weights=splice(base.weights, self._add_w),
            labels=None if base.labels is None else splice(base.labels, self._add_lbl),
            name=base.name,
            _edge_key_cache=splice(base_keys, add_keys),
        )

    def snapshot(self) -> CSRGraph:
        """The compacted CSR of this version, built once and cached.

        Version 0 returns the base graph itself — a frozen-graph caller
        wrapping its CSR in a :class:`DeltaCSRGraph` pays nothing until the
        first delta.
        """
        if self._snapshot is None:
            self._snapshot = self.compact()
        return self._snapshot

    def memory_footprint_bytes(self, weight_bytes: int = 8) -> int:
        """Base footprint plus the overlay's resident delta arrays."""
        per_add = 8 + 8 + weight_bytes + (8 if self.has_labels else 0)
        return int(
            self.base.memory_footprint_bytes(weight_bytes)
            + self._add_src.size * per_add
            + self._add_indptr.size * 8
            + self._removed_pos.size * 8
        )

    # ------------------------------------------------------------------ #
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaCSRGraph(v{self.version}, {self.num_nodes} nodes, "
            f"{self.num_edges} edges = base {self.base.num_edges} "
            f"+ {self.num_delta_edges} - {self.num_removed_edges})"
        )
