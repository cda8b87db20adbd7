"""Compressed-sparse-row (CSR) graph representation.

The CSR layout is the storage format used by every GPU random-walk framework
the paper compares against (FlowWalker, NextDoor, C-SAW, Skywalker): a
row-pointer array ``indptr`` of length ``num_nodes + 1`` and a column-index
array ``indices`` of length ``num_edges``, with parallel per-edge arrays for
the intrinsic edge property weights ``h(v, u)`` and optional edge labels
(MetaPath).  Neighbour lists of a node are contiguous slices, which is what
makes warp-coalesced scans (reservoir sampling) and strided random probes
(rejection sampling) meaningfully different in memory cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError

#: Bits of the edge-membership filter per edge, rounded up to a power of two
#: in total: about 0.5 MB for a quarter of a million edges, small enough to
#: stay in cache, and one hash leaves about 1 - e^(-1/16) = 6.1% of the
#: non-edges to the exact search.
_FILTER_BITS_PER_EDGE = 16
#: Fibonacci hashing multiplier (2^64 / golden ratio, odd).
_FILTER_HASH = np.uint64(0x9E3779B97F4A7C15)


def check_edge_weights(weights: np.ndarray, edge_at) -> None:
    """The edge-weight contract of every graph entry point: finite and
    non-negative, else a :class:`~repro.errors.GraphError` naming the first
    bad edge, whose ``(src, dst)`` pair ``edge_at(index)`` returns."""
    if weights.size and not (weights.min() >= 0 and weights.max() < np.inf):  # NaN fails both
        j = int(np.argmax(~(np.isfinite(weights) & (weights >= 0))))
        src, dst = edge_at(j)
        raise GraphError(
            f"edge ({int(src)}, {int(dst)}) has weight {weights[j]!r}; "
            "edge property weights must be finite and non-negative"
        )


def _is_int64_value(value) -> bool:
    """True when one Python or numpy scalar is an integer within int64 range."""
    if isinstance(value, (int, np.integer)):
        return -(2**63) <= int(value) < 2**63
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value) and math.trunc(value) == value and abs(value) < 2.0**63
    return False


def _first_non_int64(values: np.ndarray) -> int | None:
    """Flat index of the first entry of ``values`` that is not an integer
    within int64 range (fractional, NaN, infinite, too large or not a number
    at all, such as a string), or ``None`` when every entry is one."""
    if np.can_cast(values.dtype, np.int64):
        return None
    if values.dtype.kind == "u":
        bad = values > np.iinfo(np.int64).max
    elif values.dtype.kind not in "f":
        # Strings, bytes or Python objects: numpy would parse or reject them
        # wholesale, so check entry by entry.
        return next(
            (i for i, value in enumerate(values.flat) if not _is_int64_value(value)), None
        )
    else:
        as_float = values.astype(np.float64)
        bad = ~((np.trunc(as_float) == as_float) & (np.abs(as_float) < 2.0**63))  # NaN fails both
    return int(np.argmax(bad)) if bad.any() else None


def as_entry_array(values) -> np.ndarray:
    """``values`` as an array for the id and label checks below.

    numpy turns a list that mixes numbers with strings into an all-string
    array, after which no check can tell which entry was not a number; such
    a list becomes an object array of its own entries instead.
    """
    if isinstance(values, np.ndarray):
        return values
    arr = np.asarray(values)
    return np.array(values, dtype=object) if arr.dtype.kind in "US" else arr


def as_edge_array(edges) -> np.ndarray:
    """The edge-id contract of every graph entry point: ``edges`` as a
    ``(k, 2)`` int64 array of ``(src, dst)`` pairs.

    Integer arrays pass through (int64 ones without a copy); other numeric
    input must hold integral ids within int64 range, such as ``3.0``.  A
    fractional, NaN, infinite or overflowing id raises a
    :class:`~repro.errors.GraphError` naming the first bad pair instead of
    being cast to some other node.  Range checks stay with the callers,
    whose node spaces differ.
    """
    arr = as_entry_array(edges if isinstance(edges, np.ndarray) else list(edges))
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError("edges must be an iterable of (src, dst) pairs")
    bad = _first_non_int64(arr)
    if bad is not None:
        j = bad // 2
        raise GraphError(
            f"edge {j} {tuple(arr[j].tolist())!r} has a node id that is not "
            "an int64 integer; node ids must be integers"
        )
    return arr.astype(np.int64, copy=False)


def as_edge_labels(labels: np.ndarray, edge_at) -> np.ndarray:
    """The edge-label contract of every graph entry point: ``labels`` as
    int64, checked like node ids by :func:`as_edge_array`.

    int64 arrays pass through without a copy and integral floats such as
    ``3.0`` are accepted; a fractional, NaN, infinite or out-of-int64 label
    raises a :class:`~repro.errors.GraphError` naming the first bad edge,
    whose ``(src, dst)`` pair ``edge_at(index)`` returns.  Shape checks stay
    with the callers.
    """
    bad = _first_non_int64(labels)
    if bad is not None:
        src, dst = edge_at(bad)
        label = labels.flat[bad]
        label = label.item() if isinstance(label, np.generic) else label
        raise GraphError(
            f"edge ({int(src)}, {int(dst)}) has label {label!r}; "
            "edge labels must be int64 integers"
        )
    return labels.astype(np.int64, copy=False)


@dataclass
class CSRGraph:
    """A directed graph in CSR form with per-edge property weights.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; neighbours of node ``v``
        occupy ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of destination node ids, length ``num_edges``.
    weights:
        ``float64`` array of intrinsic edge property weights ``h``, parallel
        to ``indices``.  Defaults to all-ones (unweighted graph).
    labels:
        Optional ``int64`` array of edge labels, parallel to ``indices``
        (used by MetaPath).
    name:
        Optional human-readable name (dataset tag).
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None
    labels: np.ndarray | None = None
    name: str = ""
    _in_degree_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _edge_key_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _edge_filter_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional arrays")
        if self.indptr.size == 0:
            raise GraphError("indptr must have at least one entry")
        if self.indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if self.indptr[-1] != self.indices.size:
            raise GraphError(
                f"indptr[-1] ({int(self.indptr[-1])}) must equal the number of edges "
                f"({self.indices.size})"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.num_nodes):
            raise GraphError("edge destination out of range")

        def edge_at(j: int) -> tuple[int, int]:
            return np.searchsorted(self.indptr, j, "right") - 1, self.indices[j]

        if self.weights is None:
            self.weights = np.ones(self.indices.size, dtype=np.float64)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != self.indices.shape:
                raise GraphError("weights must be parallel to indices")
            check_edge_weights(self.weights, edge_at)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != self.indices.shape:
                raise GraphError("labels must be parallel to indices")
            self.labels = as_edge_labels(labels, edge_at)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    @property
    def has_labels(self) -> bool:
        return self.labels is not None

    @property
    def is_weighted(self) -> bool:
        """True when the property weights are not uniformly 1."""
        return bool(self.weights is not None and not np.all(self.weights == 1.0))

    def degree(self, node: int) -> int:
        """Out-degree of ``node``."""
        self._check_node(node)
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        """Out-degree of every node as an ``int64`` array."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node (cached after the first call)."""
        if self._in_degree_cache is None:
            self._in_degree_cache = np.bincount(self.indices, minlength=self.num_nodes).astype(np.int64)
        return self._in_degree_cache

    def max_degree(self) -> int:
        degs = self.degrees()
        return int(degs.max()) if degs.size else 0

    # ------------------------------------------------------------------ #
    # Neighbour access
    # ------------------------------------------------------------------ #
    def neighbors(self, node: int) -> np.ndarray:
        """Destination ids of the out-edges of ``node`` (a CSR slice view)."""
        self._check_node(node)
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def edge_weights(self, node: int) -> np.ndarray:
        """Property weights ``h(node, ·)`` of the out-edges of ``node``."""
        self._check_node(node)
        return self.weights[self.indptr[node]:self.indptr[node + 1]]

    def edge_labels(self, node: int) -> np.ndarray:
        """Edge labels of the out-edges of ``node`` (requires labels)."""
        if self.labels is None:
            raise GraphError("graph has no edge labels")
        self._check_node(node)
        return self.labels[self.indptr[node]:self.indptr[node + 1]]

    def edge_slice(self, node: int) -> tuple[int, int]:
        """``(start, stop)`` positions of ``node``'s edges in the edge arrays."""
        self._check_node(node)
        return int(self.indptr[node]), int(self.indptr[node + 1])

    def has_edge(self, src: int, dst: int) -> bool:
        """True when the directed edge ``src -> dst`` exists.

        Neighbour lists are kept sorted by the builders, so this is a binary
        search; it mirrors the ``dist(v', u) == 1`` check Node2Vec and
        2nd-order PageRank perform per candidate neighbour.
        """
        nbrs = self.neighbors(src)
        if nbrs.size == 0:
            return False
        pos = np.searchsorted(nbrs, dst)
        return bool(pos < nbrs.size and nbrs[pos] == dst)

    def _edge_keys(self) -> np.ndarray:
        """``src * num_nodes + dst`` of every edge, globally sorted.

        CSR rows are contiguous in source order and each row's destinations
        are sorted, so the combined key array is sorted as a whole — a
        binary search over it is the exact edge-existence check behind the
        membership filter.  Built lazily and cached (host-side acceleration
        only; simulated costs are charged by the workloads' cost hooks, not
        by how membership is computed).
        """
        if self._edge_key_cache is None:
            sources = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
            )
            self._edge_key_cache = sources * np.int64(self.num_nodes) + self.indices
        return self._edge_key_cache

    def _filter_hits(self, keys: np.ndarray) -> np.ndarray:
        """Flat indices of the edge ``keys`` that may be edges of this graph.

        The membership filter is a bitset of ``2^bits`` bits, at least
        :data:`_FILTER_BITS_PER_EDGE` per edge, with one bit set per edge
        key at ``(key * _FILTER_HASH) >> (64 - bits)``.  Every edge's bit is
        set, so a key whose bit is clear is not an edge; a key whose bit is
        set may be one.  The bitset is built lazily from :meth:`_edge_keys`
        and cached; a graph without edges has none and no hits.
        """
        if self.num_edges == 0:
            return np.zeros(0, dtype=np.int64)
        if self._edge_filter_cache is None:
            bits = max(3, (_FILTER_BITS_PER_EDGE * self.num_edges - 1).bit_length())
            slots = self._edge_keys().view(np.uint64) * _FILTER_HASH
            slots >>= np.uint64(64 - bits)
            masks = (slots & np.uint64(7)).astype(np.uint8)
            np.left_shift(np.uint8(1), masks, out=masks)
            slots >>= np.uint64(3)
            packed = np.zeros(1 << (bits - 3), dtype=np.uint8)
            np.bitwise_or.at(packed, slots.view(np.int64), masks)
            self._edge_filter_cache = packed
        packed = self._edge_filter_cache
        bits = packed.size.bit_length() + 2           # packed.size == 2^(bits - 3)
        slots = keys.reshape(-1).view(np.uint64) * _FILTER_HASH
        slots >>= np.uint64(64 - bits)
        # take() with int64 byte offsets skips the cast fancy indexing
        # makes of a uint64 index, and nonzero over a bool view skips the
        # branch per element it spends on other dtypes.
        hit = packed.take((slots >> np.uint64(3)).view(np.int64))
        slots &= np.uint64(7)
        hit >>= slots.astype(np.uint8)
        hit &= np.uint8(1)
        return np.flatnonzero(hit.view(bool))

    def has_edges(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`has_edge` over parallel source/destination arrays.

        The batched second-order workloads (Node2Vec, 2nd-order PageRank) ask
        for the ``dist(v', u) == 1`` classification of every candidate edge of
        a whole frontier at once.  Most candidates are not edges: the hashed
        membership filter (:meth:`_filter_hits`) rules those out from a
        cache-sized bitset, and only the queries it passes are verified by
        one binary search over the sorted edge keys.  Results are exact
        booleans, so this cannot perturb any transition weight.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        keys = srcs * np.int64(self.num_nodes) + np.asarray(dsts, dtype=np.int64)
        flat = np.reshape(keys, -1)
        found = np.zeros(flat.size, dtype=bool)
        hits = self._filter_hits(flat)
        if hits.size:
            candidates = flat[hits]
            edge_keys = self._edge_keys()
            pos = np.searchsorted(edge_keys, candidates)
            np.minimum(pos, self.num_edges - 1, out=pos)
            found[hits] = edge_keys[pos] == candidates
        return found.reshape(np.shape(keys))

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def with_weights(self, weights: np.ndarray, name: str | None = None) -> CSRGraph:
        """Return a copy of this graph with replaced property weights.

        ``indptr``/``indices`` are shared unchanged, so the in-degree,
        edge-key and membership-filter caches (pure functions of the
        topology) carry over —
        a derived graph must not silently rebuild O(E) structures its parent
        already paid for.
        """
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            weights=np.asarray(weights, dtype=np.float64),
            labels=self.labels,
            name=self.name if name is None else name,
            _in_degree_cache=self._in_degree_cache,
            _edge_key_cache=self._edge_key_cache,
            _edge_filter_cache=self._edge_filter_cache,
        )

    def with_labels(self, labels: np.ndarray) -> CSRGraph:
        """Return a copy of this graph with edge labels attached.

        Topology caches propagate exactly as in :meth:`with_weights`.
        """
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            weights=self.weights,
            labels=labels,
            name=self.name,
            _in_degree_cache=self._in_degree_cache,
            _edge_key_cache=self._edge_key_cache,
            _edge_filter_cache=self._edge_filter_cache,
        )

    def memory_footprint_bytes(self, weight_bytes: int = 8) -> int:
        """Approximate device memory needed to hold the graph.

        ``weight_bytes`` is 8 for float64, 4 for float32 and 1 for the INT8
        low-precision extension of Section 7.2.
        """
        return int(
            self.indptr.size * 8
            + self.indices.size * 8
            + self.indices.size * weight_bytes
            + (self.indices.size * 8 if self.labels is not None else 0)
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"CSRGraph({self.num_nodes} nodes, {self.num_edges} edges"
            f"{', labeled' if self.has_labels else ''}"
            f"{', weighted' if self.is_weighted else ''}{tag})"
        )
