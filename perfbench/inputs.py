"""Seeded input generation and the benchmark's own edge bookkeeping.

Everything the program under test receives is generated here from the
workload seed: edge arrays, edge weights, walk start nodes, request arrival
times and edge deltas.  The benchmark keeps its own copy of every graph
version as a sorted array of edge keys (``src * num_nodes + dst``), so the
output checks and the delta generator never call into the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def barabasi_albert_edges(num_nodes: int, edges_per_node: int, seed: int) -> np.ndarray:
    """Preferential-attachment edges, both directions, as an ``(E, 2)`` array.

    Each new node draws ``edges_per_node`` endpoints uniformly from the list
    of all edge endpoints so far, i.e. proportionally to degree.  Repeated
    targets and self loops are kept here and removed when the edge keys are
    deduplicated, like the program's own ``deduplicate=True`` build.
    """
    rng = np.random.default_rng(seed)
    draws = rng.random((num_nodes - edges_per_node) * edges_per_node).tolist()
    endpoints = list(range(edges_per_node))
    src: list[int] = []
    dst: list[int] = []
    k = 0
    for node in range(edges_per_node, num_nodes):
        pool = len(endpoints)
        for _ in range(edges_per_node):
            target = endpoints[int(draws[k] * pool)]
            k += 1
            src.append(node)
            dst.append(target)
            endpoints.append(target)
            endpoints.append(node)
    s = np.asarray(src, dtype=np.int64)
    d = np.asarray(dst, dtype=np.int64)
    return np.stack([np.concatenate([s, d]), np.concatenate([d, s])], axis=1)


def rmat_edges(scale: int, edges_per_node: int, seed: int,
               probs: tuple[float, float, float] = (0.57, 0.19, 0.19)) -> np.ndarray:
    """Recursive-matrix (Graph500-style) edges on ``2**scale`` nodes."""
    rng = np.random.default_rng(seed)
    count = edges_per_node << scale
    src = np.zeros(count, dtype=np.int64)
    dst = np.zeros(count, dtype=np.int64)
    thresholds = np.cumsum(probs)
    for _ in range(scale):
        quadrant = np.searchsorted(thresholds, rng.random(count))
        src = (src << 1) | (quadrant >= 2)
        dst = (dst << 1) | (quadrant & 1)
    keep = src != dst
    return np.stack([src[keep], dst[keep]], axis=1)


def edge_keys(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted, unique edge keys of an ``(E, 2)`` edge array."""
    return np.unique(edges[:, 0] * np.int64(num_nodes) + edges[:, 1])


def contains(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in the sorted key array ``keys``."""
    pos = np.minimum(np.searchsorted(keys, values), max(keys.size - 1, 0))
    return keys[pos] == values if keys.size else np.zeros(values.size, dtype=bool)


def apply_delta_keys(keys: np.ndarray, additions: np.ndarray, removals: np.ndarray,
                     num_nodes: int) -> np.ndarray:
    """The next version's sorted edge keys."""
    n = np.int64(num_nodes)
    grown = np.union1d(keys, additions[:, 0] * n + additions[:, 1])
    return np.setdiff1d(grown, removals[:, 0] * n + removals[:, 1], assume_unique=True)


@dataclass
class Delta:
    """One edge update: new edges (with weights) and live edges to remove."""

    additions: np.ndarray
    removals: np.ndarray
    weights: np.ndarray


def make_deltas(base_keys: np.ndarray, num_nodes: int, count: int, additions: int,
                removals: int, rng: np.random.Generator) -> list[Delta]:
    """A chain of deltas, each valid against the version it lands on.

    Additions name edges absent from that version (no self loops, no
    repeats); removals name live edges.  Both are drawn from the
    benchmark's bookkeeping, so generating them costs the program nothing.
    """
    n = np.int64(num_nodes)
    keys = base_keys
    deltas = []
    for _ in range(count):
        candidates = rng.integers(0, num_nodes, size=(additions * 8, 2))
        candidates = candidates[candidates[:, 0] != candidates[:, 1]]
        cand_keys = candidates[:, 0] * n + candidates[:, 1]
        fresh = ~contains(keys, cand_keys)
        _, first = np.unique(cand_keys[fresh], return_index=True)
        add = candidates[fresh][np.sort(first)][:additions]
        rem_keys = keys[rng.choice(keys.size, size=removals, replace=False)]
        rem = np.stack([rem_keys // n, rem_keys % n], axis=1)
        deltas.append(Delta(add, rem, rng.uniform(1.0, 5.0, add.shape[0])))
        keys = apply_delta_keys(keys, add, rem, num_nodes)
    return deltas


class EdgeReference:
    """One graph version as the benchmark sees it: keys and out-degrees."""

    def __init__(self, keys: np.ndarray, num_nodes: int) -> None:
        self.keys = keys
        self.num_nodes = num_nodes
        self.out_degree = np.bincount(keys // np.int64(num_nodes), minlength=num_nodes)

    def bad_paths(self, paths: list, starts: np.ndarray, max_length: int) -> int:
        """Paths that break the walk contract on this version.

        A path must start at its query's start node, take at most
        ``max_length`` hops, use only edges of this version, and stop short
        of ``max_length`` only at a node without out-edges.
        """
        if len(paths) != starts.size:
            return max(starts.size, 1)
        lengths = np.fromiter((len(p) for p in paths), dtype=np.int64, count=len(paths))
        if lengths.min(initial=1) < 1:
            return int((lengths < 1).sum())
        flat = np.fromiter((v for p in paths for v in p), dtype=np.int64,
                           count=int(lengths.sum()))
        ends = np.cumsum(lengths)
        begins = ends - lengths
        bad = flat[begins] != starts
        bad |= lengths - 1 > max_length
        hop = np.ones(flat.size, dtype=bool)
        hop[ends - 1] = False
        hop_src = np.nonzero(hop)[0]
        missing = ~contains(self.keys, flat[hop_src] * np.int64(self.num_nodes) + flat[hop_src + 1])
        owner = np.searchsorted(ends, hop_src, side="right")
        bad[owner[missing]] = True
        bad |= (lengths - 1 < max_length) & (self.out_degree[flat[ends - 1]] > 0)
        return int(bad.sum())
