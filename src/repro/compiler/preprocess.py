"""Generated preprocessing: per-node aggregates of edge-indexed arrays.

The code generator (Fig. 9d) emits a ``preprocess()`` routine that allocates
``<array>_MAX`` and ``<array>_SUM`` companions for every edge-indexed array
the analyser found, and fills them with lightweight GPU reduction kernels.
eRJS's bound estimation then needs a *single* memory access per step instead
of scanning the whole neighbour list (Fig. 5b), and the runtime cost model
gets its weight-sum estimate the same way.

Aggregates are computed per source node over its out-edges with
``np.maximum.reduceat`` / ``np.add.reduceat``; the simulated cost of that
pass (one coalesced sweep over all edges per aggregate) is reported so the
Table 3 overhead study can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CompilerError
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import DeviceSpec


@dataclass
class PreprocessResult:
    """Per-node aggregates produced by the generated preprocessing kernels.

    ``aggregates`` maps ``"<array>_max"`` / ``"<array>_sum"`` /
    ``"<array>_mean"`` to arrays of length ``num_nodes``; nodes without
    out-edges hold 0.  ``counters`` and ``simulated_time_ns`` record the cost
    of the preprocessing pass for the overhead analysis (Table 3).
    """

    aggregates: dict[str, np.ndarray] = field(default_factory=dict)
    counters: CostCounters = field(default_factory=CostCounters)
    simulated_time_ns: float = 0.0

    def node_max(self, array: str, node: int) -> float:
        return float(self.aggregates[f"{array}_max"][node])

    def node_sum(self, array: str, node: int) -> float:
        return float(self.aggregates[f"{array}_sum"][node])

    def node_mean(self, array: str, node: int) -> float:
        return float(self.aggregates[f"{array}_mean"][node])

    def has_array(self, array: str) -> bool:
        return f"{array}_max" in self.aggregates


def _edge_array(graph: CSRGraph, array: str) -> np.ndarray:
    if array == "weights":
        return np.asarray(graph.weights, dtype=np.float64)
    if array == "labels":
        if graph.labels is None:
            raise CompilerError("workload reads edge labels but the graph has none")
        return np.asarray(graph.labels, dtype=np.float64)
    raise CompilerError(f"no per-node aggregation is defined for graph.{array}")


def _row_aggregates(
    values: np.ndarray, indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """MAX and SUM of ``values`` over each of the non-empty CSR ``rows``.

    ``rows`` must be sorted and unique.  ``reduceat`` on the rows' segment
    starts gives one aggregate per row.  Unless ``rows`` are every
    non-empty row, their segments are first packed back to back; a
    segment's result depends only on its own values in order, so any subset
    of rows reduces exactly as the whole graph does.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total != values.size:
        offsets = np.cumsum(counts) - counts
        values = values[np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)]
        starts = offsets
    return np.maximum.reduceat(values, starts), np.add.reduceat(values, starts)


def _aggregate(
    result: PreprocessResult,
    graph: CSRGraph,
    array: str,
    rows: np.ndarray,
    previous: PreprocessResult | None = None,
) -> None:
    """Fill ``result``'s MAX/SUM/MEAN of ``array``: recompute ``rows``, carry the rest."""
    values = _edge_array(graph, array)
    degrees = graph.degrees()
    if previous is None:
        max_agg = np.zeros(graph.num_nodes, dtype=np.float64)
        sum_agg = np.zeros(graph.num_nodes, dtype=np.float64)
        mean_agg = np.zeros(graph.num_nodes, dtype=np.float64)
    else:
        max_agg = previous.aggregates[f"{array}_max"].copy()
        sum_agg = previous.aggregates[f"{array}_sum"].copy()
        mean_agg = previous.aggregates[f"{array}_mean"].copy()
        max_agg[rows] = 0.0
        sum_agg[rows] = 0.0
        mean_agg[rows] = 0.0
    # Empty rows keep 0: they would add nothing to a segment, and clamping
    # their starts instead would cut the last edge off the last non-empty row.
    rows = rows[degrees[rows] > 0]
    if rows.size:
        max_agg[rows], sum_agg[rows] = _row_aggregates(values, graph.indptr, rows)
        mean_agg[rows] = sum_agg[rows] / degrees[rows]
    result.aggregates[f"{array}_max"] = max_agg
    result.aggregates[f"{array}_sum"] = sum_agg
    result.aggregates[f"{array}_mean"] = mean_agg


def _charge(
    result: PreprocessResult, graph: CSRGraph, num_arrays: int, device: DeviceSpec | None
) -> None:
    """Price the preprocessing pass over the whole graph.

    Each aggregate pair costs one coalesced sweep over the edge array
    feeding a per-node segmented reduction; the kernel is embarrassingly
    parallel over nodes.
    """
    result.counters.coalesced_accesses += num_arrays * graph.num_edges
    result.counters.reduction_elements += num_arrays * 2 * graph.num_edges
    result.counters.table_builds += num_arrays * 2 * graph.num_nodes
    if device is not None:
        result.simulated_time_ns = device.lane_time_ns(result.counters) / max(
            1, min(device.parallel_lanes, graph.num_nodes)
        )


def preprocess_graph(
    graph: CSRGraph,
    arrays: tuple[str, ...] = ("weights",),
    device: DeviceSpec | None = None,
) -> PreprocessResult:
    """Compute per-node MAX/SUM/MEAN aggregates for the requested edge arrays."""
    result = PreprocessResult()
    arrays = tuple(dict.fromkeys(arrays))
    every_row = np.arange(graph.num_nodes, dtype=np.int64)
    for array in arrays:
        _aggregate(result, graph, array, every_row)
    _charge(result, graph, len(arrays), device)
    return result


def preprocess_rows(
    previous: PreprocessResult,
    graph: CSRGraph,
    touched_nodes: np.ndarray,
    device: DeviceSpec | None = None,
) -> PreprocessResult:
    """Follow a graph delta: recompute only the touched rows' aggregates.

    ``previous`` holds the aggregates of the graph before the delta and
    ``touched_nodes`` every node whose out-adjacency the delta changed.
    Untouched rows are carried, touched rows are reduced afresh, and the
    cost of the pass is charged by the same formula as a full
    :func:`preprocess_graph` — the simulated GPU still runs the whole
    preprocessing kernel on a new graph version.  The result equals
    ``preprocess_graph(graph, arrays, device)`` exactly; ``previous`` is not
    modified.
    """
    result = PreprocessResult()
    arrays = tuple(key[: -len("_max")] for key in previous.aggregates if key.endswith("_max"))
    rows = np.asarray(touched_nodes, dtype=np.int64)
    for array in arrays:
        _aggregate(result, graph, array, rows, previous)
    _charge(result, graph, len(arrays), device)
    return result
