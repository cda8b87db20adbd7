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


def preprocess_graph(
    graph: CSRGraph,
    arrays: tuple[str, ...] = ("weights",),
    device: DeviceSpec | None = None,
) -> PreprocessResult:
    """Compute per-node MAX/SUM/MEAN aggregates for the requested edge arrays."""
    result = PreprocessResult()
    degrees = graph.degrees()
    starts = graph.indptr[:-1]
    nonempty = degrees > 0

    for array in dict.fromkeys(arrays):
        values = _edge_array(graph, array)
        max_agg = np.zeros(graph.num_nodes, dtype=np.float64)
        sum_agg = np.zeros(graph.num_nodes, dtype=np.float64)
        if graph.num_edges:
            # reduceat on the non-empty rows' starts gives one aggregate per
            # such node: empty rows between two starts add no elements, and
            # the last segment runs to the end of the edge array.  (Clamping
            # trailing empty rows' starts instead would cut the last edge off
            # the last non-empty row.)
            row_starts = starts[nonempty]
            max_agg[nonempty] = np.maximum.reduceat(values, row_starts)
            sum_agg[nonempty] = np.add.reduceat(values, row_starts)
        mean_agg = np.divide(sum_agg, degrees, out=np.zeros_like(sum_agg), where=nonempty)
        result.aggregates[f"{array}_max"] = max_agg
        result.aggregates[f"{array}_sum"] = sum_agg
        result.aggregates[f"{array}_mean"] = mean_agg

        # Each aggregate pair costs one coalesced sweep over the edge array
        # feeding a per-node segmented reduction.
        result.counters.coalesced_accesses += graph.num_edges
        result.counters.reduction_elements += 2 * graph.num_edges
        result.counters.table_builds += 2 * graph.num_nodes

    if device is not None:
        # The preprocessing kernel is embarrassingly parallel over nodes.
        result.simulated_time_ns = device.lane_time_ns(result.counters) / max(
            1, min(device.parallel_lanes, graph.num_nodes)
        )
    return result
