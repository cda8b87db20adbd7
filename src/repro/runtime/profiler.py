"""Profiling kernels that calibrate the cost-model ratio (Section 5.1).

Before the main walk starts, FlexiWalker launches two tiny kernels that each
compute transition weights for a fixed fraction of nodes and a capped number
of their neighbours — one using eRJS-style uncoalesced probes, one using
eRVS-style coalesced scans.  Dividing the measured per-edge costs gives the
``EdgeCost_RJS / EdgeCost_RVS`` ratio of Eq. 11, and because the measurement
runs on the real device it silently absorbs hardware effects such as cache
hit rates.  Here the "device" is the simulator, so the profiler measures the
simulated per-edge cost the same way the real system measures wall-clock
time.

The profiling cost itself is part of the Table 3 overhead study, so the
simulated time of both profiling kernels is reported too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import DeviceSpec
from repro.rng.streams import CountingStream
from repro.sampling.base import StepContext
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.sampling.ervs import EnhancedReservoirSampler
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState, WalkQuery


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of the start-up profiling kernels.

    ``checkpoints[i]`` is the profiling loop's running state just before
    sampled node ``i`` — the profiling stream's counter and the five
    running sums — so a later profile of a graph version that agrees on
    the first ``i`` sampled nodes can resume there (see
    :func:`profile_edge_costs`).  Bookkeeping only: it takes no part in
    equality.
    """

    edge_cost_rjs: float
    edge_cost_rvs: float
    simulated_time_ns: float
    sampled_nodes: int
    checkpoints: tuple = field(default=(), compare=False, repr=False)

    @property
    def edge_cost_ratio(self) -> float:
        if self.edge_cost_rvs <= 0:
            return 1.0
        return self.edge_cost_rjs / self.edge_cost_rvs


def _sample_nodes(graph: CSRGraph, node_fraction: float, max_nodes: int, seed: int) -> np.ndarray:
    """Pick a deterministic sample of non-isolated nodes to profile."""
    degrees = graph.degrees()
    candidates = np.nonzero(degrees > 0)[0]
    if candidates.size == 0:
        return candidates
    target = max(1, min(max_nodes, int(np.ceil(candidates.size * node_fraction))))
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(candidates, size=min(target, candidates.size), replace=False))


def profile_resume_index(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    touched_nodes: np.ndarray,
    node_fraction: float = 0.02,
    max_nodes: int = 64,
    seed: int = 0,
) -> int | None:
    """How many leading sampled nodes a delta provably leaves alone.

    Sound only for workloads whose transition weights are a pure function
    of the edge (:attr:`~repro.compiler.generator.CompiledWorkload.weights_node_only`):
    the profiling kernels then read nothing but each sampled node's own row
    and the row of its history node (its first neighbour).  Both graphs
    sample the same nodes when no touched node's degree crossed zero — the
    candidate set, and with it the seeded draw, is unchanged — and the
    profiling loop's state after a sampled node depends only on the rows
    read up to it.  So the result is the number of sampled nodes before the
    first one whose rows the delta touched (the sample size when it touched
    none), or ``None`` when the sample itself changed.
    """
    touched = np.asarray(touched_nodes, dtype=np.int64)
    if np.any((old_graph.degrees()[touched] > 0) != (new_graph.degrees()[touched] > 0)):
        return None
    nodes = _sample_nodes(new_graph, node_fraction, max_nodes, seed)
    history = new_graph.indices[new_graph.indptr[nodes]]
    hit = np.isin(nodes, touched) | np.isin(history, touched)
    return int(hit.argmax()) if hit.any() else int(nodes.size)


def profile_edge_costs(
    graph: CSRGraph,
    spec: WalkSpec,
    device: DeviceSpec,
    node_fraction: float = 0.02,
    max_nodes: int = 64,
    max_neighbors: int = 256,
    seed: int = 0,
    resume: tuple[ProfileResult, int] | None = None,
) -> ProfileResult:
    """Run the two profiling kernels and return the measured per-edge costs.

    Parameters
    ----------
    node_fraction / max_nodes:
        How many nodes each profiling kernel touches; kept tiny (Section 5.1
        limits both steps and queries) so the overhead stays in the
        sub-percent range of the main walk.
    max_neighbors:
        Cap on the neighbours evaluated per profiled node.
    resume:
        ``(previous, index)``: ``previous`` profiled another version of the
        graph with the same arguments, and ``index`` sampled nodes ago the
        two versions agree (:func:`profile_resume_index`).  The loop
        restarts from ``previous.checkpoints[index]`` instead of node 0;
        the result is bit-identical to a full run, because every sum
        accumulates the same terms in the same order and the stream
        continues at the same counter.
    """
    nodes = _sample_nodes(graph, node_fraction, max_nodes, seed)
    if nodes.size == 0:
        return ProfileResult(
            edge_cost_rjs=device.random_access_ns,
            edge_cost_rvs=device.coalesced_access_ns,
            simulated_time_ns=0.0,
            sampled_nodes=0,
        )

    stream = CountingStream.from_seed(seed + 1)
    rvs_kernel = EnhancedReservoirSampler()
    rjs_kernel = EnhancedRejectionSampler(use_estimated_bound=True)

    start = 0
    rvs_ns, rvs_edges, rjs_ns, rjs_edges, total_ns = 0.0, 0, 0.0, 0, 0.0
    checkpoints: list[tuple] = []
    if resume is not None and resume[0].checkpoints:
        previous, start = resume
        checkpoints = list(previous.checkpoints[:start])
        counter, rvs_ns, rvs_edges, rjs_ns, rjs_edges, total_ns = previous.checkpoints[start]
        stream.reserve(counter)

    def profiled_state(node: int) -> WalkerState:
        """A representative walker state: one step of history when possible.

        Dynamic workloads are costlier once a previous node exists (the
        dist(v', u) probes); profiling with history makes the measured
        per-edge costs match what the main walk will actually pay.
        """
        query = WalkQuery(query_id=node, start_node=node, max_length=2)
        state = WalkerState.start(query)
        neighbors = graph.neighbors(node)
        if neighbors.size:
            state.prev_node = int(neighbors[0])
            state.step = 1
        return state

    for node in nodes[start:]:
        checkpoints.append(
            (stream.philox_counter, rvs_ns, rvs_edges, rjs_ns, rjs_edges, total_ns)
        )
        degree = min(graph.degree(int(node)), max_neighbors)
        if degree == 0:
            continue

        # eRVS-style kernel: one coalesced weight scan.
        counters = CostCounters()
        ctx = StepContext(graph=graph, state=profiled_state(int(node)), spec=spec, rng=stream, counters=counters)
        rvs_kernel.sample(ctx)
        lane_ns = device.lane_time_ns(counters)
        rvs_ns += lane_ns
        rvs_edges += max(counters.coalesced_accesses, 1)
        total_ns += lane_ns

        # eRJS-style kernel: uncoalesced probes against the node's true max
        # (the profiling kernel may use the exact max — it only runs on a
        # handful of nodes).
        state = profiled_state(int(node))
        counters = CostCounters()
        weights = spec.transition_weights(graph, state)
        bound = float(weights.max()) if weights.size else 0.0
        ctx = StepContext(
            graph=graph, state=state, spec=spec, rng=stream, counters=counters, bound_hint=bound
        )
        rjs_kernel.sample(ctx)
        lane_ns = device.lane_time_ns(counters)
        rjs_ns += lane_ns
        rjs_edges += max(counters.rejection_trials, 1)
        total_ns += lane_ns

    edge_cost_rvs = rvs_ns / max(rvs_edges, 1)
    edge_cost_rjs = rjs_ns / max(rjs_edges, 1)
    # Both kernels run concurrently across the sampled nodes on the device.
    parallel_ns = total_ns / max(1, min(device.parallel_lanes, nodes.size))
    # The state after the last node: a version agreeing on every sampled
    # node resumes past the loop.
    checkpoints.append(
        (stream.philox_counter, rvs_ns, rvs_edges, rjs_ns, rjs_edges, total_ns)
    )
    return ProfileResult(
        edge_cost_rjs=edge_cost_rjs,
        edge_cost_rvs=edge_cost_rvs,
        simulated_time_ns=parallel_ns,
        sampled_nodes=int(nodes.size),
        checkpoints=tuple(checkpoints),
    )
