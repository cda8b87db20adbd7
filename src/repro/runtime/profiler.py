"""Profiling kernels that calibrate the cost-model ratio (Section 5.1).

Before the main walk starts, FlexiWalker launches two tiny kernels over a
fixed fraction of nodes — one eRVS-style coalesced scan, one eRJS-style run
of uncoalesced probes — and derives the ``EdgeCost_RJS / EdgeCost_RVS``
ratio of Eq. 11 from their measured costs.  Because the measurement runs on
the real device it silently absorbs hardware effects such as cache hit
rates.  Here the "device" is the simulator, so the profiler measures the
simulated lane time the same way the real system measures wall-clock time.

**Units.**  The selector evaluates Eq. 11 as ``r · max < Σ``, which is
``Cost_RJS < Cost_RVS`` with eRVS priced per unit of degree (Eq. 9) and
eRJS per *expected trial*, ``E = degree · max / Σ`` (Eq. 10), where ``max``
and ``Σ`` are the compiler's ``get_weight_max`` / ``get_weight_sum`` hints.
The profiler measures in exactly those units:

* every sampled node ``s`` is profiled as a walker state one step into a
  walk — ``current = s`` and ``prev`` one of its neighbours, picked by a
  SplitMix hash of ``(seed, s)`` (no running generator, so a resumed
  profile needs no replay) — so second-order workloads pay their
  ``dist(prev, x)`` probes as the main walk does, while a node's
  measurement still depends on its own row alone for edge-only weights
  (what lets a profile resume after a delta, :func:`profile_resume_index`);
* the eRVS kernel's lane time is recorded against the node's degree ``d``;
* the eRJS kernel probes against the same compiled hint bound the main walk
  uses (widened to the true maximum, as the kernel does), and its lane time
  is recorded against ``E`` computed from the same hints the selector reads.

**Method.**  One least-squares line per kernel — eRVS ``a_rvs + b_rvs · d``,
eRJS ``a_rjs + b_rjs · E`` — and the ratio that puts Eq. 11's break-even
where the two lines cross at the median profiled degree ``d_m``::

    r = b_rjs · d_m / (a_rvs + b_rvs · d_m − a_rjs)

A per-step fixed cost (the hint read, the acceptance draw) thus lands in the
intercepts instead of inflating the per-unit ratio.  When the fit gives no
crossing at a positive trial count (all nodes of one degree, a per-trial
slope that is not positive, or an eRJS intercept above eRVS's cost at
``d_m``) ``r`` falls back to the ratio of per-unit sums
``(Σ rjs_ns / Σ E) / (Σ rvs_ns / Σ d)``.

The profiling cost itself is part of the Table 3 overhead study, so the
simulated time of both profiling kernels is reported too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.compiler.generator import CompiledWorkload, compile_workload
from repro.errors import CompilerWarning
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import DeviceSpec
from repro.rng.philox import derive_child_keys
from repro.rng.streams import CountingStream
from repro.sampling.base import StepContext
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.sampling.ervs import EnhancedReservoirSampler
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState, WalkQuery


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of the start-up profiling kernels.

    ``edge_cost_rvs`` is the eRVS lane time per unit of degree and
    ``edge_cost_rjs`` the eRJS lane time per expected trial that the fitted
    break-even implies, so their quotient is the calibrated Eq. 11 ratio.

    ``checkpoints[i]`` is the profiling stream's counter just before sampled
    node ``i`` and ``samples[i]`` that node's measurement ``(degree,
    expected trials, eRVS ns, eRJS ns)``, so a later profile of a graph
    version that agrees on the first ``i`` sampled nodes can resume there
    (see :func:`profile_edge_costs`).  Bookkeeping only: neither takes part
    in equality.
    """

    edge_cost_rjs: float
    edge_cost_rvs: float
    simulated_time_ns: float
    sampled_nodes: int
    checkpoints: tuple = field(default=(), compare=False, repr=False)
    samples: tuple = field(default=(), compare=False, repr=False)

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


def _prev_nodes(graph: CSRGraph, nodes: np.ndarray, seed: int) -> np.ndarray:
    """Each sampled node's profiled ``prev``: a neighbour picked by hash.

    A SplitMix hash of ``(seed, node)`` modulo the degree, so the pick is a
    function of the node's own row alone.
    """
    start = graph.indptr[nodes]
    degree = (graph.indptr[nodes + 1] - start).astype(np.uint64)
    pick = (derive_child_keys(seed, nodes) % degree).astype(np.int64)
    return graph.indices[start + pick]


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
    of the edge (:attr:`~repro.compiler.generator.CompiledWorkload.weights_node_only`)
    and whose hints are per node (not ``PER_KERNEL``, whose bound may read
    the whole graph): a sampled node's measurement then reads nothing but
    its own row — its weights, its hint aggregates, and the row its
    ``prev`` is hashed from; ``prev`` itself is never consulted.  Both
    graphs sample the same nodes when no touched node's degree crossed zero
    — the candidate set, and with it the seeded draw, is unchanged — and
    the profiling loop's state after a sampled node depends only on the
    rows read up to it.  So the result is the number of sampled nodes
    before the first one whose row the delta touched (the sample size when
    it touched none), or ``None`` when the sample itself changed.
    """
    touched = np.asarray(touched_nodes, dtype=np.int64)
    if np.any((old_graph.degrees()[touched] > 0) != (new_graph.degrees()[touched] > 0)):
        return None
    nodes = _sample_nodes(new_graph, node_fraction, max_nodes, seed)
    hit = np.isin(nodes, touched)
    return int(hit.argmax()) if hit.any() else int(nodes.size)


def _fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares ``(intercept, slope)`` of ``y`` on ``x`` (NaN if flat)."""
    dx = x - x.mean()
    spread = float(dx @ dx)
    if spread <= 0.0:
        return float("nan"), float("nan")
    slope = float(dx @ (y - y.mean())) / spread
    return float(y.mean()) - slope * float(x.mean()), slope


def _calibrated_ratio(samples: np.ndarray) -> float:
    """Eq. 11's ratio from per-node ``(degree, trials, rvs_ns, rjs_ns)`` rows.

    The break-even of the two fitted lines at the median degree (see the
    module docstring), or the ratio of per-unit sums when that is not a
    finite positive number.
    """
    degree, trials, rvs_ns, rjs_ns = samples.T
    a_rvs, b_rvs = _fit(degree, rvs_ns)
    a_rjs, b_rjs = _fit(trials, rjs_ns)
    d_m = float(np.median(degree))
    # eRVS's cost at d_m above eRJS's fixed cost, and a positive cost per
    # trial: the lines cross at a positive trial count.
    margin = a_rvs + b_rvs * d_m - a_rjs
    if b_rjs > 0 and margin > 0:
        return b_rjs * d_m / margin
    return float((rjs_ns.sum() / trials.sum()) / (rvs_ns.sum() / degree.sum()))


def profile_edge_costs(
    graph: CSRGraph,
    spec: WalkSpec,
    device: DeviceSpec,
    node_fraction: float = 0.02,
    max_nodes: int = 64,
    seed: int = 0,
    resume: tuple[ProfileResult, int] | None = None,
    compiled: CompiledWorkload | None = None,
) -> ProfileResult:
    """Run the two profiling kernels and return the calibrated edge costs.

    Parameters
    ----------
    node_fraction / max_nodes:
        How many nodes each profiling kernel touches; kept tiny (Section 5.1
        limits both steps and queries) so the overhead stays in the
        sub-percent range of the main walk.
    resume:
        ``(previous, index)``: ``previous`` profiled another version of the
        graph with the same arguments, and ``index`` sampled nodes ago the
        two versions agree (:func:`profile_resume_index`).  The loop
        restarts from ``previous.checkpoints[index]`` with the first
        ``index`` samples carried; the result is bit-identical to a full
        run, because every sample is measured the same way and the stream
        continues at the same counter.
    compiled:
        The workload compiled against ``graph``, whose hints the selector
        reads; compiled here when not given.
    """
    nodes = _sample_nodes(graph, node_fraction, max_nodes, seed)
    if nodes.size == 0:
        return ProfileResult(
            edge_cost_rjs=device.random_access_ns,
            edge_cost_rvs=device.coalesced_access_ns,
            simulated_time_ns=0.0,
            sampled_nodes=0,
        )
    if compiled is None:
        with warnings.catch_warnings():
            # The engine that runs the workload reports the fallback.
            warnings.simplefilter("ignore", CompilerWarning)
            compiled = compile_workload(spec, graph, device=device)

    stream = CountingStream.from_seed(seed + 1)
    rvs_kernel = EnhancedReservoirSampler()
    rjs_kernel = EnhancedRejectionSampler(use_estimated_bound=True)
    prevs = _prev_nodes(graph, nodes, seed)

    start = 0
    checkpoints: list[int] = []
    samples: list[tuple[float, float, float, float]] = []
    if resume is not None and resume[0].checkpoints:
        previous, start = resume
        checkpoints = list(previous.checkpoints[:start])
        samples = list(previous.samples[:start])
        stream.reserve(previous.checkpoints[start])

    for node, prev in zip(nodes[start:].tolist(), prevs[start:].tolist()):
        checkpoints.append(stream.philox_counter)
        degree = graph.degree(node)
        # One step into a walk: at ``node``, having come from ``prev``.
        state = WalkerState.start(WalkQuery(query_id=node, start_node=node, max_length=2))
        state.prev_node = prev
        state.step = 1
        bound = compiled.bound_hint(graph, state)
        total = compiled.sum_hint(graph, state)
        if bound is not None and total is not None and bound > 0 and total > 0:
            trials = degree * bound / total
        else:
            # Without both hints the selector never picks eRJS for this
            # node, so any finite trial count serves.
            trials = float(degree)

        # eRVS-style kernel: one coalesced weight scan.
        counters = CostCounters()
        ctx = StepContext(graph=graph, state=state, spec=spec, rng=stream, counters=counters)
        rvs_kernel.sample(ctx)
        rvs_ns = device.lane_time_ns(counters)

        # eRJS-style kernel: uncoalesced probes against the hint bound.
        counters = CostCounters()
        ctx = StepContext(
            graph=graph, state=state, spec=spec, rng=stream,
            counters=counters, bound_hint=bound, sum_hint=total,
        )
        rjs_kernel.sample(ctx)
        samples.append((float(degree), float(trials), rvs_ns, device.lane_time_ns(counters)))

    table = np.array(samples, dtype=np.float64)
    ratio = _calibrated_ratio(table)
    edge_cost_rvs = float(table[:, 2].sum() / table[:, 0].sum())
    # Both kernels run concurrently across the sampled nodes on the device.
    parallel_ns = float(table[:, 2:].sum()) / max(1, min(device.parallel_lanes, nodes.size))
    # The stream after the last node: a version agreeing on every sampled
    # node resumes past the loop.
    checkpoints.append(stream.philox_counter)
    return ProfileResult(
        edge_cost_rjs=ratio * edge_cost_rvs,
        edge_cost_rvs=edge_cost_rvs,
        simulated_time_ns=parallel_ns,
        sampled_nodes=int(nodes.size),
        checkpoints=tuple(checkpoints),
        samples=tuple(samples),
    )
