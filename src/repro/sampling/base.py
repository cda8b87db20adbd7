"""Shared sampling-kernel infrastructure: step contexts and the Sampler ABC.

Two execution shapes share this module:

* **Scalar** — one walker takes one step through :meth:`Sampler.sample` with
  a :class:`StepContext` (the original interpreter-style path, kept for
  exact-parity checks via ``execution="scalar"``).
* **Batched** — a whole frontier of walkers takes one step at a time through
  :meth:`Sampler.sample_batch` with a
  :class:`~repro.sampling.batch.BatchStepContext`.  The built-in kernels
  override it with NumPy-vectorised implementations; samplers that don't
  override it fall back to a loop over scalar :meth:`~Sampler.sample`, so any
  custom kernel works in both modes out of the box.

Both shapes must agree exactly — same chosen neighbours, same operation
counts — for a fixed seed policy; the dead-end rules are therefore defined
once here (:func:`is_dead_end`, :func:`all_weights_zero`) and used by both
engines and every kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import CostCounters
from repro.gpusim.warp import WARP_SIZE, WarpModel
from repro.rng.streams import CountingStream
from repro.sampling.batch import BatchStepContext
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState


@dataclass
class StepContext:
    """Everything a sampling kernel needs to take one walk step.

    Attributes
    ----------
    graph / state / spec:
        The graph, the walker's state, and the workload logic.
    rng:
        The simulated thread's random stream.
    counters:
        Cost counters the kernel must add its operation counts to.
    bound_hint:
        Estimated upper bound on the maximum transition weight of the current
        node, produced by the compiler-generated ``get_weight_max`` helper.
        ``None`` means no bound is available (eRJS then falls back to a max
        reduction, like the baseline).
    sum_hint:
        Estimated sum of transition weights (``get_weight_sum`` helper),
        consumed by the runtime cost model rather than the kernels.
    warp_width:
        Number of cooperating lanes for warp-parallel kernels.
    """

    graph: CSRGraph
    state: WalkerState
    spec: WalkSpec
    rng: CountingStream
    counters: CostCounters = field(default_factory=CostCounters)
    bound_hint: float | None = None
    sum_hint: float | None = None
    warp_width: int = WARP_SIZE

    def warp(self) -> WarpModel:
        """A warp model bound to this step's counters."""
        return WarpModel(self.counters, width=self.warp_width)

    @property
    def degree(self) -> int:
        return self.graph.degree(self.state.current_node)

    def neighbors(self) -> np.ndarray:
        return self.graph.neighbors(self.state.current_node)


# ---------------------------------------------------------------------- #
# Dead-end rules (single source of truth for both execution modes)
# ---------------------------------------------------------------------- #
def is_dead_end(graph: CSRGraph, node: int) -> bool:
    """True when a walk cannot leave ``node`` because it has no out-edges.

    Both the scalar and the batched engine consult this exact rule before
    dispatching a step (the batched engine evaluates it vectorised as
    ``degrees == 0``), and every kernel's non-empty precheck goes through it
    too, so the two paths cannot diverge on termination behaviour.
    """
    return graph.degree(node) == 0


def all_weights_zero(weights: np.ndarray) -> bool:
    """True when no probability mass remains (all-zero transition weights).

    Transition weights are non-negative by contract (the CSR builder rejects
    negative property weights and the paper's ``w̃ = w · h`` is a product of
    non-negative factors), so "the sum is not positive" and "no element is
    positive" coincide; batch kernels test the latter per segment
    (:func:`~repro.sampling.batch.segment_any_positive`) while scalar kernels
    use this helper.  A walker whose weights are all zero terminates — e.g. a
    MetaPath dead end where no out-edge matches the schema label.
    """
    return weights.size == 0 or float(weights.sum()) <= 0.0


def gather_transition_weights(
    ctx: StepContext,
    passes: int = 1,
    coalesced: bool = True,
) -> np.ndarray:
    """Compute the transition weights of the current node and account the cost.

    Parameters
    ----------
    passes:
        How many full passes over the weight list the kernel makes; the
        baseline reservoir kernel reads the weights twice (once for the
        prefix sum, once while sampling) whereas eRVS reads them once.
    coalesced:
        Whether the accesses are warp-coalesced (sequential scans) or
        uncoalesced (per-lane random probes).
    """
    if passes < 1:
        raise SamplingError("passes must be at least 1")
    weights = ctx.spec.transition_weights(ctx.graph, ctx.state)
    degree = int(weights.size)
    if coalesced:
        ctx.counters.coalesced_accesses += degree * passes
    else:
        ctx.counters.random_accesses += degree * passes
    ctx.counters.weight_computations += degree
    # Workload-specific side data needed to evaluate the weights (e.g. the
    # previous node's adjacency list for the dist(v', u) checks, or the edge
    # labels for MetaPath) is read once per scan via a coalesced merge join.
    ctx.counters.coalesced_accesses += ctx.spec.scan_cost_words(ctx.graph, ctx.state)
    return weights


class Sampler(ABC):
    """Base class for next-node sampling kernels.

    A sampler receives a :class:`StepContext` and returns the *node id* of
    the chosen neighbour, or ``None`` when the walk cannot continue (the
    current node has no out-edges or every transition weight is zero, e.g. a
    MetaPath dead end).

    Attributes
    ----------
    name:
        Short kernel tag used in tables and the selection-ratio experiment.
    processing_unit:
        ``"thread"`` for one-lane kernels (rejection sampling) or ``"warp"``
        for warp-cooperative kernels (reservoir, alias, ITS) — this drives
        the concurrent-kernel switching model of Section 5.2.
    """

    name: str = "sampler"
    processing_unit: str = "warp"

    @abstractmethod
    def sample(self, ctx: StepContext) -> int | None:
        """Choose the next node for the walker in ``ctx``."""

    # ------------------------------------------------------------------ #
    def sample_batch(self, batch: BatchStepContext) -> np.ndarray:
        """Choose the next node for every walker in ``batch`` at once.

        Returns an ``int64`` array parallel to ``batch.walkers`` holding the
        chosen neighbour id per walker, or ``-1`` where the walk cannot
        continue (the batched encoding of a scalar ``None``).

        This is a template method: it applies the shared dead-end precheck
        (zero-degree walkers get ``-1`` with no charges, exactly like the
        scalar kernels' early return) and hands the all-nonempty remainder to
        :meth:`_sample_batch_nonempty`.  The built-in kernels override that
        hook with NumPy-vectorised implementations that draw from each
        walker's own counter-based random stream, making the result (and the
        per-walker operation counts) identical to running :meth:`sample`
        walker by walker; the default hook loops over scalar :meth:`sample`
        via :meth:`BatchStepContext.scalar_context`, so custom samplers work
        in the batched engine without a vectorised port.
        """
        out = np.full(batch.size, -1, dtype=np.int64)
        if batch.size == 0:
            return out
        nonempty = np.nonzero(batch.degrees > 0)[0]
        if nonempty.size < batch.size:
            if nonempty.size:
                out[nonempty] = self.sample_batch(batch.subset(nonempty))
            return out
        return self._sample_batch_nonempty(batch, out)

    def _sample_batch_nonempty(self, batch: BatchStepContext, out: np.ndarray) -> np.ndarray:
        """Batched sampling core; every walker is guaranteed an out-edge.

        ``out`` arrives filled with ``-1`` (the "walk ends" encoding) and
        must be returned with the chosen neighbour id of every walker that
        can continue.
        """
        for i in range(batch.size):
            ctx, counters = batch.scalar_context(i)
            chosen = self.sample(ctx)
            batch.absorb(i, counters)
            if chosen is not None:
                out[i] = chosen
        return out

    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_nonempty(ctx: StepContext) -> bool:
        """True when the current node has at least one out-edge."""
        return not is_dead_end(ctx.graph, ctx.state.current_node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
