"""Batched sampling infrastructure: segment primitives and the batch context.

The batched walk engine executes one *superstep* for a whole frontier of
walkers at a time.  Per-walker neighbour lists have different lengths, so the
frontier's candidate edges are flattened into one contiguous array segmented
by walker; the helpers here provide the per-segment reductions (sum, max,
first-argmax, running-maximum records, binary search) the vectorised kernels
are built from.

Parity with the scalar engine is a hard requirement (the selection studies
compare counter totals and simulated timings between modes), so every helper
is written to reproduce the numpy expression the scalar kernel uses — e.g.
:func:`segment_bisect` replays ``np.searchsorted``'s bisection decisions
exactly, and sums that feed *values* (not just sign checks) are left to the
per-walker cores of the kernels that need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.gpusim.counters import CostCounters, CounterBatch
from repro.gpusim.warp import WARP_SIZE
from repro.rng.streams import BatchStreams, CountingStream
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerFrontier

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports batch)
    from repro.sampling.base import StepContext
    from repro.sampling.transition_cache import TransitionCache
    from repro.walks.state import WalkerState


class BufferArena:
    """Reusable per-run scratch buffers, recycled across supersteps.

    The frontier loop materialises the same flattened segment arrays every
    superstep (offsets, walker slot ids, the flat edge enumeration).  The
    arena hands out geometrically grown buffers keyed by role, so once the
    frontier's high-water mark is reached no superstep allocates them again.
    A buffer stays valid until the same key is requested next superstep; the
    engine requests each key at most once per superstep and subset contexts
    allocate their own (smaller) arrays instead of sharing the arena.
    """

    __slots__ = ("_buffers", "_arange")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._arange = np.zeros(0, dtype=np.int64)

    def int64(self, key: str, size: int) -> np.ndarray:
        """A writable ``int64`` scratch view of the given size for ``key``."""
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(max(int(size), 2 * (0 if buf is None else buf.size)), dtype=np.int64)
            self._buffers[key] = buf
        return buf[:size]

    def arange(self, size: int) -> np.ndarray:
        """A read-only view of ``[0, size)`` (shared across all callers)."""
        if self._arange.size < size:
            self._arange = np.arange(max(int(size), 2 * self._arange.size), dtype=np.int64)
            self._arange.flags.writeable = False
        return self._arange[:size]


# ---------------------------------------------------------------------- #
# Segment primitives
# ---------------------------------------------------------------------- #
def segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """``[0, cumsum(lengths)]`` — start/stop positions of each segment."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def segment_ids(lengths: np.ndarray) -> np.ndarray:
    """Segment index of every flattened element."""
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def local_positions(lengths: np.ndarray) -> np.ndarray:
    """Position of every flattened element within its own segment."""
    offsets = segment_offsets(lengths)
    seg = segment_ids(lengths)
    return np.arange(int(offsets[-1]), dtype=np.int64) - offsets[:-1][seg]


def segment_any_positive(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per segment: does any element exceed zero?

    For the non-negative transition weights every kernel operates on, this is
    exactly the scalar kernels' ``weights.sum() > 0`` dead-end test, without
    depending on floating-point summation order.
    """
    seg = segment_ids(lengths)
    counts = np.bincount(seg[values > 0], minlength=lengths.size)
    return counts > 0


def segment_max(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment maximum (exact — max is order-independent).

    Empty segments yield ``-inf``.
    """
    out = np.full(lengths.size, -np.inf, dtype=np.float64)
    nonempty = lengths > 0
    if not nonempty.any():
        return out
    offsets = segment_offsets(lengths)
    out[nonempty] = np.maximum.reduceat(
        values.astype(np.float64, copy=False), offsets[:-1][nonempty]
    )
    return out


#: Padded cells below which :func:`padded_race` races every segment in one
#: matrix: per-class numpy calls cost more than padding that small.
_RACE_ONE_MATRIX = 4096


def padded_race(
    values: np.ndarray, lengths: np.ndarray, record_from: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment first argmax and running-maximum record count.

    Returns ``(choice, records)``: ``choice[i]`` is the index, local to
    segment ``i``, of the first occurrence of its maximum (``np.argmax``
    tie-breaking); ``records[i]`` counts the positions ``j >= record_from``
    whose value beats the maximum of everything before them in the segment
    (all zero when ``record_from`` is ``None``).  Segments must be
    non-empty.

    Segments are raced one power-of-two length class at a time: a class's
    rows are padded with ``-inf`` to ``(rows, longest row)`` and reduced
    along the rows by ``np.maximum.accumulate`` and ``argmax``.  Padding
    costs at most twice the elements that way; when one matrix over every
    segment costs no more (or is small), it is raced at once.  Both are
    exact, and padding can neither win nor set a record, so the results do
    not depend on the grouping.  A record at ``j`` is exactly a rise of the
    running maximum between ``j - 1`` and ``j``, and the running maximum
    first reaches the segment maximum where the values do, so one
    accumulated matrix answers both.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    choice = np.zeros(lengths.size, dtype=np.int64)
    records = np.zeros(lengths.size, dtype=np.int64)
    if lengths.size == 0:
        return choice, records
    starts = segment_offsets(lengths)[:-1]
    if lengths.size * int(lengths.max()) <= max(2 * values.size, _RACE_ONE_MATRIX):
        groups = [slice(None)]
    else:
        classes = np.frexp(lengths - 1)[1]  # ceil(log2(length)), exact
        order = np.argsort(classes, kind="stable")
        ends = np.cumsum(np.bincount(classes)).tolist()
        groups = [order[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends, strict=True) if hi > lo]
    for rows in groups:
        row_lengths = lengths[rows]
        columns = np.arange(int(row_lengths.max()), dtype=np.int64)
        race = np.take(values, starts[rows, None] + columns, mode="clip")
        race[columns >= row_lengths[:, None]] = -np.inf
        if record_from is not None and columns.size > record_from:
            np.maximum.accumulate(race, axis=1, out=race)
            records[rows] = np.count_nonzero(
                race[:, record_from:] > race[:, record_from - 1:-1], axis=1
            )
        choice[rows] = race.argmax(axis=1)
    return choice, records


def segment_bisect(
    sorted_flat: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    queries: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """Vectorised binary search of each query within its own sorted slice.

    Searches ``sorted_flat[lo[i]:hi[i]]`` for ``queries[i]`` and returns the
    *absolute* insertion position, replaying exactly the bisection
    ``np.searchsorted`` performs (so results agree even on degenerate input).
    """
    lo = np.asarray(lo, dtype=np.int64).copy()
    hi = np.asarray(hi, dtype=np.int64).copy()
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    while True:
        open_mask = lo < hi
        if not open_mask.any():
            return lo
        mid = (lo + hi) >> 1
        probe = np.where(open_mask, mid, 0)
        vals = sorted_flat[probe]
        if side == "left":
            go_right = vals < queries
        else:
            go_right = vals <= queries
        go_right &= open_mask
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(open_mask & ~go_right, mid, hi)


# ---------------------------------------------------------------------- #
# The batch step context
# ---------------------------------------------------------------------- #
@dataclass
class BatchStepContext:
    """Everything a batch sampling kernel needs for one superstep partition.

    The batched analogue of :class:`~repro.sampling.base.StepContext`: it
    describes *many* walkers about to take one step each.  Candidate edges of
    all walkers are exposed in flattened (segmented) form; cost accounting
    goes into per-walker slots of a shared :class:`CounterBatch`; random
    draws come from per-walker counter-based streams via
    :class:`~repro.rng.streams.BatchStreams`.

    Attributes
    ----------
    graph / spec:
        The graph and the workload logic (shared by every walker).
    frontier:
        Array-form walker state of the whole run.
    walkers:
        Frontier indices of the walkers in this context.
    rng:
        Batched per-walker random streams, parallel to ``walkers``.
    counters / slots:
        The superstep's :class:`CounterBatch` and the slot of each walker in
        it.  Kernels charge through :meth:`charge` so partitions of one
        superstep share a single per-walker accounting row — required for the
        one-float-add-per-step timing parity with the scalar engine.
    bound_hints / sum_hints:
        Compiler-estimated per-walker max/sum hints (``NaN`` = unavailable),
        the batched form of ``StepContext.bound_hint`` / ``sum_hint``.
    warp_width:
        Cooperative width for warp kernels.
    transition_cache:
        Cross-superstep per-node weight/CDF/alias cache, present only when
        the compiler classified the workload as node-only
        (``weights_node_only``); :meth:`transition_weights` and the ITS/ALS
        kernels consult it instead of recomputing.  Host-side only — the
        simulated cost accounting is identical with or without it.
    arena:
        Optional per-run scratch-buffer arena; when present, the flattened
        segment arrays are built into recycled buffers instead of fresh
        allocations every superstep.
    node_aggregates:
        Flexi-Compiler's per-node preprocessing aggregates of the graph
        (``"weights_max"``, ``"weights_sum"``, ... — see
        :class:`~repro.compiler.preprocess.PreprocessResult`), when the
        workload was compiled.  Spec hooks read per-node bounds from here
        (e.g. Node2Vec's ``weight_ceiling_batch``) instead of re-reducing
        rows every superstep.
    """

    graph: CSRGraph
    spec: WalkSpec
    frontier: WalkerFrontier
    walkers: np.ndarray
    rng: BatchStreams
    counters: CounterBatch
    slots: np.ndarray
    bound_hints: np.ndarray | None = None
    sum_hints: np.ndarray | None = None
    warp_width: int = WARP_SIZE
    transition_cache: TransitionCache | None = None
    arena: BufferArena | None = None
    node_aggregates: dict[str, np.ndarray] | None = None
    _flat: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return int(self.walkers.size)

    @property
    def current(self) -> np.ndarray:
        return self.frontier.current[self.walkers]

    @property
    def prev(self) -> np.ndarray:
        return self.frontier.prev[self.walkers]

    @property
    def steps(self) -> np.ndarray:
        return self.frontier.steps[self.walkers]

    # -- flattened frontier edges -------------------------------------- #
    @property
    def edge_start(self) -> np.ndarray:
        """Global edge index where each walker's neighbour list begins."""
        return self._cached("edge_start", lambda: self.graph.indptr[self.current])

    @property
    def degrees(self) -> np.ndarray:
        return self._cached(
            "degrees", lambda: self.graph.indptr[self.current + 1] - self.edge_start
        )

    @property
    def offsets(self) -> np.ndarray:
        """Start/stop of each walker's segment in the flattened arrays."""

        def build() -> np.ndarray:
            if self.arena is not None:
                out = self.arena.int64("offsets", self.degrees.size + 1)
                out[0] = 0
                np.cumsum(self.degrees, out=out[1:])
                return out
            return segment_offsets(self.degrees)

        return self._cached("offsets", build)

    @property
    def seg_ids(self) -> np.ndarray:
        return self._cached("seg_ids", lambda: segment_ids(self.degrees))

    @property
    def flat_edges(self) -> np.ndarray:
        """Global edge index of every flattened candidate edge."""

        def build() -> np.ndarray:
            base = np.repeat(self.edge_start - self.offsets[:-1], self.degrees)
            total = int(self.offsets[-1])
            if self.arena is not None:
                base += self.arena.arange(total)
                return base
            return base + np.arange(total, dtype=np.int64)

        return self._cached("flat_edges", build)

    @property
    def neighbors_flat(self) -> np.ndarray:
        """Destination node of every flattened candidate edge."""
        return self._cached("neighbors_flat", lambda: self.graph.indices[self.flat_edges])

    def _cached(self, key: str, build):
        value = self._flat.get(key)
        if value is None:
            value = build()
            self._flat[key] = value
        return value

    def edge_mask(self, idx: np.ndarray) -> np.ndarray:
        """Boolean mask over the flattened edges of the given walkers.

        Projects a per-walker index set onto the flat candidate-edge arrays,
        selecting exactly the segments owned by those walkers.
        """
        keep = np.zeros(self.size, dtype=bool)
        keep[idx] = True
        return keep[self.seg_ids]

    # ------------------------------------------------------------------ #
    def charge(self, name: str, amount: np.ndarray | int, idx: np.ndarray | None = None) -> None:
        """Charge a counter for every walker (or the subset ``idx``)."""
        slots = self.slots if idx is None else self.slots[idx]
        getattr(self.counters, name)[slots] += amount

    def transition_weights(self) -> np.ndarray:
        """Flattened transition weights of every candidate edge (no accounting).

        Cached per superstep: a kernel that needs the weights twice (e.g.
        eRJS's trial probes plus its fallback) computes them once, exactly
        like the scalar kernels materialise the vector once.  When a
        cross-superstep :class:`TransitionCache` is attached (node-only
        workloads), the values are gathered from it instead of recomputed —
        same numbers, no per-step evaluation.
        """

        def build() -> np.ndarray:
            if self.transition_cache is not None:
                weights, _ = self.transition_cache.weight_arrays(self.current)
                return weights[self.flat_edges]
            return self.spec.transition_weights_batch(self.graph, self)

        return self._cached("weights", build)

    def gather_weights(self, passes: int = 1, coalesced: bool = True) -> np.ndarray:
        """Batched :func:`~repro.sampling.base.gather_transition_weights`.

        Returns the full flattened weight array and charges every walker's
        scan cost (:meth:`charge_scan`).
        """
        weights = self.transition_weights()
        self.charge_scan(passes, coalesced)
        return weights

    def charge_scan(self, passes: int = 1, coalesced: bool = True,
                    idx: np.ndarray | None = None) -> None:
        """Charge the modeled scan of the weight lists, gathering nothing.

        For every walker, or only for the subset ``idx`` (used when only some
        walkers of a partition take the scanning path).  Kernels whose host
        code already has the values it needs (e.g. a cached row maximum)
        charge the scan their modeled kernel still performs through this.
        """
        degrees = self.degrees if idx is None else self.degrees[idx]
        field_name = "coalesced_accesses" if coalesced else "random_accesses"
        self.charge(field_name, degrees * passes, idx)
        self.charge("weight_computations", degrees, idx)
        scan_words = self.spec.scan_cost_words_batch(self.graph, self)
        self.charge("coalesced_accesses", scan_words if idx is None else scan_words[idx], idx)

    # -- scalar-fallback bridge ---------------------------------------- #
    def state(self, i: int) -> WalkerState:
        """Object-form state of the ``i``-th walker in this context."""
        return self.frontier.state_view(self.walkers[int(i)])

    def stream(self, i: int) -> CountingStream:
        """The ``i``-th walker's scalar random stream."""
        return self.rng.stream(i)

    def scalar_context(self, i: int) -> tuple["StepContext", CostCounters]:
        """A scalar :class:`StepContext` for one walker, plus its counters.

        The bridge that lets samplers and selectors without a vectorised
        implementation run their scalar code unchanged inside the batched
        engine: run the kernel on the returned context, then fold the
        counters back with ``absorb(i, counters)``.
        """
        from repro.sampling.base import StepContext

        counters = CostCounters(bytes_per_weight=self.counters.bytes_per_weight)
        bound = None
        if self.bound_hints is not None and not np.isnan(self.bound_hints[i]):
            bound = float(self.bound_hints[i])
        total = None
        if self.sum_hints is not None and not np.isnan(self.sum_hints[i]):
            total = float(self.sum_hints[i])
        ctx = StepContext(
            graph=self.graph,
            state=self.state(i),
            spec=self.spec,
            rng=self.stream(i),
            counters=counters,
            bound_hint=bound,
            sum_hint=total,
            warp_width=self.warp_width,
        )
        return ctx, counters

    def absorb(self, i: int, counters: CostCounters) -> None:
        """Fold a scalar context's counters into walker ``i``'s slot."""
        self.counters.absorb(int(self.slots[int(i)]), counters)

    # ------------------------------------------------------------------ #
    def subset(self, idx: np.ndarray) -> BatchStepContext:
        """A context over a subset of the walkers (shared counter batch).

        The transition cache is shared (it is keyed by node, not by walker);
        the arena is not — a subset materialising its own segment arrays must
        not overwrite the parent's recycled buffers mid-superstep.
        """
        return BatchStepContext(
            graph=self.graph,
            spec=self.spec,
            frontier=self.frontier,
            walkers=self.walkers[idx],
            rng=self.rng.subset(idx),
            counters=self.counters,
            slots=self.slots[idx],
            bound_hints=None if self.bound_hints is None else self.bound_hints[idx],
            sum_hints=None if self.sum_hints is None else self.sum_hints[idx],
            warp_width=self.warp_width,
            transition_cache=self.transition_cache,
            node_aggregates=self.node_aggregates,
        )
