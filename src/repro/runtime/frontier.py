"""The batched, step-synchronous walk execution loop (frontier engine).

This is the execution shape real GPU walk frameworks use (FlowWalker's and
C-SAW's frontier kernels): instead of interpreting one query at a time, every
*superstep* gathers all still-active walkers, evaluates the per-walker kernel
selection once, partitions the frontier by chosen kernel and executes each
partition through one vectorised ``sample_batch`` call.

The loop is simulation-equivalent to :meth:`WalkEngine._run_scalar` by
construction, not by accident:

* randomness — every walker owns the same counter-based stream in both modes
  and the batch kernels consume the same counter ranges, so the sampled paths
  are identical;
* counters — each walker's per-step operation counts land in its own
  :class:`~repro.gpusim.counters.CounterBatch` slot, and every superstep adds
  exactly one priced float per active walker to ``per_query_ns`` (the same
  accumulation order as the scalar loop), so counter totals and simulated
  timings match;
* termination — both modes consult the same dead-end rules from
  :mod:`repro.sampling.base`.

The one documented exception is :class:`~repro.runtime.selector.RandomSelector`,
whose shared-generator coin flips cannot be replayed step-synchronously.

Every batched run is one :class:`FrontierLaunch`: a :class:`FrontierRun`
executed through :func:`iter_supersteps`, recovering from faults through
:class:`~repro.runtime.faults.RunRecovery`, whose
:meth:`~FrontierLaunch.advance` folds each superstep into the
:class:`FrontierDriver` every walker belongs to.  A driver owns the launch
accounting, one placement ledger (none, :class:`ReplicatedRunAccounting` or
:class:`ShardedRunAccounting`), the result ledger every finished walk
settles into, and the result assembly.  A driver's own launch holds only
its walkers; a scheduler fusion group's launch holds several sessions'
walkers and folds each superstep into each of their drivers.
``WalkEngine.run`` launches everything and collects; a ``WalkSession``
launches waves and streams their supersteps.  Multi-device runs advance
every device's walkers in the same shared superstep — the ledger only
decides where each walker's work lands — so a D-device run costs one
Python loop instead of D.  The
serial per-device composition is kept as :func:`run_multi_device_serial`,
the executable specification the replicated ledger is property-tested
against.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.counters import COUNT_ROWS, CostCounters, CounterBatch
from repro.gpusim.executor import KernelExecutor, KernelResult
from repro.rng.streams import AdoptedStreamPool
from repro.runtime.faults import reassign_owners
from repro.runtime.scheduler import validate_queries
from repro.sampling.batch import BatchStepContext, BufferArena
from repro.walks.paths import PathTable
from repro.walks.state import QueryBatch, WalkerFrontier, WalkQuery

if TYPE_CHECKING:  # pragma: no cover - engine imports frontier
    from repro.runtime.engine import WalkEngine, WalkRunResult
    from repro.runtime.profiler import ProfileResult


class NodeHintTables:
    """Per-node bound/sum hint tables (node-only workloads).

    When ``compiled.hints_node_only`` (which implies a supported workload)
    the compiler helpers are a pure
    function of the current node, so their values can be cached per node and
    shared by every walker that ever visits it.  ``NaN`` is the array form
    of the scalar ``None`` ("no estimate").

    The tables are filled when built: one vectorised
    :meth:`~repro.compiler.generator.GeneratedHelpers.estimate_hints_nodes`
    replay over every node (the generated helpers with per-node aggregate
    *arrays* bound in place of scalars), after which :meth:`lookup` is two
    gathers.  When that replay bails on the whole node set — e.g. a helper
    that divides by a zero degree — the tables stay lazy instead: entries
    are computed on first visit through
    :meth:`~repro.compiler.generator.CompiledWorkload.hint_nodes`, whose
    exact per-node fallback covers the unsafe nodes, and a mask tracks
    which entries are populated.  The values are equal either way, because
    the replay is element-wise and the scalar fallback is exact.
    """

    def __init__(self, compiled, graph) -> None:
        self._compiled = compiled
        self._graph = graph
        n = graph.num_nodes
        self.bounds = np.full(n, np.nan, dtype=np.float64)
        self.sums = np.full(n, np.nan, dtype=np.float64)
        self._computed = np.zeros(n, dtype=bool)
        #: True while every entry is populated (``lookup`` only gathers).
        self._complete = self._fill(np.arange(n, dtype=np.int64))

    def _fill(self, nodes: np.ndarray) -> bool:
        """Evaluate ``nodes`` with one vectorised replay; False if it bails."""
        if nodes.size == 0:
            return True
        replay = self._compiled.replay_hint_nodes(self._graph, nodes)
        if replay is None:
            return False
        self.bounds[nodes], self.sums[nodes] = replay
        self._computed[nodes] = True
        return True

    def rebind(self, graph, touched_nodes: np.ndarray, compiled=None) -> None:
        """Scoped invalidation contract: follow a graph delta in place.

        Called by the versioned invalidation layer
        (:mod:`repro.graph.invalidation`).  The per-node arrays are
        fixed-size, so the repair is scoped to the touched rows: a complete
        table re-fills them with one vectorised replay (a lazy one, or one
        whose replay bails on them, clears them to refill on first visit).
        Untouched rows — and the ``bounds`` / ``sums`` arrays themselves —
        keep their object identity.  ``compiled`` must be the new version's
        compiled workload whenever the workload preprocesses the graph (its
        per-node aggregates are graph-derived); ``None`` keeps the current
        one.
        """
        touched = np.asarray(touched_nodes, dtype=np.int64)
        self._graph = graph
        if compiled is not None:
            self._compiled = compiled
        self.bounds[touched] = np.nan
        self.sums[touched] = np.nan
        self._computed[touched] = False
        if self._complete:
            self._complete = self._fill(touched)

    def lookup(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hints for the given nodes (evaluating missing entries when lazy)."""
        if self._complete:
            return self.bounds[nodes], self.sums[nodes]
        pending = np.unique(nodes[~self._computed[nodes]])
        if pending.size:
            bounds, sums = self._compiled.hint_nodes(self._graph, pending)
            self.bounds[pending] = bounds
            self.sums[pending] = sums
            self._computed[pending] = True
        return self.bounds[nodes], self.sums[nodes]


@dataclass(frozen=True)
class SuperstepReport:
    """What one superstep of the frontier loop did.

    Yielded by :func:`iter_supersteps` after each superstep's accounting has
    already landed in the caller-supplied ``per_query_ns`` / ``aggregate`` /
    ``usage`` structures, so observers (the placement ledgers, the streaming
    session layer) only need the per-superstep views.

    Attributes
    ----------
    active:
        Frontier indices that executed a walk step this superstep (dead-end
        walkers are excluded — they terminate without charging a step).
    counters:
        The superstep's :class:`~repro.gpusim.counters.CounterBatch`; slot
        ``j`` holds the counts charged to walker ``active[j]``.
    finished:
        Frontier indices whose walks completed during this superstep, for
        any reason: dead end, all-zero transition weights, or the walk
        reaching its maximum length.  Sorted ascending.
    nodes:
        Node walker ``active[j]`` occupied when it executed this
        superstep's step (captured *before* the frontier advanced) — what
        the sharded accounting attributes work and migrations by.
    step_ns:
        The priced lane time of each active walker's step — the exact
        values already accumulated into ``per_query_ns``, exposed so
        observers do not re-price the counter batch.
    sampler_names:
        Names of the kernels the selector chose this superstep, in the
        selector's partition order (empty for dead-end-only reports).
    assignment:
        ``assignment[j]`` is the index into ``sampler_names`` of the kernel
        walker ``active[j]`` executed — what lets a fused launch split its
        ``sampler_usage`` back out per owner exactly.  ``None`` for
        dead-end-only reports.
    sizes:
        Walkers each kernel of ``sampler_names`` ran (empty for dead-end-only
        reports): a launch with one owner reads its usage from here.
    totals:
        ``counters.totals()``, as already merged into ``aggregate``
        (``None`` for dead-end-only reports).
    """

    active: np.ndarray
    counters: CounterBatch
    finished: np.ndarray
    nodes: np.ndarray
    step_ns: np.ndarray
    sampler_names: tuple[str, ...] = ()
    assignment: np.ndarray | None = None
    totals: CostCounters | None = None
    sizes: tuple[int, ...] = ()

    @property
    def steps(self) -> int:
        """Walker-steps executed this superstep (one per active walker)."""
        return int(self.active.size)


#: Shared empty finished-set for untracked supersteps.
_NO_FINISHED = np.zeros(0, dtype=np.int64)

#: Most candidate edges one warp-kernel call runs over.  A warp partition
#: whose rows hold more is split into contiguous walker blocks of at most
#: this many edges (a longer row is a block of its own).  Each per-edge
#: temporary of a block — weights, edge-key queries, Philox counters, race
#: keys — is then at most 256 KiB of float64/int64, so it is served from
#: the malloc heap instead of freshly mmapped (and page-faulted) pages, and
#: a block's working set fits a 2 MiB L2.  Streams are keyed per walker and
#: counts land per slot, so the split cannot change any walk, count or
#: simulated time.
_EDGE_BLOCK = 32_768


def _edge_blocks(degrees: np.ndarray) -> list[slice]:
    """Contiguous slices of ``degrees`` holding at most ``_EDGE_BLOCK`` edges.

    Greedy from the front: each block takes as many rows as fit, and a row
    longer than the limit forms a block by itself.
    """
    ends = np.cumsum(degrees)
    blocks = []
    lo, base = 0, 0
    while lo < ends.size:
        hi = max(int(np.searchsorted(ends, base + _EDGE_BLOCK, side="right")), lo + 1)
        blocks.append(slice(lo, hi))
        lo, base = hi, int(ends[hi - 1])
    return blocks


class FrontierRun:
    """The execution state of a frontier run: walkers, streams, per-query times.

    :func:`iter_supersteps` re-reads all three at the top of every
    superstep, so an :meth:`admit` between two ``next()`` calls takes effect
    on the very next superstep.  Each :class:`FrontierLaunch` holds one: a
    driver's launch admits once, a scheduler fusion group's admits at
    superstep boundaries.  Streams live in an
    :class:`~repro.rng.streams.AdoptedStreamPool`, one slot per walker keyed
    by its query id.

    Admission prices each new walker's queue fetch (one atomic, priced
    per-slot); because
    :meth:`~repro.gpusim.device.DeviceSpec.lane_times_ns` prices each slot
    independently of batch size, splitting one launch into many admissions
    cannot change any walker's accounting.
    """

    __slots__ = ("engine", "frontier", "pool", "per_query_ns")

    def __init__(self, engine: WalkEngine) -> None:
        self.engine = engine
        self.frontier = WalkerFrontier([])
        self.pool = AdoptedStreamPool()
        self.per_query_ns = np.zeros(0, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.frontier)

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the walkers at the ascending positions ``keep``.

        The survivors are renumbered ``0..len(keep)-1`` in order across the
        frontier, the stream pool and ``per_query_ns``; their streams move
        with them (each is keyed by its query id), so no walk changes.
        """
        self.frontier.compact(keep)
        self.pool.compact(keep)
        self.per_query_ns = self.per_query_ns[keep]

    def admit(self, queries: QueryBatch | Sequence[WalkQuery], seed: int) -> np.ndarray:
        """Admit queries whose streams derive from ``StreamPool(seed)``.

        Returns their priced fetch times (already appended to
        ``per_query_ns``); the fetch atomics are the caller's to count.
        """
        batch = QueryBatch.of(queries)
        self.frontier.extend(batch)
        self.pool.adopt(seed, batch.query_ids)
        fetch = CounterBatch(len(batch), bytes_per_weight=self.engine.weight_bytes)
        fetch.atomic_ops += 1
        fetch_ns = self.engine.device.lane_times_ns(fetch)
        self.per_query_ns = np.concatenate([self.per_query_ns, fetch_ns])
        return fetch_ns


def iter_supersteps(
    engine: WalkEngine,
    run: FrontierRun,
    aggregate: CostCounters,
    usage: dict[str, int],
    track_finished: bool = True,
):
    """Step-synchronous frontier loop, one :class:`SuperstepReport` at a time.

    The generator form of the batched execution core: each ``next()``
    advances every still-active walker of ``run`` by one step, lands the
    per-walker accounting in ``run.per_query_ns`` (indexed by frontier
    position) and ``aggregate``, and yields a :class:`SuperstepReport`
    describing what happened — which walkers stepped, what they charged,
    and whose walks completed.  :meth:`FrontierLaunch.advance` drives it,
    for a :class:`FrontierDriver`'s launches and for a continuous-batching
    fusion group alike; the fault-recovery replay is its only other caller.

    Because every walker owns a counter-based random stream keyed by its
    query id and every walker's counts land in its own slot, suspending the
    generator between supersteps (or splitting a batch across several
    frontiers) cannot change any walk, count or simulated time.

    ``track_finished=False`` skips the per-superstep completion bookkeeping
    (reports carry an empty ``finished``) — used by one-shot driver runs,
    which never read it.

    The run's frontier, stream pool and per-query times are re-read at the top
    of every superstep, so walkers admitted between ``next()`` calls join
    the very next superstep and a checkpoint restore rewinds the loop in
    place.  The generator returns when a ``next()`` finds no walker
    active; a suspended one resumes cleanly after an admission, and an
    exhausted one is simply recreated (all state lives on the run and the
    shared engine caches, so recreation is cheap).
    """
    graph, spec, device = engine.graph, engine.spec, engine.device

    hints_available = engine.compiled is not None and engine.compiled.supported
    hint_tables: NodeHintTables | None = None
    if hints_available and engine.compiled.hints_node_only:
        hint_tables = engine._node_hint_tables()
    cache = engine._transition_cache()
    arena = BufferArena()
    preprocessed = engine.compiled.preprocessed if hints_available else None
    node_aggregates = None if preprocessed is None else preprocessed.aggregates

    while True:
        frontier = run.frontier
        per_query_ns = run.per_query_ns
        active = frontier.active_indices()
        if active.size == 0:
            return
        # Consolidated dead-end rule, vectorised (see sampling.base.is_dead_end).
        # The nodes the steps execute on are captured before the frontier
        # advances (fancy indexing copies, so the later in-place advance
        # cannot alias them).
        step_nodes = frontier.current[active]
        edge_start = graph.indptr[step_nodes]
        degrees = graph.indptr[step_nodes + 1] - edge_start
        dead = degrees == 0
        dead_finished = active[dead]
        if dead_finished.size:
            frontier.terminate(dead_finished)
            live = ~dead
            active, step_nodes = active[live], step_nodes[live]
            edge_start, degrees = edge_start[live], degrees[live]
            if active.size == 0:
                # Every remaining walker hit a dead end: report the
                # completions without charging a step.
                yield SuperstepReport(
                    active=active,
                    counters=CounterBatch(0, bytes_per_weight=engine.weight_bytes),
                    finished=dead_finished if track_finished else _NO_FINISHED,
                    nodes=active,
                    step_ns=np.zeros(0, dtype=np.float64),
                )
                continue  # walkers admitted meanwhile step next
        k = active.size
        # Every walker steps (no dead end, none finished before): the
        # per-walker updates below are whole-array passes, not scatters.
        all_step = k == frontier.steps.size

        counters = CounterBatch(k, bytes_per_weight=engine.weight_bytes)
        bound_hints = sum_hints = None
        if hints_available:
            if hint_tables is not None:
                bound_hints, sum_hints = hint_tables.lookup(step_nodes)
            else:
                # State-dependent hints: evaluate the helpers per walker,
                # exactly like the scalar engine does per step.
                bound_hints = np.full(k, np.nan, dtype=np.float64)
                sum_hints = np.full(k, np.nan, dtype=np.float64)
                for j, walker in enumerate(active):
                    state = frontier.state_view(int(walker))
                    bound = engine.compiled.bound_hint(graph, state)
                    if bound is not None:
                        bound_hints[j] = bound
                    total = engine.compiled.sum_hint(graph, state)
                    if total is not None:
                        sum_hints[j] = total
            if engine.selection_overhead:
                # Reading the two preprocessed aggregates feeding the
                # estimation helpers, plus their arithmetic.
                counters.coalesced_accesses += 2
                counters.weight_computations += 2

        ctx = BatchStepContext(
            graph=graph,
            spec=spec,
            frontier=frontier,
            walkers=active,
            rng=run.pool.batch_at(active),
            counters=counters,
            slots=arena.arange(k),
            bound_hints=bound_hints,
            sum_hints=sum_hints,
            warp_width=engine.warp_width,
            transition_cache=cache,
            arena=arena,
            node_aggregates=node_aggregates,
            _flat={"edge_start": edge_start, "degrees": degrees},
        )
        samplers, assignment = engine.selector.select_batch(ctx)

        next_nodes = np.full(k, -1, dtype=np.int64)
        # Dead-end walkers have no candidates, so this is the active set's.
        blocked = int(degrees.sum()) > _EDGE_BLOCK
        sizes = np.bincount(assignment, minlength=len(samplers)).tolist()
        for position, sampler in enumerate(samplers):
            if sizes[position] == 0:
                continue
            # A kernel that owns the whole superstep runs on the context
            # itself (whose slots are its walkers' indices, 0..k-1).
            whole = sizes[position] == k
            part = ctx.slots if whole else (assignment == position).nonzero()[0]
            warp = sampler.processing_unit == "warp"
            if engine.warp_switch_overhead and warp:
                # The concurrent kernel votes (__ballot_sync) and shares the
                # query parameters (__shfl_sync) before the warp switches
                # into the cooperative mode.
                ctx.charge("warp_syncs", 1, part)
            if blocked and warp:
                # Edge-parallel kernels run over cache-sized walker blocks.
                for block in _edge_blocks(ctx.degrees[part]):
                    rows = part[block]
                    next_nodes[rows] = sampler.sample_batch(ctx.subset(rows))
            else:
                next_nodes[part] = sampler.sample_batch(ctx if whole else ctx.subset(part))
            usage[sampler.name] = usage.get(sampler.name, 0) + int(part.size)
            if engine.step_overhead is not None:
                _apply_step_overhead(engine, ctx, part, sampler)

        # The kernels ran on ``ctx`` itself: release the flattened arrays
        # they cached on it before the generator suspends.
        del ctx
        step_ns = device.lane_times_ns(counters)
        if all_step:
            per_query_ns += step_ns
        else:
            per_query_ns[active] += step_ns
        totals = counters.totals()
        aggregate.merge(totals)

        advancing = next_nodes >= 0
        moving = active[advancing]
        if moving.size < k:
            frontier.terminate(active[~advancing])
            all_step = False
        if moving.size:
            targets = next_nodes[advancing]
            spec.update_batch(graph, frontier, moving, targets)
            frontier.advance(moving, targets)
        # Walks complete by sampling failure (all-zero weights), by reaching
        # their maximum length, or — reported above the step charge — by
        # hitting a dead end.
        if track_finished and all_step:
            finished = (frontier.steps >= frontier.max_lengths).nonzero()[0]
        elif track_finished:
            exhausted = moving[frontier.steps[moving] >= frontier.max_lengths[moving]]
            if dead_finished.size or moving.size < k:
                finished = np.sort(
                    np.concatenate([dead_finished, active[~advancing], exhausted])
                )
            else:
                finished = exhausted  # a subset of the sorted active set
        else:
            finished = _NO_FINISHED
        yield SuperstepReport(
            active=active,
            counters=counters,
            finished=finished,
            nodes=step_nodes,
            step_ns=step_ns,
            sampler_names=tuple([s.name for s in samplers]),
            assignment=assignment,
            totals=totals,
            sizes=tuple(sizes),
        )
        # Free this superstep's counter matrix before the next one
        # allocates its own (the caller has dropped the report by then).
        del counters


def _partition_for_devices(engine: WalkEngine, starts: np.ndarray) -> list[np.ndarray]:
    """Partition walkers (by start node) with the engine's policy."""
    from repro.gpusim.multigpu import partition_queries

    graph = engine.graph
    # The balanced policy packs by start-node out-degree — the first-order
    # proxy for a walk's cost that is known *before* the walk runs (+1 so
    # zero-degree starts still carry their fetch cost).
    degrees = graph.indptr[starts + 1] - graph.indptr[starts] + 1
    return partition_queries(
        starts, engine.num_devices, engine.partition_policy, costs=degrees
    )


class ReplicatedRunAccounting:
    """Per-device bookkeeping of a replicated-graph multi-device run.

    Every device holds the whole graph and the queries are partitioned over
    the devices by the engine's policy (Fig. 15).  Each walker's integer
    operation counts — its queue fetch plus every step — accumulate in its
    own column, keyed by its submission ordinal, so the partition is taken
    at assembly time over every launched walker in submission order: a
    session that launched its queries in several waves, or whose walkers a
    scheduler admitted out of order, gets exactly the partition, per-device
    counters and per-device schedules of the one-shot run.

    A permanent device failure (degraded mode) pins the ownership down: the
    counts executed so far settle on the devices that ran them, and the dead
    device's walkers move round-robin onto the survivors for the rest of the
    run (:func:`~repro.runtime.faults.reassign_owners`).
    """

    def __init__(self, engine: WalkEngine) -> None:
        self.engine = engine
        self.num_devices = engine.num_devices
        fields = len(CostCounters._COUNT_FIELDS)
        # Column = submission ordinal; start -1: nothing launched there.
        self._starts = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros((fields, 0), dtype=np.int64)
        # Counts settled on their executing device by a failure, and the
        # ownership a failure fixed (None: partition at assembly).
        self._settled = np.zeros((fields, self.num_devices), dtype=np.int64)
        self._fixed: np.ndarray | None = None

    def charge_fetch(
        self, columns: np.ndarray, start_nodes: np.ndarray, fetch_ns: np.ndarray
    ) -> None:
        """Open the walkers' columns with their queue-fetch atomic."""
        grow = int(columns.max(initial=-1)) + 1 - self._starts.size
        if grow > 0:
            self._starts = np.concatenate([self._starts, np.full(grow, -1, dtype=np.int64)])
            self._counts = np.pad(self._counts, ((0, 0), (0, grow)))
        self._starts[columns] = start_nodes
        self._counts[_ATOMIC_ROW, columns] = 1

    def add(self, columns: np.ndarray, counts: np.ndarray) -> None:
        """Add a ``(fields, walkers)`` count matrix into the walkers' columns."""
        self._counts[:, columns] += counts

    def observe(
        self,
        report: SuperstepReport,
        frontier: WalkerFrontier,
        step_ordinal: int,
        columns: np.ndarray,
    ) -> None:
        """Land one superstep's per-walker counts in the walkers' columns
        (``columns[j]`` is walker ``report.active[j]``'s)."""
        self.add(columns, report.counters.counts)

    def owners(self) -> tuple[np.ndarray, np.ndarray]:
        """The launched columns, ascending, and the device of each."""
        columns = np.flatnonzero(self._starts >= 0)
        owner = np.empty(columns.size, dtype=np.int64)
        for d, part in enumerate(_partition_for_devices(self.engine, self._starts[columns])):
            owner[part] = d
        if self._fixed is not None:
            owner[: self._fixed.size] = self._fixed
        return columns, owner

    def take_over(
        self,
        dead: list[int],
        survivors: list[int],
        frontier: WalkerFrontier,
        columns: np.ndarray,
    ) -> None:
        """Degraded mode: settle counts so far, move the dead devices' walkers.

        With no survivors the replacement-device policy applies and nothing
        moves.
        """
        if not survivors:
            return
        columns, owner = self.owners()
        counts = self._counts[:, columns]
        for j in np.flatnonzero(counts.any(axis=1)):
            self._settled[j] += np.bincount(
                owner, weights=counts[j], minlength=self.num_devices
            ).astype(np.int64)
        self._counts[:] = 0
        reassign_owners(owner, dead, survivors)
        self._fixed = owner

    def device_kernels(
        self, scheduling: str, per_query_ns: np.ndarray
    ) -> list[KernelResult]:
        """One kernel per device over the walkers it owns, in submission
        order (``per_query_ns`` covers the launched walkers)."""
        columns, owner = self.owners()
        executor = KernelExecutor(self.engine.device)
        kernels = []
        for d in range(self.num_devices):
            part = np.flatnonzero(owner == d)
            totals = self._counts[:, columns[part]].sum(axis=1) + self._settled[:, d]
            kernels.append(
                executor.execute(
                    per_query_ns[part],
                    counters=_device_counters(self.engine, totals),
                    scheduling=scheduling,
                )
            )
        return kernels


#: Row of the queue-fetch atomic in the ledgers' per-field count matrices.
_ATOMIC_ROW = COUNT_ROWS["atomic_ops"]


def _device_counters(engine: WalkEngine, totals: np.ndarray) -> CostCounters:
    """One device's counters from a per-field column of integer totals."""
    agg = CostCounters(bytes_per_weight=engine.weight_bytes)
    for name, value in zip(CostCounters._COUNT_FIELDS, totals, strict=True):
        setattr(agg, name, int(value))
    return agg


#: Bytes of one migrating walker record: query id, current node, previous
#: node, step counter and max length (5 x int64) plus the 128-bit Philox key
#: identifying the walker's counter-based random stream.  What actually
#: crosses the interconnect when a walk leaves its shard — the path prefix
#: stays behind on the originating device and is gathered at collect time.
WALKER_MIGRATION_BYTES = 56


@dataclass(frozen=True)
class _CommSummary:
    """Coalesced-migration communication totals of a sharded run.

    Built lazily by :meth:`ShardedRunAccounting._comm_summary` from the
    migration log.  ``queries``/``shares`` are sorted by (query, walker step
    index) so per-query accumulation happens in one canonical float order,
    whatever submit/stream interleaving produced the log.
    """

    queries: np.ndarray
    shares: np.ndarray
    per_device_ns: np.ndarray
    num_batches: int


class ShardedRunAccounting:
    """Per-device bookkeeping of a graph-sharded run.

    A sharded run executes the *same* fused superstep loop as the
    replicated placement (walks, counters and per-query base times are therefore
    bit-identical by construction); this object is where the sharding shows
    up.  Each walker-step is attributed to the device *hosting* the walker
    — the shard owning its current node, unless the node is a ghost-cached
    remote hub the walker is reading locally — and every step whose sampled
    destination is neither owned by nor ghosted on the hosting device
    migrates the walker there.

    Migrations are **coalesced**: all walkers leaving device ``s`` for
    device ``d`` at the same walk-step index travel as one batched transfer
    (one ``interconnect_latency_ns`` plus ``count x WALKER_MIGRATION_BYTES``
    of bandwidth), the KnightKing message-coalescing model.  Batches are
    keyed by the walkers' *step index* — not the wall-clock superstep — so
    an interleaved submit/stream session groups migrations exactly like the
    one-shot run and reconstructs identical communication totals.

    Per-device schedules treat each *resident walker* as one queue entry
    (its fetch plus every step it executed there, accumulated in walk-step
    order), so sessions also reconstruct the exact per-device
    schedules/makespans of the one-shot run.
    """

    def __init__(self, engine: WalkEngine, sharded, ghost=None) -> None:
        self.engine = engine
        self.sharded = sharded
        self.ghost = ghost
        self.num_shards = sharded.num_shards
        self._latency_ns = float(engine.device.interconnect_latency_ns)
        self._bytes_per_ns = float(engine.device.interconnect_bytes_per_ns)
        self._owner = sharded.owner_map
        self._ghost_mask = ghost.mask if ghost is not None else None
        # Flat view for cheap (host, node) lookups on the crossing subset.
        self._ghost_flat = self._ghost_mask.ravel() if ghost is not None else None
        self._num_nodes = int(self._owner.size)
        # Resident-walker ledger: cell (d, q) accumulates all the lane time
        # query ``q`` executed on device ``d`` (its fetch, then every step
        # hosted there, added in walk-step order — so the float sums are
        # invariant to how queries were split into waves).  ``_res_seen``
        # marks the (device, query) pairs that actually executed work.
        # Each superstep lands as one fancy scatter-add (a walker occupies
        # exactly one slot per superstep, so the pairs are unique).
        self._res_times = np.zeros((self.num_shards, 0), dtype=np.float64)
        self._res_seen = np.zeros((self.num_shards, 0), dtype=bool)
        self._res_used = 0
        # Per-device counter accumulation: one float64 cell per (counter
        # field, device), folded eagerly every superstep so the superstep's
        # CounterBatch can be released immediately (integer counts sum
        # exactly in float64).
        self._counter_sums = np.zeros(
            (len(CostCounters._COUNT_FIELDS), self.num_shards), dtype=np.float64
        )
        # Migration log: (walker step index, global query index, source
        # device, destination device) per migration, batched lazily.
        self._mig_steps: list[np.ndarray] = []
        self._mig_queries: list[np.ndarray] = []
        self._mig_src: list[np.ndarray] = []
        self._mig_dst: list[np.ndarray] = []
        # Hosting device of each walker, by ledger column.
        self._hosts = np.zeros(0, dtype=np.int64)
        self.remote_steps = 0
        self.ghost_hits = 0
        self._comm_cache: _CommSummary | None = None

    def _ensure_capacity(self, upto: int) -> None:
        """Grow the resident-walker ledger to cover query indices < upto."""
        if upto > self._res_used:
            self._res_used = upto
        capacity = self._res_times.shape[1]
        if upto <= capacity:
            return
        new = max(upto, capacity * 2, 256)
        times = np.zeros((self.num_shards, new), dtype=np.float64)
        times[:, :capacity] = self._res_times
        seen = np.zeros((self.num_shards, new), dtype=bool)
        seen[:, :capacity] = self._res_seen
        hosts = np.zeros(new, dtype=np.int64)
        hosts[:capacity] = self._hosts
        self._res_times = times
        self._res_seen = seen
        self._hosts = hosts

    # ------------------------------------------------------------------ #
    def charge_fetch(
        self, columns: np.ndarray, start_nodes: np.ndarray, fetch_ns: np.ndarray
    ) -> None:
        """Attribute each query's queue-fetch atomic to its start node's owner.

        Queries are submitted straight to the device owning their start
        node, so the launch atomic executes there — and that device is the
        walker's initial host.  Fetch tasks sort before every walk step
        (ordinal -1), in submission order — exactly where the one-shot loop
        prices them.
        """
        owners = self._owner[start_nodes]
        self._ensure_capacity(int(columns.max(initial=-1)) + 1)
        self._hosts[columns] = owners
        self._res_times[owners, columns] += fetch_ns
        self._res_seen[owners, columns] = True
        self._counter_sums[_ATOMIC_ROW] += np.bincount(owners, minlength=self.num_shards)

    def observe(
        self,
        report: SuperstepReport,
        frontier: WalkerFrontier,
        step_ordinal: int,
        columns: np.ndarray,
    ) -> None:
        """Fold one superstep into the per-device ledgers (``columns[j]`` is
        walker ``report.active[j]``'s ledger column).

        Each active walker's step executes on its hosting device (without a
        ghost cache the host is always the owner of ``report.nodes``).  A
        walker whose sampled destination (``frontier.current``) is owned by
        a different device either reads a local ghost copy — a ghost hit,
        host unchanged, no traffic — or migrates: host reassigned, one
        entry in the coalesced migration log.  Migration time never touches
        the base per-query times, which stay bit-identical to replicated.
        """
        active = report.active
        if active.size == 0:
            return
        current = self._hosts[columns]
        counts = report.counters.counts
        fields, k = self._counter_sums.shape
        # One bincount over (field, device) keys covers the whole count
        # matrix of the superstep in a single pass.
        keys = current + (np.arange(fields) * k)[:, None]
        self._counter_sums += np.bincount(
            keys.ravel(), weights=counts.ravel(), minlength=fields * k
        ).reshape(fields, k)
        self._res_times[current, columns] += report.step_ns
        self._res_seen[current, columns] = True

        destinations = frontier.current[active]
        dest_owner = self._owner[destinations]
        # A boundary crossing needs a foreign destination owner AND an
        # actual move — walkers that stayed put (termination, or a
        # self-loop landing on the node they already occupy) generate no
        # traffic even when riding a ghost copy of a remote node.
        crossing = dest_owner != current
        crossing &= destinations != report.nodes
        idx = np.flatnonzero(crossing)
        if idx.size == 0:
            return
        if self._ghost_flat is not None:
            hit = self._ghost_flat[current[idx] * self._num_nodes + destinations[idx]]
            hits = int(np.count_nonzero(hit))
            if hits:
                self.ghost_hits += hits
                idx = idx[~hit]
                if idx.size == 0:
                    return
        count = int(idx.size)
        self.remote_steps += count
        movers = columns[idx]
        dest = dest_owner[idx]
        self._mig_steps.append(np.full(count, step_ordinal, dtype=np.int64))
        self._mig_queries.append(movers)
        self._mig_src.append(current[idx])
        self._mig_dst.append(dest)
        self._hosts[movers] = dest
        self._comm_cache = None

    def migrations_at(self, step_ordinal: int) -> tuple[np.ndarray, np.ndarray]:
        """The (src, dst) endpoints of the migrations logged at one ordinal.

        Used by the fault-injection runtime to price resending a dropped
        step's coalesced batches.  Only the most recent log entry is
        consulted — :meth:`observe` appends at most one entry per superstep
        and the drop is checked right after the observe call.
        """
        if self._mig_steps and int(self._mig_steps[-1][0]) == step_ordinal:
            return self._mig_src[-1], self._mig_dst[-1]
        return _NO_FINISHED, _NO_FINISHED

    def take_over(
        self,
        dead: list[int],
        survivors: list[int],
        frontier: WalkerFrontier,
        columns: np.ndarray,
    ) -> None:
        """Degraded-mode shard takeover after permanent device failures.

        The dead devices' node ranges are re-owned round-robin by the
        survivors (on a private copy — the shared
        :class:`~repro.graph.sharded.ShardedCSRGraph` decomposition is never
        mutated), and every walker ``frontier`` executes (position ``j`` at
        ledger column ``columns[j]``) hosted on a dead device re-hosts onto
        the new owner of its current node; walkers of earlier launches have
        all finished and take no further steps.  With no survivors the
        replacement-device policy applies: ownership stays with the standby
        that inherits the dead device's identity.

        Work the dead device executed before failing stays on its ledger —
        its partial kernel still contributes to the makespan, which is the
        honest account of a mid-run loss.
        """
        if not survivors:
            return
        owner = self._owner.copy()
        pool = np.asarray(survivors, dtype=np.int64)
        for device in dead:
            nodes = np.flatnonzero(owner == device)
            if nodes.size:
                owner[nodes] = pool[np.arange(nodes.size) % pool.size]
        self._owner = owner
        hosts = self._hosts[columns]
        stale = np.flatnonzero(np.isin(hosts, np.asarray(dead, dtype=np.int64)))
        if stale.size:
            self._hosts[columns[stale]] = owner[frontier.current[stale]]
        self._comm_cache = None

    # ------------------------------------------------------------------ #
    def _comm_summary(self) -> _CommSummary:
        """Coalesce the migration log into per-batch transfers (cached).

        Migrations are grouped by (walker step index, source, destination);
        each group is one interconnect message costing one latency plus the
        batch payload over bandwidth.  Every migrating walker is assigned
        its equal share of its batch for the per-query communication view.
        Grouping by step index (not wall-clock superstep) makes the batches
        — and therefore every derived number — invariant to how queries
        were split into waves.
        """
        if self._comm_cache is not None:
            return self._comm_cache
        k = self.num_shards
        if self._mig_steps:
            steps = np.concatenate(self._mig_steps)
            queries = np.concatenate(self._mig_queries)
            src = np.concatenate(self._mig_src)
            dst = np.concatenate(self._mig_dst)
            keys = (steps * k + src) * k + dst
            unique, inverse, counts = np.unique(
                keys, return_inverse=True, return_counts=True
            )
            batch_ns = self._latency_ns + counts * (
                WALKER_MIGRATION_BYTES / self._bytes_per_ns
            )
            per_device = np.bincount(
                (unique // k) % k, weights=batch_ns, minlength=k
            )
            # No canonicalising sort is needed for the per-query view: a
            # query's migrations enter the log in walk-step order under
            # every wave composition (observe() runs the supersteps of its
            # wave in order), so each query's float shares always
            # accumulate in the same sequence.
            shares = batch_ns[inverse] / counts[inverse]
            summary = _CommSummary(
                queries=queries,
                shares=shares,
                per_device_ns=per_device,
                num_batches=int(unique.size),
            )
        else:
            summary = _CommSummary(
                queries=np.zeros(0, dtype=np.int64),
                shares=np.zeros(0, dtype=np.float64),
                per_device_ns=np.zeros(k, dtype=np.float64),
                num_batches=0,
            )
        self._comm_cache = summary
        return summary

    @property
    def comm_ns(self) -> np.ndarray:
        """Per-source-device interconnect time (coalesced batch costs)."""
        return self._comm_summary().per_device_ns

    @property
    def migration_batches(self) -> int:
        """Coalesced interconnect messages sent (batches, not walkers)."""
        return self._comm_summary().num_batches

    def per_query_comm_ns(self, num_queries: int) -> np.ndarray:
        """Each query's share of the batched transfers it rode in.

        A walker in a batch of ``c`` is charged ``1/c`` of the batch cost —
        per-query shares sum (to float tolerance) to the total interconnect
        time, and the accumulation order is canonical (query, step index),
        so the array is identical however the run was waved.
        """
        summary = self._comm_summary()
        out = np.zeros(num_queries, dtype=np.float64)
        np.add.at(out, summary.queries, summary.shares)
        return out

    def device_kernels(self, scheduling: str) -> list[KernelResult]:
        """Build one kernel per shard device from the accumulated task log.

        The schedulable unit is one *resident walker*: all the work query
        ``q`` executed on device ``d`` — its queue fetch plus every
        walker-step hosted there — is one unit pulled from the device's
        query queue, exactly the one-query-per-processing-unit model of the
        replicated kernels (Section 5.3).  Per-unit times accumulate in
        walk-step order whatever submit/stream interleaving produced the
        log, so sessions reconstruct the one-shot makespans bit-for-bit.
        The device's coalesced migration traffic overlaps the compute
        through the executor's interconnect hook (only the excess beyond
        the lane makespan serialises).  Safe to call repeatedly (a session
        may collect more than once): the ledgers are only read.
        """
        executor = KernelExecutor(self.engine.device)
        kernels = []
        comm = self.comm_ns
        used = self._res_used
        for d in range(self.num_shards):
            # The walkers resident on this device, in query-id order; each
            # one's ledger cell already holds its fetch plus every hosted
            # step, accumulated in walk-step order.
            tasks = self._res_times[d, :used][self._res_seen[d, :used]]
            kernels.append(
                executor.execute(
                    tasks,
                    counters=_device_counters(self.engine, self._counter_sums[:, d]),
                    scheduling=scheduling,
                    comm_ns=float(comm[d]),
                    comm_overlap=True,
                )
            )
        return kernels


#: The completions of an owner none of whose walks finished in a superstep.
_NO_ORDINALS = np.zeros(0, dtype=np.int64)
_NO_PATHS = PathTable(np.zeros((0, 1), dtype=np.int64), _NO_ORDINALS)


class OwnerStep:
    """One owner's part of a superstep: the walker-steps and counts its
    walkers executed, and its walks that completed (ledger ordinals as an
    array or a slice, query ids as a tuple and paths as a
    :class:`PathTable`; all empty when none did)."""

    __slots__ = ("owner", "steps", "counters", "ordinals", "query_ids", "paths")

    def __init__(
        self, owner: FrontierDriver, steps: int, counters: CostCounters,
        ordinals: np.ndarray | slice = _NO_ORDINALS, query_ids: tuple[int, ...] = (),
        paths: PathTable = _NO_PATHS,
    ) -> None:
        self.owner = owner
        self.steps = steps
        self.counters = counters
        self.ordinals = ordinals
        self.query_ids = query_ids
        self.paths = paths


class FrontierLaunch:
    """An executing :class:`FrontierRun` and the result ledgers it feeds.

    A :class:`FrontierDriver` starts one per launched batch; a scheduler
    fusion group keeps one for its whole life and admits into it at
    superstep boundaries.  Walker ``j`` belongs to ``owners[owner[j]]`` —
    the driver whose result ledger it settles into — at submission ordinal
    ``ords[j]`` (``base + j`` while ``base`` is set: a launch that admitted
    one ordinal range, whose settles are slices).  :meth:`advance` runs one
    superstep and folds it into every owner it held: counters and steps,
    sampler usage, the placement ledger and the settled walks.  The fold
    is exact: integer counts sum per owner and each walker's float times
    stay in its own slot, so an owner's figures do not depend on who else
    shared the superstep.

    ``aggregate`` and ``usage`` are the run's own sinks, which a failure's
    restore rewinds; owners are charged once per superstep, never for its
    replay.  ``on_failure(dead)`` (when set) runs before that restore: a
    driver re-partitions its placement ledger there, while a fusion group's
    failures stay the group's.
    """

    __slots__ = ("run", "aggregate", "usage", "recovery", "iterator", "track_finished",
                 "on_failure", "owners", "owner", "ords", "base", "steps")

    def __init__(self, engine: WalkEngine, track_finished: bool = True, on_failure=None) -> None:
        self.run = FrontierRun(engine)
        self.aggregate = CostCounters(bytes_per_weight=engine.weight_bytes)
        self.usage: dict[str, int] = {}
        # The fault-recovery protocol (None on the fault-free fast path);
        # its superstep ordinal is the launch's fault-plan clock.
        self.recovery = engine._recovery(self.run, self.aggregate, self.usage)
        self.iterator: Iterator[SuperstepReport] | None = None
        self.track_finished = track_finished
        self.on_failure = on_failure
        self.owners: list[FrontierDriver] = []
        self.owner = np.zeros(0, dtype=np.int64)
        self.ords = np.zeros(0, dtype=np.int64)
        self.base: int | None = None
        # Supersteps run so far: within a driver's launch, every walker's
        # step index — the sharded ledger's migration-batch key.
        self.steps = 0

    def admit(
        self, owners: list[FrontierDriver], held: np.ndarray,
        queries: QueryBatch | Sequence[WalkQuery], ordinals: np.ndarray | int,
    ) -> None:
        """Admit ``queries``: walker ``j`` belongs to ``owners[held[j]]`` at
        submission ordinal ``ordinals[j]`` (an int: the first of
        ``len(queries)`` consecutive ordinals).  Each owner's result ledger
        is sized for its walkers, each owner is charged their queue-fetch
        atomics (a placement ledger opens their columns), and the stale
        restore point is dropped."""
        run = self.run
        batch = QueryBatch.of(queries)
        if isinstance(ordinals, int):
            self.base = ordinals if not self.ords.size else None
            ordinals = np.arange(ordinals, ordinals + len(batch), dtype=np.int64)
        else:
            self.base = None
        fetch_ns = run.admit(batch, run.engine.seed)
        starts = batch.start_nodes
        self.owners += [o for o in owners if o not in self.owners]
        index = np.array([self.owners.index(o) for o in owners], dtype=np.int64)
        self.owner = np.concatenate([self.owner, index[held]])
        self.ords = np.concatenate([self.ords, ordinals])
        sole = len(owners) == 1
        for j, owner in enumerate(owners):
            mine = slice(None) if sole else (held == j).nonzero()[0]
            own = ordinals[mine]
            owner.reserve(len(owner.index))
            owner.charge(CostCounters(atomic_ops=own.size, bytes_per_weight=run.engine.weight_bytes))
            if owner.ledger is not None:
                owner.ledger.charge_fetch(own, starts[mine], fetch_ns[mine])
        if self.recovery is not None:
            self.recovery.invalidate()

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the walkers at the ascending positions ``keep``
        (:meth:`FrontierRun.compact`); owners left without one drop out."""
        self.run.compact(keep)
        owner, self.ords, self.base = self.owner[keep], self.ords[keep], None
        live = np.bincount(owner, minlength=len(self.owners)) > 0
        if not live.all():
            self.owners = [o for o, alive in zip(self.owners, live.tolist(), strict=True) if alive]
            owner = (np.cumsum(live) - 1)[owner]
        self.owner = owner

    def cancel(self, owner: FrontierDriver, ordinal: int) -> int:
        """Terminate ``owner``'s in-flight walker ``ordinal``, settle the
        prefix it walked and return its position.  A restore from an older
        checkpoint would resurrect it, so the restore point is dropped."""
        pos = ((self.owner == self.owners.index(owner)) & (self.ords == ordinal)).nonzero()[0]
        run, frontier = self.run, self.run.frontier
        frontier.terminate(pos)
        owner.settle(self.ords[pos], frontier.path_buf[pos], frontier.path_len[pos],
                     run.per_query_ns[pos])
        if self.recovery is not None:
            self.recovery.invalidate()
        return int(pos[0])

    def advance(self) -> tuple[SuperstepReport, list[OwnerStep]] | None:
        """Run one superstep and fold it into its owners.

        Returns the report and an :class:`OwnerStep` per owner it held, or
        ``None`` when no walker was active.  A device failure restores and
        replays before this returns; replayed supersteps are neither
        folded nor reported (their first execution was).
        """
        recovery = self.recovery
        if recovery is not None:
            # The launch's start or an admission boundary: a cost-free snapshot.
            recovery.begin()
        if self.iterator is None:
            self.iterator = iter_supersteps(
                self.run.engine, self.run, self.aggregate, self.usage, self.track_finished
            )
        try:
            report = next(self.iterator)
        except StopIteration:
            self.iterator = None
            return None
        parts = self._fold(report)
        self.steps += 1
        if recovery is not None:
            recovery.end(report, self.on_failure)
        return report, parts

    def _ledger_rows(self, positions: np.ndarray) -> tuple[np.ndarray | slice, np.ndarray | slice]:
        """Frontier selection and ledger ordinals of the ascending walker
        ``positions``: slices when they are consecutive in a one-range
        launch, index arrays otherwise."""
        base, m = self.base, positions.size
        if base is not None and m and int(positions[-1]) - int(positions[0]) == m - 1:
            first = int(positions[0])
            return slice(first, first + m), slice(base + first, base + first + m)
        return positions, self.ords[positions]

    def _settle(self, owner: FrontierDriver, positions: np.ndarray) -> tuple[np.ndarray | slice, PathTable]:
        """Settle ``owner``'s finished walkers at ``positions`` into its result
        ledger; returns their ordinals and paths."""
        run, frontier = self.run, self.run.frontier
        sel, ords = self._ledger_rows(positions)
        rows, lengths = frontier.path_buf[sel], frontier.path_len[sel]
        owner.settle(ords, rows, lengths, run.per_query_ns[sel])
        if isinstance(ords, slice):  # view the settled ledger rows, copy nothing
            rows, lengths = owner.rows[ords], owner.lengths[ords]
        return ords, PathTable(rows, lengths)

    def _completed(self, owner: FrontierDriver, steps: int, totals: CostCounters,
                   positions: np.ndarray) -> OwnerStep:
        """``owner``'s part of a superstep in which its walkers at
        ``positions`` finished (settled here)."""
        ords, paths = self._settle(owner, positions)
        ids = self.run.frontier.query_ids[positions]
        return OwnerStep(owner, steps, totals, ords, tuple(ids.tolist()), paths)

    def _fold(self, report: SuperstepReport) -> list[OwnerStep]:
        owners, run, active, finished = self.owners, self.run, report.active, report.finished
        weight_bytes = run.engine.weight_bytes
        n, names = len(owners), report.sampler_names
        if n == 1:
            # Every walker is the one owner's: the report's totals and
            # partition sizes are its share.
            owner, steps = owners[0], active.size
            if steps:
                totals = report.totals
                owner.aggregate.merge(totals)
                owner.total_steps += steps
                for name, size in zip(names, report.sizes, strict=True):
                    if size:
                        owner.usage[name] = owner.usage.get(name, 0) + size
                ledger = owner.ledger
                if ledger is not None:
                    ledger.observe(report, run.frontier, self.steps, self.ords[active])
                    if self.recovery is not None and isinstance(ledger, ShardedRunAccounting):
                        src, dst = ledger.migrations_at(self.steps)
                        self.recovery.faults.charge_interconnect_drop(
                            self.steps, src, dst, WALKER_MIGRATION_BYTES
                        )
            else:
                totals = CostCounters(bytes_per_weight=weight_bytes)
            if finished.size:
                return [self._completed(owner, steps, totals, finished)]
            return [OwnerStep(owner, steps, totals)] if steps else []
        held = self.owner[active]
        counts = np.bincount(held, minlength=n)
        present = counts.nonzero()[0]
        if present.size == 1:  # the whole superstep is one owner's
            folded = [report.totals]
        elif present.size:
            # One integer product with the walkers' one-hot owner matrix:
            # exact however the walkers are grouped.
            sums = report.counters.counts @ (held[:, None] == present)
            folded = [CostCounters(*c, bytes_per_weight=weight_bytes) for c in sums.T.tolist()]
        if present.size:
            used = np.bincount(report.assignment * n + held, minlength=len(names) * n).tolist()
        # owner -> its finished walkers, as positions in the frontier
        done: dict[int, np.ndarray] = {}
        if finished.size:
            held_done = self.owner[finished]
            first = int(held_done[0])
            if (held_done == first).all():
                done[first] = finished
            else:
                order = np.argsort(held_done, kind="stable")
                cuts = np.flatnonzero(np.diff(held_done[order])) + 1
                done = {int(held_done[p[0]]): finished[p] for p in np.split(order, cuts)}
        parts, charged = [], {}
        for j, i in enumerate(present.tolist()):
            owner, steps = owners[i], int(counts[i])
            owner.aggregate.merge(folded[j])
            owner.total_steps += steps
            for k, name in enumerate(names):
                if used[k * n + i]:  # the key set of a solo run: kernels this owner ran
                    owner.usage[name] = owner.usage.get(name, 0) + used[k * n + i]
            ledger = owner.ledger
            if ledger is not None:
                # Replicated: sharded placements never share a launch.
                mine = (held == i).nonzero()[0]
                ledger.add(self.ords[active[mine]], report.counters.counts[:, mine])
            if i in done:
                charged[i] = (steps, folded[j])
            else:
                parts.append(OwnerStep(owner, steps, folded[j]))
        for i, positions in done.items():
            steps, totals = charged.get(i) or (0, CostCounters(bytes_per_weight=weight_bytes))
            parts.append(self._completed(owners[i], steps, totals, positions))
        return parts


class OrdinalIndex:
    """Query id → submission ordinal map of one result ledger, both ways.

    While every id registered so far forms one consecutive ascending run,
    ordinal ``o`` is id ``base + o``: the map is an offset and holds no
    array.  The first batch that breaks the run switches it to arrays: the
    ids by ordinal, and a sorted copy with each id's ordinal for
    ``searchsorted`` lookups (a registration then inserts in ``O(n)``).
    """

    __slots__ = ("size", "_base", "_by_ordinal", "_sorted", "_sorted_ordinals")

    def __init__(self) -> None:
        self.size = 0
        self._base = 0
        self._by_ordinal: np.ndarray | None = None  # None: offset form
        self._sorted = _NO_ORDINALS
        self._sorted_ordinals = _NO_ORDINALS

    def __len__(self) -> int:
        return self.size

    def add(self, batch: QueryBatch) -> int:
        """Give ``batch``'s ids (unique, and new to the map) the next
        ordinals; returns the first."""
        first = self.size
        if not len(batch):
            return first
        span = batch.id_range
        if self._by_ordinal is None:
            if span is not None and (first == 0 or span.start == self._base + first):
                if first == 0:
                    self._base = span.start
                self.size += len(span)
                return first
            self._by_ordinal = np.arange(self._base, self._base + first, dtype=np.int64)
            self._sorted = self._by_ordinal
            self._sorted_ordinals = np.arange(first, dtype=np.int64)
        ids = batch.query_ids
        order = np.argsort(ids, kind="stable")
        keys = ids[order]
        at = np.searchsorted(self._sorted, keys)
        self._sorted = np.insert(self._sorted, at, keys)
        self._sorted_ordinals = np.insert(self._sorted_ordinals, at, first + order)
        self._by_ordinal = np.concatenate([self._by_ordinal, ids])
        self.size += ids.size
        return first

    def ordinals(self, ids: np.ndarray) -> np.ndarray:
        """The ordinal of each of ``ids``; ``-1`` where it is not registered."""
        ids = np.asarray(ids, dtype=np.int64)
        if self._by_ordinal is None:
            out = ids - self._base
            out[(out < 0) | (out >= self.size)] = -1
            return out
        at = np.minimum(np.searchsorted(self._sorted, ids), self.size - 1)
        return np.where(self._sorted[at] == ids, self._sorted_ordinals[at], -1)

    def clashes(self, batch: QueryBatch) -> np.ndarray:
        """The ids of ``batch`` already registered, in batch order."""
        span = batch.id_range
        if self._by_ordinal is None and span is not None:
            lo, hi = max(span.start, self._base), min(span.stop, self._base + self.size)
            return np.arange(lo, max(lo, hi), dtype=np.int64)
        ids = batch.query_ids
        return ids[self.ordinals(ids) >= 0]

    def ids(self, first: int, count: int) -> np.ndarray:
        """The ids of ordinals ``first .. first + count - 1``."""
        if self._by_ordinal is None:
            return np.arange(self._base + first, self._base + first + count, dtype=np.int64)
        return self._by_ordinal[first : first + count]


class FrontierDriver:
    """The one batched walk driver behind ``WalkEngine.run`` and sessions.

    Each launch is a fresh :class:`FrontierLaunch` admitting the batch (one
    queue-fetch atomic per query, priced per slot, so splitting a batch
    into launches changes nothing) with this driver as its only owner.  The
    driver owns the launch accounting, one placement ledger (none on one
    device, :class:`ReplicatedRunAccounting` or
    :class:`ShardedRunAccounting`), the result ledger and the result
    assembly.  Under a fault plan or checkpoint interval each launch
    carries a fresh :class:`~repro.runtime.faults.RunRecovery`: the plan's
    superstep ordinals restart per launch, a failure re-partitions the
    placement ledger and restores and replays within the :meth:`advance`
    call that observed it, and the launch's fault tallies land here when it
    ends.

    The result ledger is a set of columns indexed by submission ordinal
    (:meth:`register`; ``index``, an :class:`OrdinalIndex`, maps query ids
    to ordinals): walk ``o`` is ``rows[o, :lengths[o]]`` and took ``ns[o]``
    simulated nanoseconds.
    :meth:`settle` is the only way a finished or cancelled in-flight walk
    enters it, always from a :class:`FrontierLaunch` — this driver's own,
    or a scheduler fusion group's that holds some of its walkers — or from
    the end of a launch.  ``lengths[o]`` is 0 until walk ``o`` settles; a
    walk cancelled while queued never does.  Two more columns hold the
    queue-delay clock: the superstep walk ``o`` was submitted at
    (``enqueue_step[o]``) and the one it was first claimed for execution at
    (``start_step[o]``, ``-1`` while it has not been).  The columns are
    sized when walks are first claimed (:meth:`reserve`, at admission), for
    every ordinal registered by then: a session that submits a wave and
    then streams it gets columns of exactly its size, and later claims
    grow them by doubling.  Ordinals past the columns' end are unclaimed.
    ``rows`` is allocated at the first :meth:`settle` to the columns' size,
    as wide as the longest registered walk (``width``).

    :meth:`run` launches everything and collects; a
    :class:`~repro.service.WalkSession` calls :meth:`launch` per wave and
    :meth:`advance` per superstep (``track_finished`` provides the
    completions it streams).  Both assemble through :meth:`assemble`, so a
    session that submits everything and then collects *is*
    ``WalkEngine.run``.
    """

    def __init__(self, engine: WalkEngine, track_finished: bool = False) -> None:
        self.engine = engine
        self.track_finished = track_finished
        self.ledger: ReplicatedRunAccounting | ShardedRunAccounting | None = None
        if engine.num_devices > 1 and engine.graph_placement == "sharded":
            self.ledger = ShardedRunAccounting(
                engine, engine._sharded_graph(), ghost=engine._ghost_cache()
            )
        elif engine.num_devices > 1:
            self.ledger = ReplicatedRunAccounting(engine)
        self.aggregate = CostCounters(bytes_per_weight=engine.weight_bytes)
        self.usage: dict[str, int] = {}
        self.total_steps = 0
        self.wall_clock_s = 0.0
        self.recovery_ns = 0.0
        self.checkpoints_taken = 0
        self.degraded: list[int] = []
        # The result ledger, by submission ordinal.
        self.index = OrdinalIndex()
        self.rows = np.full((0, 1), -1, dtype=np.int64)
        self.width = 1  # of `rows`: the longest registered walk, plus its start
        self.lengths = np.zeros(0, dtype=np.int64)
        self.ns = np.zeros(0, dtype=np.float64)
        self.enqueue_step = np.zeros(0, dtype=np.int64)
        self.start_step = np.zeros(0, dtype=np.int64)
        self._launch: FrontierLaunch | None = None

    @property
    def busy(self) -> bool:
        """Whether a launched batch is still executing."""
        return self._launch is not None

    @property
    def in_flight(self) -> int:
        """Walkers of the executing batch that have not finished."""
        if self._launch is None:
            return 0
        return int(self._launch.run.frontier.active_indices().size)

    # ------------------------------------------------------------------ #
    def register(self, queries: QueryBatch) -> int:
        """Give ``queries`` the next submission ordinals; returns the first.
        Their ids must be new to this ledger (see
        :meth:`OrdinalIndex.clashes`).  The rows widen to hold the
        longest of them."""
        self.width = max(self.width, queries.longest + 1)
        return self.index.add(queries)

    def reserve(self, end: int) -> None:
        """Size the columns for ordinals below ``end``: exactly on the first
        claim, by doubling after.  The row matrix follows at the next
        :meth:`settle`."""
        capacity = self.lengths.size
        if end > capacity:
            capacity = max(end, 2 * capacity)
            self.lengths = _grown(self.lengths, capacity, 0)
            self.ns = _grown(self.ns, capacity, 0.0)
            self.enqueue_step = _grown(self.enqueue_step, capacity, -1)
            self.start_step = _grown(self.start_step, capacity, -1)

    def claimed(self, ordinal: int) -> bool:
        """Whether walk ``ordinal`` was launched or admitted."""
        return ordinal < self.start_step.size and self.start_step[ordinal] >= 0

    def settled(self, ordinal: int) -> bool:
        """Whether walk ``ordinal`` finished (or was cancelled in flight)."""
        return ordinal < self.lengths.size and self.lengths[ordinal] > 0

    def settle(
        self, ordinals: np.ndarray | slice, rows: np.ndarray, lengths: np.ndarray,
        per_query_ns: np.ndarray,
    ) -> None:
        """Enter finished (or cancelled in-flight) walks into the result
        ledger: walk ``ordinals[j]`` is ``rows[j, :lengths[j]]`` (a slice of
        ordinals copies a block; columns past ``width`` are padding).  The
        row matrix is allocated (or grown) here, to the columns' size and
        ``width``, so it does not exist while a wave's first walks are
        still running."""
        capacity, width = self.lengths.size, self.width
        old_rows, old_width = self.rows.shape
        if capacity > old_rows or width > old_width:
            grown = np.full((capacity, width), -1, dtype=np.int64)
            grown[:old_rows, :old_width] = self.rows
            self.rows = grown
        width = min(width, rows.shape[1])
        self.rows[ordinals, :width] = rows[:, :width]
        self.lengths[ordinals] = lengths
        self.ns[ordinals] = per_query_ns

    # ------------------------------------------------------------------ #
    def run(
        self, queries: QueryBatch | Sequence[WalkQuery], profile: ProfileResult | None = None
    ) -> WalkRunResult:
        """Launch every query, advance until all walks end, assemble."""
        self.launch(validate_queries(queries, self.engine.graph.num_nodes))
        while self._launch is not None:
            self.advance()
        return self.assemble(profile)

    def launch(self, queries: QueryBatch | Sequence[WalkQuery], first: int | None = None) -> None:
        """Start executing a batch of queries (the previous one must be done).

        The batch holds consecutive submission ordinals from ``first``
        (``None``: registered here).
        """
        started = time.perf_counter()  # repro: ignore[internal/wall-clock]
        if self._launch is not None:
            raise SimulationError("the previous launch is still executing")
        batch = QueryBatch.of(queries)
        if first is None:
            first = self.register(batch)
        self._launch = FrontierLaunch(
            self.engine, self.track_finished, None if self.ledger is None else self._take_over
        )
        if len(batch):
            self._launch.admit([self], np.zeros(len(batch), dtype=np.int64), batch, first)
        self.wall_clock_s += time.perf_counter() - started  # repro: ignore[internal/wall-clock]

    def advance(self) -> tuple[SuperstepReport, list[OwnerStep]] | None:
        """Run one superstep of the executing batch.

        Returns :meth:`FrontierLaunch.advance`'s report and this driver's
        :class:`OwnerStep`, or ``None`` when the batch just finished.
        """
        started = time.perf_counter()  # repro: ignore[internal/wall-clock]
        launch = self._launch
        step = launch.advance()
        if step is None:
            self._finish(launch)
        self.wall_clock_s += time.perf_counter() - started  # repro: ignore[internal/wall-clock]
        return step

    def _take_over(self, dead: list[int]) -> None:
        """Degraded mode: counts folded before the failure stay where the
        work executed; only future supersteps move."""
        launch = self._launch
        self.ledger.take_over(
            dead, launch.recovery.faults.survivors(), launch.run.frontier, launch.ords
        )

    def _finish(self, launch: FrontierLaunch) -> None:
        run = launch.run
        if not self.track_finished and len(run):  # no superstep reported a completion
            launch._settle(self, np.arange(len(run)))
        if launch.recovery is not None:
            faults = launch.recovery.faults
            self.recovery_ns += faults.recovery_ns
            self.checkpoints_taken += faults.checkpoints_taken
            for device in faults.degraded:
                if device not in self.degraded:
                    self.degraded.append(device)
        self._launch = None

    # ------------------------------------------------------------------ #
    def charge(
        self,
        counters: CostCounters | None = None,
        steps: int = 0,
        wall_clock_s: float = 0.0,
    ) -> None:
        """Add executed work (or the wall time it took) to the totals."""
        if counters is not None:
            self.aggregate.merge(counters)
        self.total_steps += steps
        self.wall_clock_s += wall_clock_s

    # ------------------------------------------------------------------ #
    def assemble(self, profile: ProfileResult | None = None) -> WalkRunResult:
        """The :class:`~repro.runtime.engine.WalkRunResult` of every walk
        settled so far, in submission order (the ledgers are only read, so
        this may be called repeatedly)."""
        from repro.runtime.engine import WalkRunResult

        engine = self.engine
        settled = self.lengths.nonzero()[0]
        num_queries = int(settled.size)
        if num_queries and int(settled[-1]) == num_queries - 1:
            settled = slice(0, num_queries)  # a prefix: the paths view the ledger
            per_query_ns = self.ns[settled].copy()
        else:
            per_query_ns = self.ns[settled]
        aggregate = self.aggregate.copy()
        ledger = self.ledger
        placement: dict[str, object] = {}
        if ledger is None:
            kernel = KernelExecutor(engine.device).execute(
                per_query_ns,
                counters=aggregate,
                scheduling=engine.scheduling,
                recovery_ns=self.recovery_ns,
            )
        else:
            if isinstance(ledger, ShardedRunAccounting):
                device_kernels = ledger.device_kernels(engine.scheduling)
                placement = dict(
                    graph_placement="sharded",
                    shard_policy=ledger.sharded.policy,
                    per_query_comm_ns=ledger.per_query_comm_ns(num_queries),
                    comm_time_ns=float(ledger.comm_ns.sum()),
                    remote_steps=ledger.remote_steps,
                    ghost_hits=ledger.ghost_hits,
                    migration_batches=ledger.migration_batches,
                )
            else:
                device_kernels = ledger.device_kernels(engine.scheduling, per_query_ns)
            kernel = _merge_device_kernels(
                engine, device_kernels, aggregate, num_queries,
                recovery_ns=self.recovery_ns,
            )
            placement.update(
                num_devices=engine.num_devices,
                partition_policy=engine.partition_policy,
                device_kernels=device_kernels,
            )
        compiled = engine.compiled
        return WalkRunResult(
            paths=PathTable(self.rows[settled], self.lengths[settled]),
            per_query_ns=per_query_ns,
            counters=aggregate,
            kernel=kernel,
            sampler_usage=dict(self.usage),
            total_steps=self.total_steps,
            profile=profile,
            preprocess_time_ns=(
                compiled.preprocessing_time_ns if compiled is not None else 0.0
            ),
            wall_clock_s=self.wall_clock_s,
            degraded_devices=tuple(self.degraded),
            recovery_time_ns=self.recovery_ns,
            checkpoints_taken=self.checkpoints_taken,
            compiler_warnings=(
                tuple(compiled.analysis.warnings)
                if compiled is not None and not compiled.analysis.supported
                else ()
            ),
            **placement,
        )


def run_multi_device_serial(
    engine: WalkEngine,
    queries: QueryBatch | Sequence[WalkQuery],
    profile: ProfileResult | None = None,
) -> WalkRunResult:
    """Serial per-device composition: the replicated ledger's executable spec.

    Every device runs its *own* single-device driver over its partition of
    the queries, one device after another, and the results are stitched
    back into submission order.  :class:`ReplicatedRunAccounting` folds the
    same work into per-device kernels inside one shared frontier; the
    multi-device property suite checks the two against each other.  A
    one-device "composition" is just the single-device run.
    """
    from repro.runtime.engine import WalkRunResult
    from repro.runtime.scheduler import split_for_devices

    queries = validate_queries(queries, engine.graph.num_nodes)
    single = engine.with_devices(1)
    if engine.num_devices == 1:
        return FrontierDriver(single).run(queries, profile)
    partitions = _partition_for_devices(engine, queries.start_nodes)
    runs = [FrontierDriver(single).run(sub) for sub in split_for_devices(queries, partitions)]

    n = len(queries)
    rows = np.full((n, max(sub.paths.matrix.shape[1] for sub in runs)), -1, dtype=np.int64)
    lengths = np.zeros(n, dtype=np.int64)
    per_query_ns = np.zeros(n, dtype=np.float64)
    aggregate = CostCounters(bytes_per_weight=engine.weight_bytes)
    usage: dict[str, int] = {}
    for part, sub in zip(partitions, runs, strict=True):
        per_query_ns[part] = sub.per_query_ns
        rows[part, : sub.paths.matrix.shape[1]] = sub.paths.matrix
        lengths[part] = sub.paths.lengths
        aggregate.merge(sub.counters)
        for name, count in sub.sampler_usage.items():
            usage[name] = usage.get(name, 0) + count
    device_kernels = [sub.kernel for sub in runs]
    return WalkRunResult(
        paths=PathTable(rows, lengths),
        per_query_ns=per_query_ns,
        counters=aggregate,
        kernel=_merge_device_kernels(engine, device_kernels, aggregate, n),
        sampler_usage=usage,
        total_steps=sum(sub.total_steps for sub in runs),
        profile=profile,
        preprocess_time_ns=runs[0].preprocess_time_ns,
        num_devices=engine.num_devices,
        partition_policy=engine.partition_policy,
        device_kernels=device_kernels,
    )


def _grown(column: np.ndarray, capacity: int, fill) -> np.ndarray:
    """``column`` extended to ``capacity`` entries of ``fill``."""
    out = np.full(capacity, fill, dtype=column.dtype)
    out[: column.size] = column
    return out


def _merge_device_kernels(
    engine: WalkEngine,
    device_kernels: list[KernelResult],
    aggregate: CostCounters,
    num_queries: int,
    recovery_ns: float = 0.0,
) -> KernelResult:
    """The aggregate kernel view: completion at the slowest device, lane
    times concatenated so utilisation/imbalance diagnostics still work.
    Recovery time (checkpoints, retries, replay) serialises after the
    makespan — the whole step-synchronous fleet stalls while one device
    recovers."""
    makespan = max((k.time_ns for k in device_kernels), default=0.0)
    return KernelResult(
        time_ns=makespan + float(recovery_ns),
        total_work_ns=float(sum(k.total_work_ns for k in device_kernels)),
        lane_times_ns=(
            np.concatenate([k.lane_times_ns for k in device_kernels])
            if device_kernels else np.zeros(0)
        ),
        num_queries=num_queries,
        counters=aggregate,
        scheduling=engine.scheduling,
        comm_ns=float(sum(k.comm_ns for k in device_kernels)),
        recovery_ns=float(recovery_ns),
    )


def _apply_step_overhead(engine: WalkEngine, ctx: BatchStepContext,
                         part: np.ndarray, sampler) -> None:
    """Run a baseline's per-step framework-overhead hook for a partition.

    Hooks are scalar by contract (they model per-walker bookkeeping such as
    NextDoor's transit regrouping), so each walker gets a real
    :class:`StepContext` shim.  The scalar engine hands hooks the step's
    *live, already-populated* counters — a hook may read the counts the
    selection and the kernel just charged — so the shim's counters are
    seeded from the walker's slot and written back wholesale afterwards.
    """
    for i in part:
        slot = int(ctx.slots[int(i)])
        scalar_ctx, _ = ctx.scalar_context(int(i))
        scalar_ctx.counters = ctx.counters.snapshot(slot)
        engine.step_overhead(scalar_ctx, sampler)
        ctx.counters.write_back(slot, scalar_ctx.counters)
