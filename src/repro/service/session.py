"""Walk sessions: incremental submission, streaming results, exact collection.

A :class:`WalkSession` is the execute stage of the service pipeline
(compile → plan → execute).  It owns no graph state of its own — the
compiled workload, hint tables and transition cache live on the parent
:class:`~repro.service.WalkService` and are shared with every sibling
session — only the per-tenant run state: a
:class:`~repro.runtime.scheduler.DynamicQueryQueue` that accepts incremental
:meth:`~WalkSession.submit` calls, tickets, and the batched
:class:`~repro.runtime.frontier.FrontierDriver` that executes the claimed
waves, keeps the queue-delay columns and assembles the exact
:class:`~repro.runtime.engine.WalkRunResult` at :meth:`~WalkSession.collect`
time.  The driver also holds the session's one result ledger, columns
keyed by submission ordinal: each finished walk — run by the session's own
waves or by a continuous-batching scheduler it is attached to — settles
there once, and tickets, ``completed`` and ``collect()`` all read it.

**Exactness.**  A session that submits everything and then collects runs
exactly the computation of ``WalkEngine.run`` — same driver, same ledger,
same assembly.  Every walker owns a counter-based random stream keyed by its
query id, every walker's operation counts land in its own slot, and
termination rules are per-walker — so *how* queries are batched into waves
(one big submit, or many interleaved submit/stream rounds) cannot change any
path, counter total or per-query simulated time either; the driver assembles
over the full submission-ordered batch (re-partitioning it for replicated
multi-device plans), so fault-free results are bit-identical to the one-shot
engine run.  The service parity suite enforces this for all four paper
workloads on one and several devices.

The one exemption — the same one the scalar/batched parity suite documents —
is ``selection="random"``: its selector flips coins from a *shared*
sequential generator, so which draw a walker sees depends on execution
order, and therefore on wave composition.  Every other selection policy
(``cost_model`` included) is a pure per-walker function and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DeadlineExceeded, ServiceError
from repro.gpusim.counters import CostCounters
from repro.runtime.engine import WalkRunResult
from repro.runtime.frontier import FrontierDriver, OwnerStep
from repro.runtime.scheduler import DynamicQueryQueue, validate_queries
from repro.walks.paths import PathTable
from repro.walks.state import WalkQuery

if TYPE_CHECKING:  # pragma: no cover - service imports session
    from repro.service.scheduler import ServiceScheduler
    from repro.service.service import WalkService


@dataclass(frozen=True)
class SubmitOptions:
    """Scheduling knobs of one :meth:`WalkSession.submit` call, consolidated.

    All fields are meaningful on a scheduler-attached session (see
    :class:`~repro.service.scheduler.ServiceScheduler`); a standalone
    session executes its own queue in submission order and ignores them.

    Attributes
    ----------
    priority:
        Non-negative admission priority.  Anything above 0 enters the
        scheduler's SLO lane, which is admitted before the fair-share
        lanes (still within the in-flight walker budget).
    tenant:
        Tenant the submission is accounted to; ``None`` uses the tenant
        the session was attached under.
    deadline_steps:
        Scheduler supersteps a queued walker may wait before it is
        promoted to the SLO lane (``None`` = never promoted).
    block_on_full:
        When the in-flight walker budget (or the tenant's quota) has no
        room, run scheduler supersteps until it does instead of raising
        :class:`~repro.errors.QueueFull`.
    block_timeout:
        Wall-clock seconds a ``block_on_full`` submission may spend
        waiting for capacity before giving up with
        :class:`~repro.errors.QueueFull` after all (``None`` = wait
        forever).  Requires ``block_on_full=True``.
    deadline_ticks:
        Hard per-walker deadline: scheduler ticks after submission by
        which each walk must *complete*.  Expired walks — queued or in
        flight — are cancelled (releasing their budget) and the ticket's
        :meth:`QueryTicket.paths` raises
        :class:`~repro.errors.DeadlineExceeded`.  Contrast with
        ``deadline_steps``, which is soft (it only promotes a queued
        walker into the SLO lane).
    """

    priority: int = 0
    tenant: str | None = None
    deadline_steps: int | None = None
    block_on_full: bool = False
    block_timeout: float | None = None
    deadline_ticks: int | None = None

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ServiceError("submit priority must be non-negative")
        if self.deadline_steps is not None and self.deadline_steps < 1:
            raise ServiceError("deadline_steps must be at least 1 (or None)")
        if self.block_timeout is not None:
            if not self.block_on_full:
                raise ServiceError(
                    "block_timeout only bounds a blocking admission; "
                    "set block_on_full=True alongside it"
                )
            if self.block_timeout < 0:
                raise ServiceError("block_timeout must be non-negative (or None)")
        if self.deadline_ticks is not None and self.deadline_ticks < 1:
            raise ServiceError("deadline_ticks must be at least 1 (or None)")


#: Shared default so plain ``submit(queries)`` allocates nothing extra.
_DEFAULT_SUBMIT_OPTIONS = SubmitOptions()


@dataclass(frozen=True)
class WalkChunk:
    """A batch of walks that completed together, emitted by ``stream()``.

    One chunk per superstep that completed at least one walk
    (``steps``/``counters`` then describe the whole superstep).

    Attributes
    ----------
    sequence:
        Chunk ordinal within the session (0-based, monotonically increasing
        across waves).
    superstep:
        Session-wide ordinal of the superstep that produced the chunk.
    query_ids / paths:
        The completed walks, paired index-by-index: ``query_ids`` is a
        tuple, ``paths`` a read-only :class:`~repro.walks.paths.PathTable`
        (iterate or index it for lists, or read ``paths.matrix`` /
        ``paths.lengths`` as arrays).
    steps:
        Walker-steps charged by the producing superstep.
    counters:
        Operation counts charged by the producing superstep.
    pending:
        Walks still queued or in flight after this chunk.
    enqueue_steps / first_scheduled_steps:
        Per completed walk (aligned with ``query_ids``): the session
        superstep ordinal at which the walk was submitted, and the ordinal
        at which it was first claimed for execution.  On a
        scheduler-attached session both are scheduler superstep ordinals
        (the same clock as ``superstep``), so ticket latency is
        ``superstep - enqueue_steps[i]`` and queue delay is
        ``first_scheduled_steps[i] - enqueue_steps[i]`` — no private wave
        state needed.
    """

    sequence: int
    superstep: int
    query_ids: tuple[int, ...]
    paths: PathTable
    steps: int
    counters: CostCounters
    pending: int
    enqueue_steps: tuple[int, ...] = ()
    first_scheduled_steps: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.query_ids)


@dataclass(frozen=True)
class QueryTicket:
    """Receipt for one :meth:`WalkSession.submit` call.

    Tickets are how a caller correlates incremental submissions with
    streamed results: they expose the submitted query ids, a coarse status,
    and — once every query of the ticket completed — the finished walks.
    """

    ticket_id: int
    query_ids: tuple[int, ...]
    _session: WalkSession = field(repr=False, compare=False)

    @property
    def status(self) -> str:
        """``"queued"``, ``"running"``, ``"done"`` or ``"cancelled"``.

        ``"cancelled"`` wins whenever *any* of the ticket's walks was
        dropped before completing (explicit :meth:`cancel`, an expired
        ``deadline_ticks``, load shedding, stream abandonment or a
        quarantined fusion group).
        """
        cancelled = self._session._cancelled_ids
        if cancelled and any(q in cancelled for q in self.query_ids):
            return "cancelled"
        driver = self._session._driver
        if np.count_nonzero(self._column(driver.lengths)) == len(self.query_ids):
            return "done"
        if np.count_nonzero(self._column(driver.start_step) >= 0):
            return "running"
        return "queued"

    @property
    def done(self) -> bool:
        return self.status == "done"

    def cancel(self) -> int:
        """Cancel this ticket's unfinished walks, releasing their budget.

        Queued walks leave the admission queues; in-flight walks are
        terminated at the next superstep boundary.  Either way the
        scheduler's in-flight budget and the tenant's quota headroom are
        restored immediately and the tenant's ``dead_letters`` count
        grows.  Returns the number of walks actually cancelled (walks
        that already completed keep their results).  Only meaningful on
        a scheduler-attached session — a standalone session executes its
        queue synchronously, so there is nothing to cancel.
        """
        scheduler = self._session._scheduler
        if scheduler is None:
            raise ServiceError(
                "cancel() requires a scheduler-attached session; a standalone "
                "session has no admission queue to cancel from"
            )
        return scheduler._cancel_queries(
            self._session, self.query_ids, reason="cancelled"
        )

    def paths(self) -> PathTable:
        """The completed walks of this ticket, in submission order, as a
        read-only :class:`~repro.walks.paths.PathTable` over the session's
        result ledger (``list(ticket.paths())`` for mutable lists).

        Raises :class:`~repro.errors.DeadlineExceeded` if any of the
        ticket's walks was dropped by a ``deadline_ticks`` expiry or by
        load shedding, :class:`~repro.errors.ServiceError` if it was
        cancelled another way or is still pending — stream or collect
        first.
        """
        session = self._session
        dropped = [q for q in self.query_ids if q in session._cancelled_ids]
        if dropped:
            reasons = sorted({session._cancelled_ids[q] for q in dropped})
            detail = (
                f"ticket {self.ticket_id}: {len(dropped)} of its "
                f"{len(self.query_ids)} walks were dropped before completing "
                f"({', '.join(reasons)})"
            )
            if "deadline" in reasons or "shed" in reasons:
                raise DeadlineExceeded(detail)
            raise ServiceError(detail)
        if not self.done:
            raise ServiceError(
                f"ticket {self.ticket_id} is {self.status}; "
                "drain stream() or call collect() before reading its paths"
            )
        driver = session._driver
        return PathTable(self._column(driver.rows), self._column(driver.lengths))

    def _column(self, column: np.ndarray) -> np.ndarray:
        """This ticket's entries of a result-ledger column (``lengths`` holds
        0 until a walk settles, ``start_step`` -1 until it is claimed); one
        submit call holds consecutive submission ordinals."""
        first = self._session._driver.ordinals[self.query_ids[0]]
        return column[first : first + len(self.query_ids)]


class WalkSession:
    """One tenant's walk execution over a shared :class:`WalkService`.

    Built by :meth:`WalkService.session` — not directly — from the
    compile/plan stages' outputs.  The public surface is small:

    * :meth:`submit` — enqueue more queries, get a :class:`QueryTicket`;
    * :meth:`stream` — iterate :class:`WalkChunk`s as walks complete;
    * :meth:`collect` — drain everything and return the exact
      :class:`~repro.runtime.engine.WalkRunResult` the one-shot engine
      would have produced for the same queries.

    Sessions are single-threaded (the whole simulator is); interleaving
    ``submit`` and ``stream`` from one thread is fully supported and cannot
    change any walk.
    """

    def __init__(
        self,
        service: WalkService,
        spec,
        config,
        plan,
        compiled,
        profile,
        cost_model,
        selector,
        engine,
        graph_version: int = 0,
    ) -> None:
        self.service = service
        self.spec = spec
        self.config = config
        self.plan = plan
        self.compiled = compiled
        self.profile = profile
        self.cost_model = cost_model
        self.selector = selector
        self.engine = engine
        # The graph version this session executes on, fixed at open time: a
        # later WalkService.apply_delta never retargets an open session (its
        # engine, compiled workload and caches stay bound to this version's
        # snapshot), and the scheduler refuses to fuse sessions across
        # versions.  Set by WalkService.session alongside the registry pins
        # (_unpin_finalizer releases them when the session is collected).
        self.graph_version = graph_version
        self._unpin_finalizer = None

        self._queue = DynamicQueryQueue()
        self._tickets: list[QueryTicket] = []
        # Walks dropped before completing, qid -> reason ("cancelled",
        # "deadline", "shed", "abandoned" or "quarantined").  Only the
        # scheduler cancels; a standalone session never populates this.
        self._cancelled_ids: dict[int, str] = {}

        # Execution and the result ledger live on the batched driver: it
        # runs the session's waves (while a scheduler is attached, the fused
        # loop settles this session's walks into it) and assembles the
        # exact result at collect time.  Its queue-delay columns hold the
        # superstep each query was submitted at and first claimed (launched
        # or admitted) at — scheduler ticks on a scheduler-attached session.
        self._driver = FrontierDriver(engine, track_finished=True)
        self._supersteps = 0
        self._chunks_emitted = 0
        # Set by ServiceScheduler.attach(); while attached, submit routes
        # through the scheduler's admission queues and stream()/collect()
        # drive the shared continuous-batching loop.
        self._scheduler: ServiceScheduler | None = None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        queries: Sequence[WalkQuery],
        *,
        options: SubmitOptions | None = None,
    ) -> QueryTicket:
        """Enqueue walk queries and return a ticket tracking them.

        Scheduling knobs travel in one keyword-only frozen
        :class:`SubmitOptions` — ``submit(queries, options=SubmitOptions(...))``;
        plain ``submit(queries)`` uses the defaults.

        On a standalone session queries execute in submission order; on a
        scheduler-attached session they enter the tenant's admission queue
        and may raise :class:`~repro.errors.QueueFull` (backpressure).
        Query ids must be unique across the whole session lifetime (each id
        owns one random stream); duplicates raise
        :class:`~repro.errors.ServiceError`.
        """
        if options is None:
            options = _DEFAULT_SUBMIT_OPTIONS
        elif not isinstance(options, SubmitOptions):
            raise TypeError(
                f"options must be a SubmitOptions, not {type(options).__name__}"
            )
        queries = list(queries)
        if not queries:
            raise ServiceError("no walk queries to submit")
        ids = validate_queries(queries, self.service.graph.num_nodes)
        ordinals = self._driver.ordinals
        clashes = [i for i in ids if i in ordinals]
        if clashes:
            raise ServiceError(
                f"query ids {clashes[:5]} were already submitted to this session; "
                "ids must be unique per session (each id owns one random stream)"
            )
        if self._scheduler is not None:
            # Backpressure before any session state mutates: a QueueFull
            # submission must leave the session exactly as it was.
            self._scheduler._reserve_capacity(self, len(queries), options)
        first = self._driver.register(ids, max([q.max_length for q in queries]))
        ticket = QueryTicket(ticket_id=len(self._tickets), query_ids=tuple(ids), _session=self)
        self._tickets.append(ticket)
        if self._scheduler is not None:
            self._scheduler._enqueue(self, queries, options)
        else:
            self._driver.enqueue_step[first : first + len(queries)] = self._supersteps
            self._queue.extend(queries)
        return ticket

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the session's registry pins (idempotent).

        This also happens automatically when the session is garbage
        collected, but sessions participate in reference cycles with their
        tickets, so *when* that fires is the cyclic collector's business.
        Call ``close()`` to make the service's eviction (and delta
        migration) eligibility deterministic.  The session object stays
        usable — its engine holds every cache it needs directly and its
        result ledger every finished walk — but its shared registry entries
        may be evicted or migrated from under the service afterwards.  A
        collected result owns its paths (a :class:`~repro.walks.paths.PathTable`
        over its own copy of the ledger rows), so it holds neither the
        ledger nor any cache once the session is closed and dropped; a
        ticket's ``paths()`` is a view of the ledger and keeps it alive.
        """
        if self._unpin_finalizer is not None:
            self._unpin_finalizer()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Walks still queued or in flight."""
        if self._scheduler is not None:
            return self._scheduler._session_pending(self)
        return self._queue.remaining + self._driver.in_flight

    @property
    def completed(self) -> int:
        """Walks that have finished (or were cancelled in flight)."""
        return int(np.count_nonzero(self._driver.lengths))

    @property
    def tickets(self) -> tuple[QueryTicket, ...]:
        return tuple(self._tickets)

    def describe(self) -> dict[str, object]:
        """Summary of the session's compiled/planned state."""
        return {
            "workload": self.spec.describe(),
            "granularity": self.compiled.granularity.name,
            "compiler_supported": self.compiled.supported,
            "compiler_warnings": list(self.compiled.analysis.warnings),
            "edge_cost_ratio": self.cost_model.edge_cost_ratio,
            "selector": self.selector.name,
            "device": self.engine.device.name,
            "graph_version": self.graph_version,
            "plan": self.plan.describe(),
            "submitted": len(self._driver.ordinals),
            "completed": self.completed,
            "pending": self.pending,
        }

    # ------------------------------------------------------------------ #
    # Execution: streaming
    # ------------------------------------------------------------------ #
    def stream(self) -> Iterator[WalkChunk]:
        """Yield walks as they complete, one chunk per superstep.

        The generator is resumable and interleavable: breaking out
        mid-stream leaves the in-flight wave suspended (a later ``stream()``
        or ``collect()`` resumes it exactly where it stopped), and queries
        submitted between chunks are claimed as soon as the current wave
        drains.  Returns when no queued or in-flight work remains.

        On a scheduler-attached session the chunks come from the shared
        continuous-batching loop instead of a private wave: each iteration
        advances *every* attached session's walkers by one fused superstep
        and yields this session's completions.
        """
        if self._scheduler is not None:
            yield from self._scheduler._stream_session(self)
            return
        driver = self._driver
        while True:
            if not driver.busy:
                remaining = self._queue.remaining
                if remaining == 0:
                    return
                # Claim every queued query (consecutive ordinals) into one wave.
                queries = self._queue.fetch_batch(remaining)
                first, n = driver.ordinals[queries[0].query_id], len(queries)
                driver.start_step[first : first + n] = self._supersteps
                driver.launch(queries)
            step = driver.advance()
            if step is None:
                continue
            self._supersteps += 1
            for part in step[1]:  # the one owner: this session's driver
                if part.query_ids:
                    yield self._emit(part)

    def collect(self) -> WalkRunResult:
        """Drain all pending work and return the exact aggregate result.

        Bit-identical — paths, counter totals, per-query and kernel
        simulated times, per-device kernels and the recovery ledger — to a
        one-shot ``WalkEngine.run`` over every query submitted so far:
        submitting everything and collecting *is* that run on the same
        driver, and other submit/stream interleavings only split it into
        waves, which cannot change any walk or any fault-free figure
        (exemption: the ``random`` selection policy's shared-generator coin
        flips are execution-order dependent, exactly as in the
        scalar/batched parity suite).  Under a fault plan each wave replays
        the plan from its own first superstep.  Can be called repeatedly;
        later calls cover later submissions too.
        """
        for _ in self.stream():
            pass
        if not self.completed:
            raise ServiceError("no walk queries were submitted to this session")
        return self._driver.assemble(self.profile)

    # ------------------------------------------------------------------ #
    # Chunk emission
    # ------------------------------------------------------------------ #
    def _emit(self, part: OwnerStep, superstep: int | None = None) -> WalkChunk:
        """The chunk of this session's part of one superstep."""
        driver = self._driver
        chunk = WalkChunk(
            sequence=self._chunks_emitted,
            superstep=self._supersteps - 1 if superstep is None else superstep,
            query_ids=part.query_ids,
            paths=part.paths,
            steps=part.steps,
            counters=part.counters,
            pending=self.pending,
            enqueue_steps=tuple(driver.enqueue_step[part.ordinals].tolist()),
            first_scheduled_steps=tuple(driver.start_step[part.ordinals].tolist()),
        )
        self._chunks_emitted += 1
        return chunk
