"""Continuous batching: one fused superstep shared by every attached session.

The step-synchronous frontier is the same execution shape LLM serving stacks
exploit for continuous batching: because every walker owns a counter-based
random stream keyed by its query id, charges its operation counts into its
own slot, and is priced per slot independently of batch size
(:meth:`~repro.gpusim.device.DeviceSpec.lane_times_ns` is elementwise), *who
else* shares a superstep with a walker cannot change its path, counts or
simulated time.  The :class:`ServiceScheduler` turns that invariance into a
multi-tenant execution loop:

* walkers from every attached :class:`~repro.service.session.WalkSession`
  merge into one shared :class:`~repro.walks.state.WalkerFrontier` per
  compatible workload (a *fusion group*: same spec, config and plan);
* newly submitted queries are admitted at superstep boundaries — a fresh
  submission joins the very next superstep instead of waiting for the
  current wave to drain (mid-flight injection);
* each fused superstep runs on the one superstep path every batched run
  takes, a :class:`~repro.runtime.frontier.FrontierLaunch`: its
  ``advance`` folds the work of every session's walkers into that
  session's own driver exactly, as a standalone launch folds its walkers
  into its one driver — every session's ``collect()`` stays bit-identical
  to running it alone.

The scheduler is the admission layer over that path: fairness, the
in-flight budget, deadlines, shedding, quarantine and per-tenant stats.  A
fusion group is its key, its sessions, each fused walker's tenant and one
launch that lives as long as the group — so under a fault plan its
:class:`~repro.runtime.faults.RunRecovery` clock keeps running through
idle periods, and a failure replays its lost supersteps inside the tick
that observed it without re-partitioning any session's ledger.  Admission
and cancellation invalidate the restore point.

Fairness is weighted round-robin (virtual-time weighted fair queuing) over
per-tenant admission queues, with an SLO lane that is admitted first:
submissions with ``priority > 0`` enter it directly, and queued walkers
whose ``deadline_steps`` aged out are promoted into it.  Backpressure is the
in-flight walker budget (``max_inflight_walkers``) plus optional per-tenant
quotas: a submission that cannot fit raises
:class:`~repro.errors.QueueFull`, or — with
``SubmitOptions(block_on_full=True)`` — runs supersteps until it fits.

One session shape cannot attach: sharded placements (their per-device
ledgers are keyed by private wave-local step ordinals).  The
``selection="random"`` policy attaches but keeps its documented exemption
from bit-exactness: its selector flips coins from a shared sequential
generator, so fused execution interleaves the draws.

Results live in one place, each session's
:class:`~repro.runtime.frontier.FrontierDriver` result ledger, keyed by
submission ordinal: the launch remembers each fused walker's owner and
ordinal, and the superstep that finishes the walk (or a cancellation in
flight) settles it there at once, so walkers admitted out of submission
order still assemble in submission order.

The scheduler's state stays bounded over a long service lifetime: at every
admission boundary a fusion group's fused frontier drops its finished
walkers (random streams are keyed by query id, so moving a walker to a new
position cannot change its walk), and a group retires when its last
attached session detaches (its fault tallies stay in the scheduler-level
totals).  A superstep skips idle groups without touching their
frontiers.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from collections import deque
from operator import attrgetter
from dataclasses import dataclass
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import QueueFull, ServiceError
from repro.runtime.frontier import FrontierDriver, FrontierLaunch
from repro.walks.state import QueryBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import FlexiWalkerConfig
    from repro.service.service import WalkService
    from repro.service.session import SubmitOptions, WalkChunk, WalkSession
    from repro.walks.spec import WalkSpec

#: Fairness policies the scheduler implements.
FAIRNESS_POLICIES = ("wrr", "fifo")

#: WRR pick order: smallest virtual time, ties broken by tenant name.
_WRR_KEY = attrgetter("vtime", "name")


def _head_seq(tenant: _TenantState) -> int:
    """FIFO pick order: the submission sequence of the tenant's oldest walker."""
    return tenant.queue[0].seq


def _take(lane: deque, n: int) -> list:
    """Pop the first ``n`` entries of an admission lane, in order."""
    if n >= len(lane):
        block = list(lane)
        lane.clear()
        return block
    return [lane.popleft() for _ in range(n)]


@dataclass(frozen=True)
class TenantStats:
    """Accounting snapshot of one tenant, split out of the fused execution.

    ``steps`` and ``lane_time_ns`` are exact per-walker attributions (the
    walker slots of the fused supersteps, folded by each walker's own
    tenant — a submission's ``SubmitOptions(tenant=...)`` when given, the
    session's attach tenant otherwise); the admission
    counters describe the tenant's traffic through the fairness machinery.
    ``dead_letters`` counts walkers dropped before completing — explicit
    cancellation, ``deadline_ticks`` expiry, load shedding, stream
    abandonment or a quarantined fusion group.
    """

    tenant: str
    weight: float
    quota: int | None
    sessions: int
    submitted: int
    admitted: int
    completed: int
    queued: int
    inflight: int
    slo_admitted: int
    steps: int
    lane_time_ns: float
    dead_letters: int = 0


class _TenantState:
    """Mutable per-tenant admission queue + accounting."""

    __slots__ = (
        "name", "slot", "weight", "quota", "queue", "vtime", "has_deadlines",
        "sessions", "outstanding", "submitted", "admitted", "completed",
        "slo_admitted", "steps", "lane_ns", "dead_letters",
    )

    def __init__(self, name: str, slot: int, weight: float, quota: int | None) -> None:
        self.name = name
        self.slot = slot  # registration order: the tenant's fused-position index
        self.weight = weight
        self.quota = quota
        self.queue: deque[_Pending] = deque()
        self.vtime = 0.0
        self.has_deadlines = False
        self.sessions = 0
        self.outstanding = 0  # queued + in-flight walkers
        self.submitted = 0
        self.admitted = 0
        self.completed = 0
        self.slo_admitted = 0
        self.steps = 0
        self.lane_ns = 0.0
        self.dead_letters = 0


class _Pending:
    """One queued walker awaiting admission: its query's fields, its
    session and tenant, and its place in the admission order."""

    __slots__ = ("seq", "entry", "tenant", "query_id", "start_node", "max_length",
                 "sub_ord", "enqueue_tick", "deadline_steps")

    def __init__(self, seq, entry, tenant, query_id, start_node, max_length, sub_ord,
                 enqueue_tick, deadline_steps) -> None:
        self.seq = seq
        self.entry = entry
        self.tenant = tenant
        self.query_id = query_id
        self.start_node = start_node
        self.max_length = max_length
        self.sub_ord = sub_ord  # submission ordinal: the walker's ledger column
        self.enqueue_tick = enqueue_tick
        self.deadline_steps = deadline_steps


class _SessionEntry:
    """Scheduler-side state of one attached session: its attach tenant,
    fusion group, walker tallies and the chunks its stream has not yet
    taken.

    The session's results and work live in its driver, which the group's
    launch folds each superstep into.
    """

    __slots__ = ("session", "tenant", "group", "queued", "inflight", "chunks",
                 "quarantined")

    def __init__(self, session, tenant: _TenantState, group: _Group) -> None:
        self.session = session
        self.tenant = tenant
        self.group = group
        self.queued = 0
        self.inflight = 0
        self.chunks: deque["WalkChunk"] = deque()
        self.quarantined: str | None = None  # set when the group is poisoned


class _Group:
    """One fusion group: sessions compatible enough to share a frontier.

    ``launch`` executes the fused walkers and knows each one's owning
    driver and submission ordinal; it lives as long as the group, so its
    fault-plan clock keeps running through idle periods.  The group adds
    its attached sessions (by driver) and each fused position's tenant
    slot (``tenant``), compacted together with the launch.
    """

    __slots__ = ("key", "launch", "sessions", "inflight", "tenant")

    def __init__(self, key, engine) -> None:
        self.key = key
        self.launch = FrontierLaunch(engine)
        self.sessions: dict[FrontierDriver, _SessionEntry] = {}
        self.inflight = 0   # admitted walkers that have not finished
        self.tenant = np.zeros(0, dtype=np.int64)  # fused pos -> tenant slot


class ServiceScheduler:
    """Cross-session continuous-batching execution loop.

    Built by :meth:`~repro.service.WalkService.scheduler` (which seeds the
    admission policy from the service's declared
    :class:`~repro.service.plan.ServiceCapabilities`); sessions join via
    :meth:`attach` or the :meth:`session` convenience, after which their
    ``submit``/``stream``/``collect`` transparently ride the shared loop::

        scheduler = service.scheduler(max_inflight_walkers=1024)
        scheduler.register_tenant("batch", weight=1.0)
        scheduler.register_tenant("online", weight=4.0)
        s1 = scheduler.session(DeepWalkSpec(), tenant="online")
        s1.submit(queries, options=SubmitOptions(priority=1))
        result = s1.collect()          # bit-identical to running s1 alone

    One :meth:`tick` = one fused superstep boundary: first admission (SLO
    lane, then the fairness policy, within the in-flight budget), then one
    superstep of every fusion group that has walkers in flight.

    State is bounded by what is live: admission compacts finished walkers
    out of a group's fused frontier (their results already sit in their
    sessions' result ledgers), and a group retires when its last attached
    session detaches.
    """

    def __init__(
        self,
        service: WalkService,
        *,
        max_inflight_walkers: int = 0,
        fairness: str = "wrr",
        tenant_quotas: tuple[tuple[str, int], ...] = (),
        default_tenant: str = "default",
        record_admissions: bool = False,
        shed_after_ticks: int | None = None,
    ) -> None:
        if fairness not in FAIRNESS_POLICIES:
            raise ServiceError(
                f"unknown fairness policy {fairness!r}; valid: {FAIRNESS_POLICIES}"
            )
        if max_inflight_walkers < 0:
            raise ServiceError("max_inflight_walkers must be non-negative (0 = unbounded)")
        if shed_after_ticks is not None and shed_after_ticks < 1:
            raise ServiceError("shed_after_ticks must be at least 1 (or None)")
        self.service = service
        self.max_inflight_walkers = int(max_inflight_walkers)
        self.fairness = fairness
        self.default_tenant = default_tenant
        #: Load shedding under sustained backpressure: a walker still queued
        #: after waiting this many ticks is dead-lettered instead of admitted
        #: (``None`` = never shed).  Its ticket reports DeadlineExceeded.
        self.shed_after_ticks = shed_after_ticks
        #: When true, every admission is appended to :attr:`admissions` as
        #: ``(tick, tenant)`` — the fairness property suite audits this log.
        self.record_admissions = record_admissions
        self.admissions: list[tuple[int, str]] = []
        self._tenants: dict[str, _TenantState] = {}
        self._tenant_slots: list[_TenantState] = []  # by _TenantState.slot
        for name, quota in tenant_quotas:
            self.register_tenant(name, quota=quota)
        self._entries: dict[int, _SessionEntry] = {}  # id(session) -> entry
        self._groups: dict[tuple, _Group] = {}
        self._slo: deque[_Pending] = deque()
        # Hard per-walker deadlines: (expiry_tick, seq, entry, query_id,
        # ordinal), a heap popped at every tick boundary.
        self._deadlines: list[tuple[int, int, _SessionEntry, int, int]] = []
        self._quarantined: list[_SessionEntry] = []
        # The fault tallies of every group ever created under a fault plan,
        # live or retired, in creation order (recovery time sums in it);
        # a quarantined group's are dropped.
        self._faults: list = []
        self._seq = 0
        self._tick = 0
        self._vclock = 0.0
        self._inflight = 0
        self._queued = 0

    # ------------------------------------------------------------------ #
    # Tenants and sessions
    # ------------------------------------------------------------------ #
    def register_tenant(
        self, name: str, weight: float = 1.0, quota: int | None = None
    ) -> None:
        """Declare (or reconfigure) a tenant's fair-share weight and quota.

        ``weight`` scales the tenant's admission share under ``wrr``
        fairness; any nonzero weight guarantees the tenant is never starved.
        ``quota`` caps the tenant's outstanding (queued + in-flight)
        walkers; ``None`` means no per-tenant cap.  Unknown tenants named at
        submit or attach time are auto-registered with weight 1.0.
        """
        if weight <= 0:
            raise ServiceError("tenant weight must be positive")
        if quota is not None and quota < 1:
            raise ServiceError("tenant quota must be at least 1 (or None)")
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(name, len(self._tenant_slots), float(weight), quota)
            self._tenants[name] = state
            self._tenant_slots.append(state)
        else:
            state.weight = float(weight)
            state.quota = quota

    def _tenant_state(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            self.register_tenant(name)
            state = self._tenants[name]
        return state

    def attach(self, session: WalkSession, tenant: str | None = None) -> WalkSession:
        """Join a session to the shared loop (before it submits anything).

        The session must belong to this scheduler's service, must not have
        queued or in-flight work yet, and its plan must be fusable: a
        replicated placement (sharded plans key their per-device ledgers by
        private wave-local step ordinals).
        """
        if session.service is not self.service:
            raise ServiceError("session belongs to a different service")
        if session._scheduler is not None:
            raise ServiceError(
                "session is already attached to a scheduler"
                if session._scheduler is self
                else "session is attached to a different scheduler"
            )
        if len(session._driver.index):
            raise ServiceError(
                "attach before submitting: the session already has queued, "
                "in-flight or executed work of its own"
            )
        if session.plan.graph_placement == "sharded":
            raise ServiceError(
                "sharded-placement sessions cannot attach: their per-device "
                "accounting is keyed by wave-local step ordinals, which a "
                "fused cross-session frontier does not preserve"
            )
        if not session.plan.scheduler_fusion:
            raise ServiceError(
                "scheduler fusion was declined for this plan (static "
                "verification found ERROR diagnostics; see plan.reasons); "
                "run the session standalone instead of attaching it"
            )
        tstate = self._tenant_state(tenant if tenant is not None else self.default_tenant)
        group = self._group_for(session)
        entry = _SessionEntry(session, tstate, group)
        group.sessions[session._driver] = entry
        self._entries[id(session)] = entry
        session._scheduler = self
        tstate.sessions += 1
        return session

    def session(
        self,
        spec: WalkSpec,
        config: FlexiWalkerConfig | None = None,
        *,
        tenant: str | None = None,
    ) -> WalkSession:
        """Open a service session and attach it in one step."""
        return self.attach(self.service.session(spec, config), tenant)

    def detach(self, session: WalkSession) -> None:
        """Drain the session's outstanding walkers and release it.

        The session returns to standalone execution; its accumulated
        results stay collectible.
        """
        entry = self._entries.get(id(session))
        if entry is None or session._scheduler is not self:
            raise ServiceError("session is not attached to this scheduler")
        self._check_quarantined(entry)
        while entry.queued + entry.inflight:
            self._checked_tick(entry)
        self._check_quarantined(entry)
        session._scheduler = None
        entry.tenant.sessions -= 1
        del self._entries[id(session)]
        group = entry.group
        del group.sessions[session._driver]
        if not group.sessions and self._groups.get(group.key) is group:
            del self._groups[group.key]  # retired; its fault tallies stay

    def _group_for(self, session: WalkSession) -> _Group:
        from repro.service.service import WalkService

        # Sessions fuse only when nothing observable distinguishes their
        # execution: same workload (structural spec key), same config (seed
        # included — it keys every random stream), same negotiated plan and
        # the same selector kind.  Anything else lands in its own group;
        # groups still advance in lockstep, one superstep per tick.
        key = (
            WalkService._spec_key(session.spec),
            session.graph_version,
            WalkService._canonical(dataclasses.asdict(session.config)),
            WalkService._canonical(session.plan.describe()),
            type(session.selector).__qualname__,
        )
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(key, session.engine)
            if group.launch.recovery is not None:
                self._faults.append(group.launch.recovery.faults)
        return group

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def queued(self) -> int:
        """Walkers waiting in admission queues (all tenants)."""
        return self._queued

    @property
    def inflight(self) -> int:
        """Walkers currently executing in fused frontiers."""
        return self._inflight

    @property
    def pending(self) -> int:
        """Queued + in-flight walkers across every attached session."""
        return self._queued + self._inflight

    @property
    def supersteps(self) -> int:
        """Scheduler ticks executed so far (the latency clock)."""
        return self._tick

    @property
    def quarantined(self) -> tuple["WalkSession", ...]:
        """Sessions whose fusion group was quarantined after a crash.

        A quarantined session's results are unreliable (its group died
        mid-superstep); reusing it — submit, stream, collect or detach —
        raises :class:`~repro.errors.ServiceError`.  Every other group
        keeps ticking normally.
        """
        return tuple(e.session for e in self._quarantined)

    @property
    def dead_letters(self) -> int:
        """Walkers dropped before completing, across every tenant."""
        return sum(t.dead_letters for t in self._tenants.values())

    @property
    def recovery_time_ns(self) -> float:
        """Simulated recovery time accumulated by every fusion group
        (retired ones included; quarantined ones are gone)."""
        return sum(faults.recovery_ns for faults in self._faults)

    @property
    def checkpoints_taken(self) -> int:
        """Explicit (charged) checkpoints taken across every fusion group."""
        return sum(faults.checkpoints_taken for faults in self._faults)

    @property
    def degraded_devices(self) -> tuple[int, ...]:
        """Devices lost to permanent failures, across every fusion group."""
        return tuple(sorted({d for faults in self._faults for d in faults.degraded}))

    def tenant_stats(self) -> dict[str, TenantStats]:
        """Exact per-tenant accounting, split out of the fused execution."""
        slo_queued: dict[str, int] = {}
        for p in self._slo:
            slo_queued[p.tenant.name] = slo_queued.get(p.tenant.name, 0) + 1
        stats = {}
        for name, t in sorted(self._tenants.items()):
            queued = len(t.queue) + slo_queued.get(name, 0)
            stats[name] = TenantStats(
                tenant=name,
                weight=t.weight,
                quota=t.quota,
                sessions=t.sessions,
                submitted=t.submitted,
                admitted=t.admitted,
                completed=t.completed,
                queued=queued,
                inflight=t.outstanding - queued,
                slo_admitted=t.slo_admitted,
                steps=t.steps,
                lane_time_ns=t.lane_ns,
                dead_letters=t.dead_letters,
            )
        return stats

    def describe(self) -> dict[str, object]:
        """Summary of the scheduler's state (for logs and examples)."""
        return {
            "fairness": self.fairness,
            "max_inflight_walkers": self.max_inflight_walkers,
            "default_tenant": self.default_tenant,
            "tenants": sorted(self._tenants),
            "sessions": len(self._entries),
            "fusion_groups": len(self._groups),
            "fused_positions": sum(len(g.launch.run) for g in self._groups.values()),
            "supersteps": self._tick,
            "queued": self._queued,
            "inflight": self._inflight,
            "quarantined_sessions": len(self._quarantined),
            "dead_letters": self.dead_letters,
        }

    # ------------------------------------------------------------------ #
    # The execution loop
    # ------------------------------------------------------------------ #
    def tick(self) -> int:
        """One superstep boundary: expire, admit, advance every fusion group.

        Crash-safe: a group whose superstep raises is quarantined — its
        sessions' outstanding walkers are dead-lettered and the group is
        removed — instead of wedging every tenant behind the poisoned
        frontier.  Returns the number of walker-steps executed across all
        (surviving) groups.
        """
        started = time.perf_counter()  # repro: ignore[internal/wall-clock]
        self._shed_overdue()
        self._expire_deadlines()
        self._admit()
        steps = 0
        participants: list[tuple[_SessionEntry, int]] = []
        for group in list(self._groups.values()):
            if not group.inflight:
                continue  # idle: its launch would find no walker to step
            try:
                # A failure replays within this tick: admissions only land
                # at tick boundaries, so no new walker can join mid-replay.
                step = group.launch.advance()
                if step is not None:
                    steps += self._fold(group, *step, participants)
            except Exception as exc:  # noqa: BLE001 - quarantine, don't wedge
                self._quarantine_group(group, exc)
        self._tick += 1
        elapsed = time.perf_counter() - started  # repro: ignore[internal/wall-clock]
        if steps:
            # Wall time is shared; attribute it to sessions by their share
            # of this tick's walker-steps (informational, like a solo
            # session's wall-clock bookkeeping).
            for entry, share in participants:
                entry.session._driver.charge(wall_clock_s=elapsed * (share / steps))
        return steps

    def run_until_idle(self, max_ticks: int | None = None) -> int:
        """Tick until no queued or in-flight work remains; total steps run."""
        total = 0
        ticks = 0
        while self.pending:
            if max_ticks is not None and ticks >= max_ticks:
                raise ServiceError(
                    f"scheduler still has {self.pending} pending walkers "
                    f"after {max_ticks} ticks"
                )
            total += self.tick()
            ticks += 1
        return total

    def _checked_tick(self, entry: _SessionEntry) -> int:
        """Tick with a no-progress guard for drain loops."""
        before = (self._queued, self._inflight)
        steps = self.tick()
        after = (self._queued, self._inflight)
        if steps == 0 and before == after and entry.queued + entry.inflight:
            raise ServiceError(
                "scheduler made no progress while the session still has "
                "pending walkers (internal invariant violation)"
            )  # pragma: no cover - defensive
        return steps

    def _stream_session(self, session: WalkSession) -> Iterator["WalkChunk"]:
        """Drive the shared loop, yielding this session's chunks.

        Other sessions' completions buffer on their own entries (their
        streams pick them up).  Returns when the session has no pending
        work.

        Dropping the iterator mid-stream (breaking out of the only
        reference to it) abandons the session's remaining walkers: they
        are cancelled so the in-flight budget and tenant quota headroom
        they held is released immediately, instead of leaking until some
        other session's stream happens to drain them.
        """
        entry = self._entries[id(session)]
        self._check_quarantined(entry)
        try:
            while True:
                while entry.chunks:
                    yield entry.chunks.popleft()
                if entry.queued + entry.inflight == 0:
                    break
                self._checked_tick(entry)
        except GeneratorExit:
            self._abandon(entry)
            raise
        self._check_quarantined(entry)

    def _session_pending(self, session: WalkSession) -> int:
        entry = self._entries[id(session)]
        return entry.queued + entry.inflight

    # ------------------------------------------------------------------ #
    # Robustness: cancellation, deadlines, shedding, quarantine
    # ------------------------------------------------------------------ #
    def _drop_pending(self, p: _Pending, reason: str) -> None:
        """Dead-letter one still-queued walker (caller removes it from its lane)."""
        p.entry.session._cancelled_ids[p.query_id] = reason
        p.tenant.outstanding -= 1
        p.tenant.dead_letters += 1
        p.entry.queued -= 1
        self._queued -= 1

    def _cancel_queries(self, session, ordinals: range, reason: str) -> int:
        """Cancel the session's unfinished walks among ``ordinals``."""
        entry = self._entries.get(id(session))
        if entry is None:
            raise ServiceError("session is not attached to this scheduler")
        ids = session._driver.index.ids(ordinals.start, len(ordinals)).tolist()
        return sum(
            1 for qid, ordinal in zip(ids, ordinals, strict=True)
            if self._cancel_query(entry, qid, ordinal, reason)
        )

    def _cancel_query(self, entry: _SessionEntry, qid: int, ordinal: int, reason: str) -> bool:
        """Drop one unfinished walker, queued or in flight; False if done.

        In-flight walkers are terminated in the fused frontier; the walk
        prefix they already executed stays in the accounting (it really
        ran) but the ticket reports the walk as dropped.  Either way the
        in-flight budget and tenant quota headroom are released now.
        """
        session = entry.session
        driver = session._driver
        if driver.settled(ordinal) or qid in session._cancelled_ids:
            return False
        if not driver.claimed(ordinal):  # still queued
            for lane in [self._slo, *(t.queue for t in self._tenants.values())]:
                for p in lane:
                    if p.entry is entry and p.sub_ord == ordinal:
                        lane.remove(p)
                        self._drop_pending(p, reason)
                        return True
            return False  # pragma: no cover - defensive
        group = entry.group
        pos = group.launch.cancel(driver, ordinal)  # claimed: in flight in the group
        session._cancelled_ids[qid] = reason
        tenant = self._tenant_slots[int(group.tenant[pos])]
        tenant.outstanding -= 1
        tenant.dead_letters += 1
        entry.inflight -= 1
        group.inflight -= 1
        self._inflight -= 1
        return True

    def _expire_deadlines(self) -> None:
        """Cancel walkers whose hard ``deadline_ticks`` has passed."""
        while self._deadlines and self._deadlines[0][0] <= self._tick:
            _, _, entry, qid, ordinal = heapq.heappop(self._deadlines)
            if entry.quarantined is None:
                self._cancel_query(entry, qid, ordinal, reason="deadline")

    def _shed_overdue(self) -> None:
        """Shed queued walkers that outwaited ``shed_after_ticks``.

        The load-shedding valve under sustained backpressure: when
        admission cannot keep up, the oldest queued walkers are
        dead-lettered instead of growing the queues without bound.
        """
        if self.shed_after_ticks is None or not self._queued:
            return
        oldest = self._tick - self.shed_after_ticks
        self._drop_queued(lambda p: p.enqueue_tick <= oldest, reason="shed")

    def _drop_queued(self, doomed, reason: str) -> None:
        """Dead-letter the queued walkers ``doomed`` picks, in every lane."""
        for lane in [self._slo, *(t.queue for t in self._tenants.values())]:
            keep: list[_Pending] = []
            for p in lane:
                if doomed(p):
                    self._drop_pending(p, reason)
                else:
                    keep.append(p)
            if len(keep) < len(lane):
                lane.clear()
                lane.extend(keep)

    def _check_quarantined(self, entry: _SessionEntry) -> None:
        if entry.quarantined is not None:
            raise ServiceError(
                "session was quarantined after its fusion group crashed "
                f"({entry.quarantined}); its results are not recoverable"
            )

    def _quarantine_group(self, group: _Group, exc: BaseException) -> None:
        """Contain a poisoned fusion group instead of wedging every tenant.

        The group is removed from the loop and every walker its sessions
        still had outstanding — queued or in flight — is dead-lettered,
        releasing the budget and quota headroom they held.  The sessions
        are marked quarantined: any further use raises
        :class:`~repro.errors.ServiceError` naming the original crash.
        Sessions in *other* groups are untouched.
        """
        self._groups.pop(group.key, None)
        if group.launch.recovery is not None:
            self._faults = [f for f in self._faults if f is not group.launch.recovery.faults]
        message = f"{type(exc).__name__}: {exc}"
        live = {entry for entry in group.sessions.values() if entry.quarantined is None}
        self._drop_queued(lambda p: p.entry in live, reason="quarantined")
        # Every walker still in the fused frontier whose result has not
        # settled (a finished or cancelled walk settles at once) was in
        # flight; compaction only ever drops settled walkers.
        launch = group.launch
        owner, ords = launch.owner.tolist(), launch.ords.tolist()
        tenant_of = group.tenant.tolist()
        for pos, qid in enumerate(launch.run.frontier.query_ids.tolist()):
            driver = launch.owners[owner[pos]]
            if driver.lengths[ords[pos]]:
                continue
            entry = group.sessions[driver]
            entry.session._cancelled_ids[qid] = "quarantined"
            tenant = self._tenant_slots[tenant_of[pos]]
            tenant.outstanding -= 1
            tenant.dead_letters += 1
            entry.inflight -= 1
            self._inflight -= 1
        group.inflight = 0
        for entry in group.sessions.values():
            if entry.quarantined is None:
                entry.quarantined = message
                self._quarantined.append(entry)

    def _abandon(self, entry: _SessionEntry) -> None:
        """Release an abandoned session's outstanding walkers (dropped stream)."""
        if entry.quarantined is not None:
            return
        index = entry.session._driver.index
        for ordinal, qid in enumerate(index.ids(0, len(index)).tolist()):
            self._cancel_query(entry, qid, ordinal, reason="abandoned")  # skips finished walks

    # ------------------------------------------------------------------ #
    # Admission: backpressure, fairness, mid-flight injection
    # ------------------------------------------------------------------ #
    def _reserve_capacity(
        self, session: WalkSession, count: int, options: SubmitOptions
    ) -> None:
        """Backpressure gate, run before the submission mutates anything.

        Two independent limits: a submission arriving while the in-flight
        walker budget is *exhausted* (every execution slot occupied) is
        refused — new work may only queue while the loop still has room to
        make progress on it; and a tenant's outstanding (queued + in-flight)
        walkers may never exceed its quota, which is what bounds a single
        tenant's queue memory.  ``block_on_full`` turns both refusals into
        blocking admission: supersteps run until completions free capacity
        (bounded by ``block_timeout`` wall-clock seconds when set).
        """
        entry = self._entries[id(session)]
        self._check_quarantined(entry)
        tenant = self._submit_tenant(entry, options)
        budget = self.max_inflight_walkers
        if tenant.quota is not None and count > tenant.quota:
            raise QueueFull(
                f"submission of {count} walkers can never fit tenant "
                f"{tenant.name!r}'s quota of {tenant.quota}"
            )

        def fits() -> bool:
            if budget and self._inflight >= budget:
                return False
            if tenant.quota is not None and tenant.outstanding + count > tenant.quota:
                return False
            return True

        give_up = (
            None
            if options.block_timeout is None
            else time.monotonic() + options.block_timeout  # repro: ignore[internal/wall-clock]
        )
        while not fits():
            if not options.block_on_full:
                raise QueueFull(
                    f"in-flight walker budget exhausted ({self._inflight}/"
                    f"{budget or 'unbounded'} in flight, tenant {tenant.name!r} "
                    f"outstanding {tenant.outstanding}, quota {tenant.quota}); "
                    "submit with SubmitOptions(block_on_full=True) to wait, "
                    "or drain first"
                )
            if give_up is not None and time.monotonic() >= give_up:  # repro: ignore[internal/wall-clock]
                raise QueueFull(
                    f"blocking admission timed out after {options.block_timeout:g}s "
                    f"({self._inflight} walkers still in flight, tenant "
                    f"{tenant.name!r} outstanding {tenant.outstanding}, "
                    f"quota {tenant.quota})"
                )
            # Blocking admission: run supersteps until completions free
            # capacity.  Progress is guaranteed — walkers are in flight (or
            # queued behind a nonempty frontier) whenever this loop runs.
            self.tick()

    def _submit_tenant(self, entry: _SessionEntry, options: SubmitOptions) -> _TenantState:
        if options.tenant is None:
            return entry.tenant
        return self._tenant_state(options.tenant)

    def _enqueue(
        self,
        session: WalkSession,
        batch: QueryBatch,
        first: int,
        options: SubmitOptions,
    ) -> None:
        """Stage validated queries (submission ordinals ``first`` on) into
        the admission queues."""
        entry = self._entries[id(session)]
        tenant = self._submit_tenant(entry, options)
        count = len(batch)
        tick = self._tick
        columns = zip(
            batch.query_ids.tolist(), batch.start_nodes.tolist(), batch.max_lengths.tolist(),
            range(first, first + count), strict=True,
        )
        for qid, start, length, ordinal in columns:
            pending = _Pending(
                self._seq, entry, tenant, qid, start, length, ordinal, tick,
                options.deadline_steps,
            )
            self._seq += 1
            if options.deadline_ticks is not None:
                heapq.heappush(
                    self._deadlines,
                    (tick + options.deadline_ticks, pending.seq, entry, qid, ordinal),
                )
            if options.priority > 0:
                self._slo.append(pending)
            else:
                tenant.queue.append(pending)
                if options.deadline_steps is not None:
                    tenant.has_deadlines = True
        tenant.submitted += count
        tenant.outstanding += count
        entry.queued += count
        self._queued += count

    def _admit(self) -> None:
        """Admit queued walkers into their fusion groups, budget permitting.

        Order: deadline promotions first, then the SLO lane (FIFO), then
        the fairness policy — ``wrr`` picks the backlogged tenant with the
        smallest virtual time (one walker per pick, virtual time advanced
        by ``1/weight``), ``fifo`` follows global submission order.

        Consecutive picks of one tenant are taken as one block: the run
        lasts until the tenant's queue empties, the budget binds or another
        backlogged tenant would win the next pick.  The admission order,
        the ``admissions`` log and every tenant's virtual time come out
        exactly as walker-by-walker picking would leave them.
        """
        if not self._queued:
            return
        # Queued walkers whose deadline aged out jump to the SLO lane.
        for tenant in self._tenants.values():
            if tenant.has_deadlines and tenant.queue:
                remaining: deque[_Pending] = deque()
                for p in tenant.queue:
                    if (
                        p.deadline_steps is not None
                        and self._tick - p.enqueue_tick >= p.deadline_steps
                    ):
                        self._slo.append(p)
                    else:
                        remaining.append(p)
                tenant.queue = remaining
                tenant.has_deadlines = any(
                    p.deadline_steps is not None for p in remaining
                )

        # Walkers that may still be admitted this tick (None: unbounded).
        room = (
            None
            if self.max_inflight_walkers == 0
            else self.max_inflight_walkers - self._inflight
        )
        admitted: list[_Pending] = []
        slo = self._slo
        if slo and (room is None or room > 0):
            block = _take(slo, len(slo) if room is None else room)
            for p in block:
                p.tenant.slo_admitted += 1
            admitted.extend(block)
            if room is not None:
                room -= len(block)
        backlogged = [t for t in self._tenants.values() if t.queue]
        while backlogged and (room is None or room > 0):
            if self.fairness == "fifo":
                tenant, n = self._fifo_run(backlogged, room)
            else:  # wrr: virtual-time weighted fair queuing over unit walkers
                tenant, n = self._wrr_run(backlogged, room)
            admitted.extend(_take(tenant.queue, n))
            if room is not None:
                room -= n
            if not tenant.queue:
                backlogged.remove(tenant)
        if not admitted:
            return
        if self.record_admissions:
            tick = self._tick
            self.admissions.extend([(tick, p.tenant.name) for p in admitted])

        group = admitted[0].entry.group
        for p in admitted:
            if p.entry.group is not group:
                break
        else:
            self._apply_admission(group, admitted)
            return
        by_group: dict[_Group, list[_Pending]] = {}
        for p in admitted:
            by_group.setdefault(p.entry.group, []).append(p)
        for group, batch in by_group.items():
            self._apply_admission(group, batch)

    @staticmethod
    def _fifo_run(backlogged: list[_TenantState], room: int | None) -> tuple[_TenantState, int]:
        """The next run of FIFO picks: global submission order."""
        backlogged.sort(key=_head_seq)
        tenant = backlogged[0]
        queue = tenant.queue
        limit = len(queue) if room is None else min(len(queue), room)
        if len(backlogged) == 1:
            return tenant, limit
        bound = backlogged[1].queue[0].seq
        n = 1
        while n < limit and queue[n].seq < bound:
            n += 1
        return tenant, n

    def _wrr_run(self, backlogged: list[_TenantState], room: int | None) -> tuple[_TenantState, int]:
        """The next run of WRR picks, advancing the virtual clocks pick by pick."""
        backlogged.sort(key=_WRR_KEY)
        tenant = backlogged[0]
        queue = tenant.queue
        limit = len(queue) if room is None else min(len(queue), room)
        rival = (backlogged[1].vtime, backlogged[1].name) if len(backlogged) > 1 else None
        name, step = tenant.name, 1.0 / tenant.weight
        vtime, vclock = tenant.vtime, self._vclock
        n = 0
        while n < limit and (rival is None or n == 0 or (vtime, name) < rival):
            # Catch the virtual clock up for tenants that sat idle, so a
            # returning tenant gets its fair share, not a stale burst.
            if vclock > vtime:
                vtime = vclock
            vclock = vtime
            vtime += step
            n += 1
        tenant.vtime, self._vclock = vtime, vclock
        return tenant, n

    def _apply_admission(self, group: _Group, batch: list[_Pending]) -> None:
        """Inject one group's admitted walkers into its fused frontier.

        An admission boundary is the only time fused positions may move:
        the group's finished walkers are compacted away first (their
        results already sit in their sessions' result ledgers; streams are
        keyed by query id, so renumbering cannot change any walk), then the
        new walkers are appended in admission order.  The launch charges
        each session its walkers' queue fetches.
        """
        launch = group.launch
        if len(launch.run) > group.inflight:
            # Every walker that is not active has finished or was cancelled
            # and settled then; the survivors keep their relative order.
            keep = launch.run.frontier.active_indices()
            launch.compact(keep)
            group.tenant = group.tenant[keep]
        k = len(batch)
        tick = self._tick
        drivers: dict[FrontierDriver, int] = {}  # -> its index in the admit call
        held = []
        for p in batch:
            entry = p.entry
            held.append(drivers.setdefault(entry.session._driver, len(drivers)))
            entry.queued -= 1
            entry.inflight += 1
            p.tenant.admitted += 1
        queries = QueryBatch._of_arrays(
            np.array([p.query_id for p in batch], dtype=np.int64),
            np.array([p.start_node for p in batch], dtype=np.int64),
            np.array([p.max_length for p in batch], dtype=np.int64),
        )
        launch.admit(
            list(drivers),
            np.array(held, dtype=np.int64),
            queries,
            np.array([p.sub_ord for p in batch], dtype=np.int64),
        )
        # The launch sized every session's ledger for its admitted walkers.
        for p in batch:
            driver = p.entry.session._driver
            driver.start_step[p.sub_ord] = tick
            driver.enqueue_step[p.sub_ord] = p.enqueue_tick
        group.tenant = np.concatenate(
            [group.tenant, np.array([p.tenant.slot for p in batch], dtype=np.int64)]
        )
        group.inflight += k
        self._queued -= k
        self._inflight += k

    # ------------------------------------------------------------------ #
    # Per-tenant and per-session results of a superstep
    # ------------------------------------------------------------------ #
    def _fold(
        self, group: _Group, report, parts, participants: list[tuple[_SessionEntry, int]]
    ) -> int:
        """Tenant stats and session chunks of one fused superstep; returns
        its steps.  The launch already folded the work into each session's
        driver: here steps and lane time land on each walker's own tenant,
        completions release budget and quota, and each session with
        finished walks gets its chunk."""
        slots, tenant = self._tenant_slots, group.tenant
        held = tenant[report.active]
        lane_ns = np.bincount(held, weights=report.step_ns).tolist()
        for t, steps in enumerate(np.bincount(held).tolist()):
            if steps:
                slots[t].steps += steps
                slots[t].lane_ns += lane_ns[t]
        for t in tenant[report.finished].tolist():
            slots[t].outstanding -= 1
            slots[t].completed += 1
        group.inflight -= report.finished.size
        self._inflight -= report.finished.size
        for part in parts:
            entry = group.sessions[part.owner]
            if part.steps:
                participants.append((entry, part.steps))
            if part.query_ids:
                entry.inflight -= len(part.query_ids)
                entry.chunks.append(entry.session._emit(part, superstep=self._tick))
        return report.steps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceScheduler(sessions={len(self._entries)}, "
            f"fairness={self.fairness!r}, "
            f"max_inflight_walkers={self.max_inflight_walkers}, "
            f"pending={self.pending})"
        )
