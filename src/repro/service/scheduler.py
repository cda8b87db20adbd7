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
  current wave to drain (mid-flight injection via
  :class:`~repro.runtime.frontier.FrontierRun`);
* the fused counters, kernel times and sampler usage are split back out per
  session and tenant exactly, using the per-walker slots and the
  :class:`~repro.runtime.frontier.SuperstepReport` sampler attribution —
  every session's ``collect()`` stays bit-identical to running it alone.

A fusion group runs on the same state and protocol as a standalone run: a
:class:`~repro.runtime.frontier.FrontierRun` it admits into, and under a
fault plan a :class:`~repro.runtime.faults.RunRecovery`, which replays a
failure's lost supersteps inside the tick that observed it.  Admission and
cancellation invalidate its restore point.

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
submission ordinal: a fused position remembers its walker's ordinal, and
the superstep that finishes the walk (or a cancellation in flight) settles
it there at once, so walkers admitted out of submission order still
assemble in submission order.

The scheduler's state stays bounded over a long service lifetime: at every
admission boundary a fusion group's fused frontier drops its finished
walkers (random streams are keyed by query id, so moving a walker to a new
position cannot change its walk), and a group retires when its last
attached session detaches (its fault tallies fold into scheduler-level
totals first).  A superstep skips idle groups without touching their
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
from repro.gpusim.counters import CostCounters
from repro.runtime.frontier import FrontierRun, fold_counters_by_owner, iter_supersteps
from repro.walks.state import WalkQuery

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
    walker slots of the fused supersteps, folded by owner); the admission
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
        "name", "weight", "quota", "queue", "vtime", "has_deadlines",
        "sessions", "outstanding", "submitted", "admitted", "completed",
        "slo_admitted", "steps", "lane_ns", "dead_letters",
    )

    def __init__(self, name: str, weight: float, quota: int | None) -> None:
        self.name = name
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
    """One queued walker awaiting admission."""

    __slots__ = ("seq", "entry", "tenant", "query", "sub_ord", "enqueue_tick",
                 "deadline_steps")

    def __init__(self, seq, entry, tenant, query, sub_ord, enqueue_tick,
                 deadline_steps) -> None:
        self.seq = seq
        self.entry = entry
        self.tenant = tenant
        self.query = query
        self.sub_ord = sub_ord  # submission ordinal: the walker's ledger column
        self.enqueue_tick = enqueue_tick
        self.deadline_steps = deadline_steps


class _SessionEntry:
    """Scheduler-side state of one attached session: its tenant, fusion
    group, walker tallies and the chunks its stream has not yet taken.

    The session's results live in its driver's result ledger, where the
    scheduler settles each walk as it finishes or is cancelled in flight.
    """

    __slots__ = ("session", "tenant", "group", "gidx", "attached", "queued",
                 "inflight", "chunks", "quarantined")

    def __init__(self, session, tenant: _TenantState, group: _Group) -> None:
        self.session = session
        self.tenant = tenant
        self.group = group
        self.gidx = len(group.sessions)  # this entry's index within the group
        self.attached = True
        self.queued = 0
        self.inflight = 0
        self.chunks: deque["WalkChunk"] = deque()
        self.quarantined: str | None = None  # set when the group is poisoned


class _Group:
    """One fusion group: sessions compatible enough to share a frontier.

    Per fused frontier position it keeps the owning session (``owner``, an
    index into ``sessions``), that walker's submission ordinal in the
    owner's result ledger (``ords``) and its tenant.  All three are
    compacted together with the frontier when finished walkers are dropped.
    """

    __slots__ = ("key", "seq", "engine", "run", "gen", "recovery",
                 "sessions", "attached", "inflight", "owner", "ords", "tenants",
                 "aggregate", "usage")

    def __init__(self, key, seq: int, engine) -> None:
        self.key = key
        self.seq = seq  # creation order (fault tallies sum in this order)
        self.engine = engine
        self.run = FrontierRun(engine)
        self.gen = None  # the run's superstep loop (None while idle)
        self.sessions: list[_SessionEntry] = []
        self.attached = 0   # sessions still attached
        self.inflight = 0   # admitted walkers that have not finished
        self.owner = np.zeros(0, dtype=np.int64)     # fused pos -> gidx
        self.ords = np.zeros(0, dtype=np.int64)      # fused pos -> ordinal
        self.tenants: list[_TenantState] = []        # fused pos -> tenant
        # Fused-level sinks required by iter_supersteps; the per-session
        # attribution happens in the scheduler's fold, these are only kept
        # for group-level introspection.
        self.aggregate = CostCounters(bytes_per_weight=engine.weight_bytes)
        self.usage: dict[str, int] = {}
        # The fault-recovery protocol (None on the fault-free fast path);
        # its superstep ordinal is the group's fault-plan clock.
        self.recovery = engine._recovery(self.run, self.aggregate, self.usage)


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
        for name, quota in tenant_quotas:
            self.register_tenant(name, quota=quota)
        self._entries: dict[int, _SessionEntry] = {}  # id(session) -> entry
        self._groups: dict[tuple, _Group] = {}
        self._slo: deque[_Pending] = deque()
        # Hard per-walker deadlines: (expiry_tick, seq, entry, query_id),
        # a heap popped at every tick boundary.
        self._deadlines: list[tuple[int, int, _SessionEntry, int]] = []
        self._quarantined: list[_SessionEntry] = []
        # Fault tallies of retired groups: recovery time by group creation
        # order (so sums keep the order of live groups), checkpoints taken,
        # devices lost.
        self._group_seq = 0
        self._retired_recovery: dict[int, float] = {}
        self._retired_checkpoints = 0
        self._retired_degraded: set[int] = set()
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
            self._tenants[name] = _TenantState(name, float(weight), quota)
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
        if session._driver.ordinals:
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
        group.sessions.append(entry)
        group.attached += 1
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
        entry.attached = False
        group = entry.group
        group.attached -= 1
        if group.attached == 0:
            self._retire_group(group)

    def _retire_group(self, group: _Group) -> None:
        """Drop a group no session is attached to, keeping its fault tallies."""
        if self._groups.get(group.key) is group:
            del self._groups[group.key]
        if group.recovery is not None:
            faults = group.recovery.faults
            if faults.recovery_ns:
                self._retired_recovery[group.seq] = faults.recovery_ns
            self._retired_checkpoints += faults.checkpoints_taken
            self._retired_degraded.update(faults.degraded)

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
            group = _Group(key, self._group_seq, session.engine)
            self._group_seq += 1
            self._groups[key] = group
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
        by_seq = dict(self._retired_recovery)
        for g in self._groups.values():
            if g.recovery is not None:
                by_seq[g.seq] = g.recovery.faults.recovery_ns
        return sum(by_seq[seq] for seq in sorted(by_seq))

    @property
    def checkpoints_taken(self) -> int:
        """Explicit (charged) checkpoints taken across every fusion group."""
        return self._retired_checkpoints + sum(
            g.recovery.faults.checkpoints_taken
            for g in self._groups.values()
            if g.recovery is not None
        )

    @property
    def degraded_devices(self) -> tuple[int, ...]:
        """Devices lost to permanent failures, across every fusion group."""
        dead = set(self._retired_degraded)
        for g in self._groups.values():
            if g.recovery is not None:
                dead.update(g.recovery.faults.degraded)
        return tuple(sorted(dead))

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
            "fused_positions": sum(len(g.run) for g in self._groups.values()),
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
            try:
                steps += self._advance_group(group, participants)
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
        p.entry.session._cancelled_ids[p.query.query_id] = reason
        p.tenant.outstanding -= 1
        p.tenant.dead_letters += 1
        p.entry.queued -= 1
        self._queued -= 1

    def _cancel_queries(self, session, query_ids, reason: str) -> int:
        entry = self._entries.get(id(session))
        if entry is None:
            raise ServiceError("session is not attached to this scheduler")
        return sum(1 for qid in query_ids if self._cancel_query(entry, int(qid), reason))

    def _cancel_query(self, entry: _SessionEntry, qid: int, reason: str) -> bool:
        """Drop one unfinished walker, queued or in flight; False if done.

        In-flight walkers are terminated in the fused frontier; the walk
        prefix they already executed stays in the accounting (it really
        ran) but the ticket reports the walk as dropped.  Either way the
        in-flight budget and tenant quota headroom are released now.
        """
        session = entry.session
        driver = session._driver
        ordinal = driver.ordinals[qid]
        if driver.paths[ordinal] is not None or qid in session._cancelled_ids:
            return False
        if qid not in session._start_step_by_qid:  # still queued
            for lane in [self._slo, *(t.queue for t in self._tenants.values())]:
                for p in lane:
                    if p.entry is entry and p.query.query_id == qid:
                        lane.remove(p)
                        self._drop_pending(p, reason)
                        return True
            return False  # pragma: no cover - defensive
        group = entry.group
        mine = (group.owner == entry.gidx) & (group.ords == ordinal)
        pos = np.flatnonzero(mine)  # claimed ids are in flight in the group
        run = group.run
        run.frontier.terminate(pos)
        session._cancelled_ids[qid] = reason
        driver.settle(group.ords[pos], run.frontier.paths_of(pos), run.per_query_ns[pos])
        # A restore from a pre-cancellation checkpoint would resurrect the
        # terminated walker; rebase the group's restore point on the
        # post-cancellation state instead.
        if group.recovery is not None:
            group.recovery.invalidate()
        tenant = group.tenants[int(pos[0])]
        tenant.outstanding -= 1
        tenant.dead_letters += 1
        entry.inflight -= 1
        group.inflight -= 1
        self._inflight -= 1
        return True

    def _expire_deadlines(self) -> None:
        """Cancel walkers whose hard ``deadline_ticks`` has passed."""
        while self._deadlines and self._deadlines[0][0] <= self._tick:
            _, _, entry, qid = heapq.heappop(self._deadlines)
            if entry.quarantined is None:
                self._cancel_query(entry, qid, reason="deadline")

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
        message = f"{type(exc).__name__}: {exc}"
        live = {entry for entry in group.sessions if entry.quarantined is None}
        self._drop_queued(lambda p: p.entry in live, reason="quarantined")
        # Every walker still in the fused frontier whose result has not
        # settled (a finished or cancelled walk settles at once) was in
        # flight; compaction only ever drops settled walkers.
        owner, ords = group.owner.tolist(), group.ords.tolist()
        for pos, query in enumerate(group.run.frontier.queries):
            entry = group.sessions[owner[pos]]
            if entry.session._driver.paths[ords[pos]] is not None:
                continue
            entry.session._cancelled_ids[query.query_id] = "quarantined"
            tenant = group.tenants[pos]
            tenant.outstanding -= 1
            tenant.dead_letters += 1
            entry.inflight -= 1
            self._inflight -= 1
        group.inflight = 0
        for entry in group.sessions:
            if entry.quarantined is None:
                entry.quarantined = message
                self._quarantined.append(entry)

    def _abandon(self, entry: _SessionEntry) -> None:
        """Release an abandoned session's outstanding walkers (dropped stream)."""
        if entry.quarantined is not None:
            return
        for qid in entry.session._driver.ordinals:  # finished walks are skipped
            self._cancel_query(entry, qid, reason="abandoned")

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
        queries: list[WalkQuery],
        options: SubmitOptions,
    ) -> None:
        """Stage validated queries into the admission queues."""
        entry = self._entries[id(session)]
        tenant = self._submit_tenant(entry, options)
        base = session._driver.ordinals[queries[0].query_id]
        for i, query in enumerate(queries):
            session._enqueue_step_by_qid[query.query_id] = self._tick
            pending = _Pending(
                seq=self._seq,
                entry=entry,
                tenant=tenant,
                query=query,
                sub_ord=base + i,
                enqueue_tick=self._tick,
                deadline_steps=options.deadline_steps,
            )
            self._seq += 1
            if options.deadline_ticks is not None:
                heapq.heappush(
                    self._deadlines,
                    (self._tick + options.deadline_ticks, pending.seq, entry,
                     query.query_id),
                )
            if options.priority > 0:
                self._slo.append(pending)
            else:
                tenant.queue.append(pending)
                if options.deadline_steps is not None:
                    tenant.has_deadlines = True
        count = len(queries)
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
        results already sit in their sessions' result ledgers), then the
        new walkers are appended.
        """
        run = group.run
        if len(run) > group.inflight or group.attached < len(group.sessions):
            self._compact(group)
        run.admit([p.query for p in batch], group.engine.seed)
        k = len(batch)
        tick = self._tick
        per_entry: dict[_SessionEntry, list[_Pending]] = {}
        for p in batch:
            entry = p.entry
            entry.queued -= 1
            entry.inflight += 1
            entry.session._start_step_by_qid[p.query.query_id] = tick
            p.tenant.admitted += 1
            per_entry.setdefault(entry, []).append(p)
        group.owner = np.concatenate(
            [group.owner, np.array([p.entry.gidx for p in batch], dtype=np.int64)]
        )
        group.ords = np.concatenate(
            [group.ords, np.array([p.sub_ord for p in batch], dtype=np.int64)]
        )
        group.tenants.extend([p.tenant for p in batch])

        # Per-session fetch accounting: one queue atomic per admitted
        # walker, exactly as a solo wave launch charges it (lane pricing is
        # per-slot, so splitting a launch across admissions changes nothing).
        weight_bytes = group.engine.weight_bytes
        for entry, mine in per_entry.items():
            driver = entry.session._driver
            driver.charge(CostCounters(atomic_ops=len(mine), bytes_per_weight=weight_bytes))
            if driver.ledger is not None:  # replicated: open the count columns
                driver.ledger.launch(
                    np.array([p.sub_ord for p in mine], dtype=np.int64),
                    np.array([p.query.start_node for p in mine], dtype=np.int64),
                )
        group.inflight += k
        self._queued -= k
        self._inflight += k
        # Admission grew the frontier, so the group's restore point no
        # longer matches its state; a fresh (cost-free) boundary snapshot
        # is taken before the next superstep runs.
        if group.recovery is not None:
            group.recovery.invalidate()

    @staticmethod
    def _compact(group: _Group) -> None:
        """Drop a group's finished walkers and detached sessions.

        Every walker that is not active has finished or was cancelled, and
        its result was settled into its session's result ledger then.  The
        survivors keep their relative order; random streams are keyed by
        query id, so renumbering them cannot change any walk.  A detached
        session owned no live walker (detaching drains it), so the attached
        sessions are renumbered too.
        """
        keep = group.run.frontier.active_indices()
        group.run.compact(keep)
        group.owner = group.owner[keep]
        group.ords = group.ords[keep]
        group.tenants = [group.tenants[i] for i in keep.tolist()]
        if group.attached < len(group.sessions):
            renumber = np.zeros(len(group.sessions), dtype=np.int64)
            group.sessions = [e for e in group.sessions if e.attached]
            for gidx, entry in enumerate(group.sessions):
                renumber[entry.gidx] = gidx
                entry.gidx = gidx
            group.owner = renumber[group.owner]

    # ------------------------------------------------------------------ #
    # Superstep execution and exact per-session attribution
    # ------------------------------------------------------------------ #
    def _advance_group(
        self, group: _Group, participants: list[tuple[_SessionEntry, int]]
    ) -> int:
        if not group.inflight:
            # Idle: a superstep generator would only find an empty frontier.
            group.gen = None
            return 0
        if group.gen is None:
            group.gen = iter_supersteps(group.engine, group.run, group.aggregate, group.usage)
        recovery = group.recovery
        if recovery is not None:
            # Admission boundary (or group birth): a cost-free snapshot.
            recovery.begin()
        try:
            report = next(group.gen)
        except StopIteration:
            group.gen = None
            return 0
        self._fold(group, report, participants)
        if recovery is not None:
            # A failure replays within this tick: admissions only land at
            # tick boundaries, so no new walker can join mid-replay.
            recovery.end(report)
        return report.steps

    def _fold(
        self,
        group: _Group,
        report,
        participants: list[tuple[_SessionEntry, int]],
    ) -> None:
        """Split one fused superstep back out per session and tenant.

        Integer counts fold exactly under any grouping (per-owner sums of
        per-walker integers); per-walker float times accumulate in each
        walker's own slot in walk order, identical to a solo run — which is
        why the per-session results stay bit-identical.  Replicated plans'
        per-walker counts land straight in the owning session's ledger
        columns.  Finished walkers are settled into their sessions' result
        ledgers at their submission ordinals and emitted as chunks.
        """
        sessions = group.sessions
        steps_by: list[int] = []
        tick_counters: dict[int, CostCounters] = {}
        active = report.active
        if active.size:
            counters = report.counters
            owners = group.owner[active]
            n = len(sessions)
            counts = np.bincount(owners, minlength=n)
            lane_ns = np.bincount(owners, weights=report.step_ns, minlength=n).tolist()
            present = counts.nonzero()[0].tolist()
            steps_by = counts.tolist()
            if len(present) == 1:
                folded = [report.totals]
            else:
                weight_bytes = group.engine.weight_bytes
                sums = fold_counters_by_owner(owners, counters, n)
                folded = [
                    CostCounters(*column, bytes_per_weight=weight_bytes)
                    for column in sums[:, present].T.tolist()
                ]
            for gidx, totals in zip(present, folded, strict=True):
                entry = sessions[gidx]
                steps = steps_by[gidx]
                driver = entry.session._driver
                driver.charge(totals, steps=steps)
                if driver.ledger is not None:
                    mine = np.flatnonzero(owners == gidx) if len(present) > 1 else slice(None)
                    driver.ledger.add(group.ords[active[mine]], counters.counts[:, mine])
                entry.tenant.steps += steps
                entry.tenant.lane_ns += lane_ns[gidx]
                tick_counters[gidx] = totals
                participants.append((entry, steps))
            # Sampler usage, attributed per session through the report's
            # kernel assignment (key set matches solo runs: a sampler is
            # recorded only for sessions whose walkers executed it).
            if report.assignment is not None:
                names = report.sampler_names
                used = np.bincount(report.assignment * n + owners, minlength=len(names) * n)
                for key, count in zip(used.nonzero()[0].tolist(),
                                      used[used > 0].tolist(), strict=True):
                    sessions[key % n].session._driver.charge_usage(names[key // n], count)

        finished = report.finished
        if finished.size == 0:
            return
        run = group.run
        queries = run.frontier.queries
        fused = finished.tolist()
        owner = group.owner[finished].tolist()
        ords = group.ords[finished]
        walks = run.frontier.paths_of(finished)
        ns = run.per_query_ns[finished]
        by_entry: dict[int, list[int]] = {}
        for j, gidx in enumerate(owner):
            by_entry.setdefault(gidx, []).append(j)
        for gidx, picks in by_entry.items():
            entry = sessions[gidx]
            session = entry.session
            session._driver.settle(ords[picks], [walks[j] for j in picks], ns[picks])
            for j in picks:
                tenant = group.tenants[fused[j]]
                tenant.outstanding -= 1
                tenant.completed += 1
            entry.inflight -= len(picks)
            chunk = session._emit(
                tuple([queries[fused[j]].query_id for j in picks]),
                tuple([tuple(walks[j]) for j in picks]),
                steps=steps_by[gidx] if steps_by else 0,
                counters=tick_counters.get(gidx)
                or CostCounters(bytes_per_weight=group.engine.weight_bytes),
                superstep=self._tick,
            )
            entry.chunks.append(chunk)
        group.inflight -= len(fused)
        self._inflight -= len(fused)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceScheduler(sessions={len(self._entries)}, "
            f"fairness={self.fairness!r}, "
            f"max_inflight_walkers={self.max_inflight_walkers}, "
            f"pending={self.pending})"
        )
