"""Execution-plan negotiation for the session service.

The legacy surface scattered backend selection across constructor flags:
``WalkEngine(num_devices=...)``, ``WalkEngine.with_devices(...)``.  The
service API replaces that with an explicit negotiation step: the service
declares what it *can* do (:class:`ServiceCapabilities` — how many devices
the :class:`DeviceFleet` owns, which partition policies and graph placements
are implemented), the session says what it *wants* (its
:class:`~repro.core.config.FlexiWalkerConfig`), and :func:`negotiate_plan`
resolves the two into one immutable :class:`ExecutionPlan` — including *why*
each choice was made, so a serving operator can audit the decision instead
of reverse-engineering flag defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Severity
from repro.compiler.generator import CompiledWorkload
from repro.core.config import FlexiWalkerConfig
from repro.errors import ServiceError
from repro.gpusim.device import A6000, DeviceSpec
from repro.gpusim.multigpu import PARTITION_POLICIES
from repro.graph.sharded import SHARD_POLICIES

#: Values of :attr:`ExecutionPlan.backend`, which follows from the device
#: count: ``batched`` is the single-device step-synchronous frontier loop,
#: ``multi_device`` the same loop over several devices (placement only moves
#: the makespan, never the walks).  Both stream superstep-by-superstep.  The
#: scalar interpreter is not a serving backend; it survives only as
#: ``WalkEngine(execution="scalar")``, the reference oracle the batched
#: driver is tested against.
BACKENDS = ("batched", "multi_device")


@dataclass(frozen=True)
class DeviceFleet:
    """The simulated devices a :class:`~repro.service.WalkService` owns.

    Attributes
    ----------
    device:
        The per-device cost model; the fleet is homogeneous, like the
        paper's replicated-graph multi-GPU setup (Fig. 15).
    count:
        Number of devices available to sessions.  A session may use fewer
        (its plan's ``num_devices``), never more.
    """

    device: DeviceSpec = A6000
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ServiceError("a device fleet needs at least one device")


@dataclass(frozen=True)
class ServiceCapabilities:
    """What a service instance can execute, declared up front.

    Returned by :meth:`repro.service.WalkService.capabilities` and consumed
    by :func:`negotiate_plan`; sessions never probe flags at run time.
    """

    max_devices: int
    partition_policies: tuple[str, ...]
    #: Memory capacity of one fleet device — the budget the graph footprint
    #: is negotiated against.  0 means "unknown" (no footprint negotiation).
    device_memory_bytes: int = 0
    #: Graph placements this service can execute (sharding needs a fleet
    #: of at least 2 devices).
    graph_placements: tuple[str, ...] = ("replicated",)
    #: Node-range shard policies the sharded placement offers.
    shard_policies: tuple[str, ...] = SHARD_POLICIES
    #: Largest per-shard ghost-node cache budget the service grants to a
    #: sharded session (0 = ghost caching not offered).
    ghost_cache_bytes: int = 0
    #: Admission policy of the continuous-batching scheduler: cap on walkers
    #: simultaneously in flight across every attached session (0 =
    #: unbounded; submissions past the cap hit backpressure).
    max_inflight_walkers: int = 0
    #: How the scheduler arbitrates between tenant admission queues:
    #: ``"wrr"`` (weighted round-robin, starvation-free for any nonzero
    #: weight) or ``"fifo"`` (global submission order).
    fairness: str = "wrr"
    #: Per-tenant caps on outstanding (queued + in-flight) walkers, as
    #: ``(tenant, quota)`` pairs — hashable so the capability set stays
    #: frozen.  Empty means no per-tenant quotas.
    tenant_quotas: tuple[tuple[str, int], ...] = ()
    #: Whether the service offers superstep checkpointing and fault
    #: recovery (:mod:`repro.runtime.faults`).
    checkpointing: bool = True
    #: When True, a spec whose static verification carries ERROR
    #: diagnostics (:func:`repro.analysis.verify_spec`) is rejected at
    #: negotiation time with a :class:`~repro.errors.ServiceError` instead
    #: of the default degrade path (run, but decline transition caching and
    #: scheduler fusion).
    strict_verification: bool = False

    def __post_init__(self) -> None:
        if self.fairness not in ("wrr", "fifo"):
            raise ServiceError(
                f"unknown fairness policy {self.fairness!r}; valid: ('wrr', 'fifo')"
            )
        if self.max_inflight_walkers < 0:
            raise ServiceError("max_inflight_walkers must be non-negative (0 = unbounded)")


@dataclass(frozen=True)
class ExecutionPlan:
    """The negotiated execution strategy of one session.

    Immutable and self-describing: every field that used to be a scattered
    constructor flag is resolved here once, and ``reasons`` records the
    negotiation trail (requested vs. granted, capability fallbacks).

    Attributes
    ----------
    num_devices / partition_policy:
        Device placement; 1/"hash" for a single device.
    graph_placement / shard_policy:
        How a multi-device plan places the graph: ``"replicated"`` copies
        it onto every device (Fig. 15), ``"sharded"`` splits it into
        per-device node-range shards (``shard_policy`` names the
        decomposition; ``None`` unless sharded).  Negotiated from the
        graph's memory footprint against the fleet device's memory when the
        config requests ``"auto"``.
    ghost_cache_bytes:
        Granted per-shard ghost-node cache budget (0 unless sharded and
        requested): the session's request clamped to the service's
        declared maximum.
    scheduling:
        Query-to-lane scheduling inside each device.
    use_transition_cache:
        Whether the cross-superstep transition cache applies — true only
        when the compiler proved the workload's weights node-only (the
        whole-spec proof: scalar *and* batch/vector override paths).
    scheduler_fusion:
        Whether the continuous-batching scheduler may fuse this plan's
        walkers with other sessions.  Declined (False) when static
        verification found ERROR diagnostics — an unverified spec must not
        contaminate a shared fused frontier.
    checkpoint_interval:
        Granted superstep checkpoint interval (0 = no explicit
        checkpoints).  The session's request, declined with a recorded
        reason when the service does not offer checkpointing.
    reasons:
        Human-readable negotiation trail, for logs and ``describe()``.
    """

    num_devices: int = 1
    partition_policy: str = "hash"
    graph_placement: str = "replicated"
    shard_policy: str | None = None
    ghost_cache_bytes: int = 0
    scheduling: str = "dynamic"
    use_transition_cache: bool = True
    scheduler_fusion: bool = True
    checkpoint_interval: int = 0
    reasons: tuple[str, ...] = field(default=())

    @property
    def backend(self) -> str:
        """One of :data:`BACKENDS`: ``multi_device`` on several devices."""
        return "multi_device" if self.num_devices > 1 else "batched"

    def describe(self) -> dict[str, object]:
        """Plain-dict view (used by examples, logs and ``describe()``s)."""
        return {
            "backend": self.backend,
            "num_devices": self.num_devices,
            "partition_policy": self.partition_policy,
            "graph_placement": self.graph_placement,
            "shard_policy": self.shard_policy,
            "ghost_cache_bytes": self.ghost_cache_bytes,
            "scheduling": self.scheduling,
            "use_transition_cache": self.use_transition_cache,
            "scheduler_fusion": self.scheduler_fusion,
            "checkpoint_interval": self.checkpoint_interval,
            "reasons": list(self.reasons),
        }


def negotiate_plan(
    capabilities: ServiceCapabilities,
    config: FlexiWalkerConfig,
    compiled: CompiledWorkload | None = None,
    graph_footprint_bytes: int | None = None,
) -> ExecutionPlan:
    """Resolve declared capabilities and a session request into one plan.

    Parameters
    ----------
    capabilities:
        What the service can do (fleet size, device memory, graph
        placements).
    config:
        The session's requested knobs (device count, partition policy,
        graph placement, scheduling).
    compiled:
        The compiled workload, consulted for cache eligibility.
    graph_footprint_bytes:
        Memory footprint of the graph to serve
        (:meth:`~repro.graph.csr.CSRGraph.memory_footprint_bytes`).  Drives
        the replicated-vs-sharded decision for multi-device plans when the
        config requests ``graph_placement="auto"``: sharded is selected
        exactly when the footprint exceeds one fleet device's memory.
        ``None`` (or an unknown device memory) skips the negotiation and
        keeps the replicated placement.

    Raises
    ------
    ServiceError
        When the request exceeds the declared capabilities (more devices
        than the fleet owns, an unknown partition policy, an inconsistent
        device/placement combination).
    """
    num_devices = config.num_devices
    if num_devices > 1:
        reasons = [f"config requested {num_devices} devices -> multi_device backend"]
    else:
        reasons = ["config requested one device -> batched backend"]
    if num_devices > capabilities.max_devices:
        raise ServiceError(
            f"session requests {num_devices} devices but the service fleet "
            f"owns {capabilities.max_devices}"
        )

    if config.partition_policy not in capabilities.partition_policies:
        raise ServiceError(
            f"unknown partition policy {config.partition_policy!r}; "
            f"valid: {capabilities.partition_policies}"
        )

    # Graph placement: replicated vs sharded.  Only a multi-device plan has
    # a placement choice to make; a single device trivially holds the whole
    # graph (replicated) and rejects explicit shard requests.
    placement = "replicated"
    shard_policy: str | None = None
    ghost_cache_bytes = 0
    if num_devices > 1:
        memory = capabilities.device_memory_bytes
        known = graph_footprint_bytes is not None and memory > 0
        fits = not known or graph_footprint_bytes <= memory
        can_shard = (
            "sharded" in capabilities.graph_placements
            and config.shard_policy in capabilities.shard_policies
        )
        requested = config.graph_placement
        if requested == "sharded":
            # An explicit shard request is a hard requirement: failing it
            # loudly beats silently serving a placement the caller did not
            # ask for.
            if "sharded" not in capabilities.graph_placements:
                raise ServiceError(
                    "sharded graph placement is not offered by this service; "
                    f"declared: {capabilities.graph_placements}"
                )
            if config.shard_policy not in capabilities.shard_policies:
                raise ServiceError(
                    f"unknown shard policy {config.shard_policy!r}; "
                    f"valid: {capabilities.shard_policies}"
                )
            placement = "sharded"
            reasons.append("sharded graph placement requested explicitly")
        elif requested == "replicated":
            reasons.append("replicated graph placement requested explicitly")
            if not fits:
                reasons.append(
                    f"warning: graph footprint {graph_footprint_bytes} B exceeds "
                    f"device memory {memory} B but replicated placement was "
                    "requested (simulated-OOM risk)"
                )
        # "auto": a negotiation, never a hard requirement — when sharding
        # would help but the service cannot offer it, fall back to
        # replicated and say so instead of failing the session.
        elif not fits and not can_shard:
            reasons.append(
                f"graph footprint {graph_footprint_bytes} B exceeds device "
                f"memory {memory} B but sharded placement is not offered -> "
                "replicated placement kept (simulated-OOM risk)"
            )
        elif not fits:
            placement = "sharded"
            reasons.append(
                f"graph footprint {graph_footprint_bytes} B exceeds device "
                f"memory {memory} B -> sharded placement over "
                f"{num_devices} devices ({config.shard_policy} ranges)"
            )
        elif not known:
            reasons.append("graph footprint not negotiated -> replicated placement")
        else:
            reasons.append(
                f"graph footprint {graph_footprint_bytes} B fits device "
                f"memory {memory} B -> replicated placement"
            )
        if placement == "sharded":
            shard_policy = config.shard_policy
            # Ghost caching trades per-shard memory for fewer migrations:
            # the grant is the session's request clamped to the service's
            # declared maximum, never more.
            if config.ghost_cache_bytes > 0:
                ghost_cache_bytes = min(
                    config.ghost_cache_bytes, capabilities.ghost_cache_bytes
                )
                if ghost_cache_bytes < config.ghost_cache_bytes:
                    reasons.append(
                        f"ghost cache request {config.ghost_cache_bytes} B "
                        f"clamped to the service maximum {ghost_cache_bytes} B"
                        if ghost_cache_bytes
                        else "ghost cache requested but not offered by this "
                        "service -> disabled"
                    )
                else:
                    reasons.append(
                        f"ghost cache granted: {ghost_cache_bytes} B per shard"
                    )
            # Sharding divides the graph, it does not shrink it: when even
            # a device's 1/num_devices share of the footprint (plus its
            # ghost-cache budget) exceeds its memory, the plan is still
            # under-provisioned — say so instead of presenting the
            # placement as a solved memory problem.  (The edge-balanced
            # ideal share; a skewed contiguous decomposition can only be
            # worse.)
            if known:
                per_shard = -(-graph_footprint_bytes // num_devices) + ghost_cache_bytes
                if per_shard > memory:
                    reasons.append(
                        f"warning: even sharded, ~{per_shard} B per shard "
                        "(graph share + ghost cache) exceeds device memory "
                        f"{memory} B — the graph needs more than "
                        f"{num_devices} devices (simulated-OOM risk)"
                    )
    elif config.graph_placement == "sharded":
        raise ServiceError("sharded graph placement needs more than one device")

    # Static verification gates the bit-identity optimisations.  ERROR
    # diagnostics mean a hook was *refuted* (nondeterministic, cache-unsafe
    # or registry-unsound): the spec still runs, but never from a shared
    # transition cache and never fused with other sessions' walkers — or
    # not at all, when the service declared strict verification.
    use_cache = compiled is not None and compiled.weights_node_only
    scheduler_fusion = True
    report = compiled.report if compiled is not None else None
    if report is not None and report.has_errors:
        rules = ", ".join(report.rule_ids(Severity.ERROR))
        if capabilities.strict_verification:
            detail = "; ".join(d.format() for d in report.errors)
            raise ServiceError(
                f"{report.spec_class} failed static verification "
                f"({rules}) and this service requires verified specs: {detail}"
            )
        use_cache = False
        scheduler_fusion = False
        reasons.append(
            f"static verification found ERROR diagnostics ({rules}): "
            "transition caching and scheduler fusion declined"
        )
    elif use_cache:
        reasons.append("transition cache enabled: compiler proved weights node-only")
    else:
        reasons.append("transition cache disabled: weights depend on walker state")
    if report is not None and report.warnings:
        rules = ", ".join(sorted({d.rule for d in report.warnings}))
        reasons.append(f"static verification warnings: {rules}")
    if compiled is not None and not compiled.analysis.supported and compiled.analysis.warnings:
        reasons.append(
            "compiler fallback to eRVS-only: " + "; ".join(compiled.analysis.warnings)
        )

    # Fault tolerance: the checkpoint interval is a negotiation, not a hard
    # requirement — a service that cannot checkpoint declines the request
    # with a recorded reason, and recovery falls back to replaying from the
    # implicit initial checkpoint.
    checkpoint_interval = config.checkpoint_interval
    if checkpoint_interval > 0:
        if not capabilities.checkpointing:
            checkpoint_interval = 0
            reasons.append(
                "checkpointing declined: not offered by this service "
                "(recovery replays from the initial state)"
            )
        else:
            reasons.append(
                f"checkpointing granted: every {checkpoint_interval} supersteps"
            )

    # Admission policy is part of the negotiated record like any placement
    # decision: a session attached to the service's continuous-batching
    # scheduler competes under exactly these terms.
    budget = (
        f"in-flight walker budget {capabilities.max_inflight_walkers}"
        if capabilities.max_inflight_walkers
        else "unbounded in-flight walkers"
    )
    quotas = (
        f", {len(capabilities.tenant_quotas)} tenant quota(s)"
        if capabilities.tenant_quotas
        else ""
    )
    reasons.append(
        f"admission policy: {capabilities.fairness} fairness, {budget}{quotas}"
    )

    return ExecutionPlan(
        num_devices=num_devices,
        partition_policy=config.partition_policy,
        graph_placement=placement,
        shard_policy=shard_policy,
        ghost_cache_bytes=ghost_cache_bytes,
        scheduling=config.scheduling,
        use_transition_cache=use_cache,
        scheduler_fusion=scheduler_fusion,
        checkpoint_interval=checkpoint_interval,
        reasons=tuple(reasons),
    )


def declare_capabilities(
    fleet: DeviceFleet,
    *,
    max_inflight_walkers: int = 0,
    fairness: str = "wrr",
    tenant_quotas: tuple[tuple[str, int], ...] = (),
    strict_verification: bool = False,
) -> ServiceCapabilities:
    """The capability set a service with ``fleet`` declares.

    The keyword arguments declare the admission policy of the service's
    continuous-batching scheduler (:meth:`~repro.service.WalkService.scheduler`
    builds schedulers with these defaults); they default to an open policy —
    unbounded in-flight walkers, weighted round-robin, no quotas.
    """
    placements = ["replicated"]
    if fleet.count > 1:
        placements.append("sharded")
    return ServiceCapabilities(
        max_devices=fleet.count,
        partition_policies=PARTITION_POLICIES,
        device_memory_bytes=fleet.device.memory_bytes,
        graph_placements=tuple(placements),
        shard_policies=SHARD_POLICIES,
        # A shard may spend up to 1/8 of its device's memory on ghost
        # copies of hot remote nodes.
        ghost_cache_bytes=fleet.device.memory_bytes // 8 if fleet.count > 1 else 0,
        max_inflight_walkers=max_inflight_walkers,
        fairness=fairness,
        tenant_quotas=tuple(tenant_quotas),
        strict_verification=strict_verification,
    )
