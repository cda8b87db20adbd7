"""Configuration of the FlexiWalker pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.gpusim.device import A6000, DeviceSpec
from repro.gpusim.multigpu import PARTITION_POLICIES
from repro.graph.sharded import SHARD_POLICIES
from repro.runtime.engine import GRAPH_PLACEMENTS

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime.faults import FaultPlan

#: Valid values of :attr:`FlexiWalkerConfig.graph_placement` — the engine
#: placements plus ``"auto"`` (negotiated from the graph's memory footprint
#: against the fleet device's memory).
GRAPH_PLACEMENT_REQUESTS = ("auto",) + GRAPH_PLACEMENTS

#: Valid values of :attr:`FlexiWalkerConfig.selection`.
SELECTION_POLICIES = ("cost_model", "ervs_only", "erjs_only", "random", "degree")


@dataclass(frozen=True)
class FlexiWalkerConfig:
    """Tunable knobs of the FlexiWalker pipeline.

    Attributes
    ----------
    device:
        Simulated execution device (defaults to the A6000 preset).
    selection:
        Sampling-strategy selection policy: ``"cost_model"`` (the paper's
        adaptive runtime, default), ``"ervs_only"`` / ``"erjs_only"`` (the
        Fig. 11 ablations), ``"random"`` or ``"degree"`` (the Fig. 13
        baselines).
    degree_threshold:
        Threshold of the degree-based policy (1 000 in the paper).
    run_profiling:
        Run the start-up profiling kernels that calibrate the cost-model
        ratio; when off, the device's nominal random/coalesced ratio is used.
    selection_overhead / warp_switch_overhead:
        Account the per-step cost of runtime selection and of the concurrent
        RJS/RVS warp switching (Section 5.2).  On by default — they are part
        of the honest end-to-end cost.
    weight_bytes:
        Stored property-weight width: 8 (float64) or 1 (INT8, Section 7.2).
    warp_width:
        Cooperative width of warp kernels.
    scheduling:
        ``"dynamic"`` (global query queue, Section 5.3) or ``"static"``.
    num_devices:
        Number of simulated devices the query batch is placed on (Fig. 15).
        Because walker randomness is counter-based per query id, the walks
        and counter totals are identical for every device count — only the
        makespan changes.
    partition_policy:
        Query-to-device mapping used when ``num_devices > 1``: ``"hash"``
        (multiplicative start-node hashing, the paper's choice), ``"range"``
        (contiguous slices) or ``"balanced"`` (greedy longest-processing-time
        packing by start-node degree).
    graph_placement:
        How a multi-device run places the graph: ``"auto"`` (default —
        plan negotiation picks ``"sharded"`` exactly when the graph's
        memory footprint exceeds one fleet device's memory, else
        ``"replicated"``), or an explicit ``"replicated"`` / ``"sharded"``
        request.
    shard_policy:
        Node decomposition for sharded placement: ``"contiguous"`` (equal
        node ranges), ``"degree_balanced"`` (edge-count-balanced
        boundaries) or ``"locality"`` (streaming LDG-style partitioning
        that co-locates neighbourhoods to cut remote edges).
    ghost_cache_bytes:
        Per-shard ghost-node cache budget for sharded placement: each
        shard replicates the adjacency of the hottest (highest-degree)
        remote nodes within this byte budget, so walkers stepping onto a
        cached hub pay no migration.  0 (default) disables ghost caching.
    seed:
        Seed for every random stream the run derives.
    checkpoint_interval:
        Take a walker-state checkpoint every this many supersteps (the
        fault-tolerance subsystem, :mod:`repro.runtime.faults`).  0
        (default) disables explicit checkpointing; recovery then replays
        from the implicit cost-free checkpoint of the initial state.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` of deterministic
        injected faults.  Recovered runs stay bit-identical to fault-free
        runs in paths, counters and per-query base times — only simulated
        time differs.
    """

    device: DeviceSpec = A6000
    selection: str = "cost_model"
    degree_threshold: int = 1000
    run_profiling: bool = True
    selection_overhead: bool = True
    warp_switch_overhead: bool = True
    weight_bytes: int = 8
    warp_width: int = 32
    scheduling: str = "dynamic"
    num_devices: int = 1
    partition_policy: str = "hash"
    graph_placement: str = "auto"
    shard_policy: str = "contiguous"
    ghost_cache_bytes: int = 0
    seed: int = 0
    checkpoint_interval: int = 0
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.selection not in SELECTION_POLICIES:
            raise ReproError(
                f"unknown selection policy {self.selection!r}; valid: {SELECTION_POLICIES}"
            )
        if self.num_devices < 1:
            raise ReproError("num_devices must be at least 1")
        if self.partition_policy not in PARTITION_POLICIES:
            raise ReproError(
                f"unknown partition policy {self.partition_policy!r}; "
                f"valid: {PARTITION_POLICIES}"
            )
        if self.graph_placement not in GRAPH_PLACEMENT_REQUESTS:
            raise ReproError(
                f"unknown graph placement {self.graph_placement!r}; "
                f"valid: {GRAPH_PLACEMENT_REQUESTS}"
            )
        if self.shard_policy not in SHARD_POLICIES:
            raise ReproError(
                f"unknown shard policy {self.shard_policy!r}; valid: {SHARD_POLICIES}"
            )
        if self.ghost_cache_bytes < 0:
            raise ReproError("ghost_cache_bytes must be non-negative")
        if self.weight_bytes not in (1, 2, 4, 8):
            raise ReproError("weight_bytes must be one of 1, 2, 4, 8")
        if self.warp_width < 1:
            raise ReproError("warp_width must be at least 1")
        if self.degree_threshold < 1:
            raise ReproError("degree_threshold must be at least 1")
        if self.checkpoint_interval < 0:
            raise ReproError("checkpoint_interval must be non-negative")
