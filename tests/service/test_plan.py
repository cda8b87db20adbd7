"""Plan negotiation: declared capabilities resolve requests into one plan."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import FlexiWalkerConfig
from repro.errors import ServiceError
from repro.gpusim.multigpu import PARTITION_POLICIES
from repro.service import (
    BACKENDS,
    DeviceFleet,
    WalkService,
    declare_capabilities,
    negotiate_plan,
)
from repro.gpusim.device import A6000
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.node2vec import Node2VecSpec

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)


def caps(count: int = 4):
    return declare_capabilities(DeviceFleet(DEVICE, count))


class TestCapabilities:
    def test_single_device_fleet_cannot_shard(self):
        declared = caps(1)
        assert declared.max_devices == 1
        assert declared.graph_placements == ("replicated",)

    def test_multi_device_fleet_declarations(self):
        declared = caps(4)
        assert declared.max_devices == 4
        assert declared.partition_policies == PARTITION_POLICIES

    def test_fleet_needs_at_least_one_device(self):
        with pytest.raises(ServiceError):
            DeviceFleet(DEVICE, 0)


class TestNegotiation:
    def test_default_config_negotiates_batched(self):
        plan = negotiate_plan(caps(), FlexiWalkerConfig(device=DEVICE))
        assert plan.backend == "batched"
        assert plan.num_devices == 1
        assert plan.reasons  # the trail is recorded

    def test_device_count_negotiates_multi_device(self):
        config = FlexiWalkerConfig(device=DEVICE, num_devices=3, partition_policy="balanced")
        plan = negotiate_plan(caps(), config)
        assert plan.backend == "multi_device"
        assert plan.num_devices == 3
        assert plan.partition_policy == "balanced"

    def test_requesting_more_devices_than_fleet_fails(self):
        config = FlexiWalkerConfig(device=DEVICE, num_devices=8)
        with pytest.raises(ServiceError):
            negotiate_plan(caps(4), config)

    def test_scalar_is_not_a_serving_backend(self):
        assert BACKENDS == ("batched", "multi_device")

    def test_transition_cache_negotiated_from_compiler_proof(self, service_graph):
        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, 1))
        config = FlexiWalkerConfig(device=DEVICE)
        static = service.plan_for(DeepWalkSpec(), config)
        dynamic = service.plan_for(Node2VecSpec(), config)
        assert static.use_transition_cache
        assert not dynamic.use_transition_cache

    def test_plan_describe_round_trips(self):
        plan = negotiate_plan(caps(), FlexiWalkerConfig(device=DEVICE))
        described = plan.describe()
        assert described["backend"] == plan.backend
        assert described["reasons"] == list(plan.reasons)


class TestGraphPlacementNegotiation:
    MEMORY = DEVICE.memory_bytes

    def test_default_plan_is_replicated(self):
        plan = negotiate_plan(caps(), FlexiWalkerConfig(device=DEVICE, num_devices=4))
        assert plan.graph_placement == "replicated"
        assert plan.shard_policy is None

    def test_sharded_selected_exactly_when_footprint_exceeds_memory(self):
        config = FlexiWalkerConfig(device=DEVICE, num_devices=4)
        fits = negotiate_plan(caps(), config, graph_footprint_bytes=self.MEMORY)
        too_big = negotiate_plan(caps(), config, graph_footprint_bytes=self.MEMORY + 1)
        assert fits.graph_placement == "replicated"
        assert too_big.graph_placement == "sharded"
        assert too_big.shard_policy == config.shard_policy
        assert any("exceeds device memory" in r for r in too_big.reasons)
        assert any("fits device memory" in r for r in fits.reasons)

    def test_explicit_sharded_request_wins_even_when_the_graph_fits(self):
        config = FlexiWalkerConfig(
            device=DEVICE, num_devices=4, graph_placement="sharded",
            shard_policy="degree_balanced",
        )
        plan = negotiate_plan(caps(), config, graph_footprint_bytes=1)
        assert plan.graph_placement == "sharded"
        assert plan.shard_policy == "degree_balanced"
        assert any("requested explicitly" in r for r in plan.reasons)

    def test_explicit_replicated_request_records_the_oom_risk(self):
        config = FlexiWalkerConfig(
            device=DEVICE, num_devices=4, graph_placement="replicated"
        )
        plan = negotiate_plan(caps(), config, graph_footprint_bytes=self.MEMORY * 2)
        assert plan.graph_placement == "replicated"
        assert any("simulated-OOM risk" in r for r in plan.reasons)

    def test_sharded_needs_multi_device_backend(self):
        config = FlexiWalkerConfig(device=DEVICE, graph_placement="sharded")
        with pytest.raises(ServiceError):
            negotiate_plan(caps(), config)

    def test_sharded_plan_warns_when_even_the_shards_do_not_fit(self):
        config = FlexiWalkerConfig(device=DEVICE, num_devices=4)
        # 10x one device's memory over 4 shards: ~2.5x per shard — sharding
        # alone does not solve the memory problem and the plan must say so.
        plan = negotiate_plan(caps(), config, graph_footprint_bytes=self.MEMORY * 10)
        assert plan.graph_placement == "sharded"
        assert any("even sharded" in r and "simulated-OOM risk" in r
                   for r in plan.reasons)
        # A footprint the shards can absorb stays warning-free.
        ok = negotiate_plan(caps(), config, graph_footprint_bytes=self.MEMORY * 3)
        assert ok.graph_placement == "sharded"
        assert not any("even sharded" in r for r in ok.reasons)

    def test_auto_falls_back_when_sharding_is_not_offered(self):
        # "auto" is a negotiation, not a requirement: capabilities without
        # the sharded placement keep the session alive on replicated and
        # record why, even for an oversized graph.
        declared = dataclasses.replace(caps(4), graph_placements=("replicated",))
        config = FlexiWalkerConfig(device=DEVICE, num_devices=4)
        plan = negotiate_plan(declared, config, graph_footprint_bytes=self.MEMORY * 2)
        assert plan.graph_placement == "replicated"
        assert any("sharded placement is not offered" in r for r in plan.reasons)
        # An explicit request against the same capabilities still fails.
        explicit = dataclasses.replace(config, graph_placement="sharded")
        with pytest.raises(ServiceError):
            negotiate_plan(declared, explicit, graph_footprint_bytes=self.MEMORY * 2)

    def test_capabilities_declare_memory_and_placements(self):
        declared = caps(4)
        assert declared.device_memory_bytes == DEVICE.memory_bytes
        assert declared.graph_placements == ("replicated", "sharded")
        assert caps(1).graph_placements == ("replicated",)

    def test_describe_includes_the_placement(self):
        config = FlexiWalkerConfig(device=DEVICE, num_devices=4)
        plan = negotiate_plan(caps(), config, graph_footprint_bytes=self.MEMORY + 1)
        described = plan.describe()
        assert described["graph_placement"] == "sharded"
        assert described["shard_policy"] == "contiguous"

    def test_ghost_budget_granted_and_clamped(self):
        declared = caps(4)
        sharded = FlexiWalkerConfig(
            device=DEVICE, num_devices=4, graph_placement="sharded",
            ghost_cache_bytes=1_000,
        )
        plan = negotiate_plan(declared, sharded)
        assert plan.ghost_cache_bytes == 1_000
        assert any("ghost cache granted" in r for r in plan.reasons)
        # Requests beyond the declared maximum clamp down to it.
        greedy = dataclasses.replace(
            sharded, ghost_cache_bytes=declared.ghost_cache_bytes * 10
        )
        clamped = negotiate_plan(declared, greedy)
        assert clamped.ghost_cache_bytes == declared.ghost_cache_bytes
        assert any("clamped" in r for r in clamped.reasons)

    def test_ghost_budget_zero_without_request_or_offering(self):
        sharded = FlexiWalkerConfig(
            device=DEVICE, num_devices=4, graph_placement="sharded"
        )
        assert negotiate_plan(caps(), sharded).ghost_cache_bytes == 0
        # A service that offers no ghost memory disables the request.
        none_offered = dataclasses.replace(caps(4), ghost_cache_bytes=0)
        config = dataclasses.replace(sharded, ghost_cache_bytes=1_000)
        plan = negotiate_plan(none_offered, config)
        assert plan.ghost_cache_bytes == 0
        assert any("not offered" in r for r in plan.reasons)
        # Replicated plans never carry a ghost budget.
        replicated = negotiate_plan(
            caps(), FlexiWalkerConfig(device=DEVICE, ghost_cache_bytes=1_000)
        )
        assert replicated.ghost_cache_bytes == 0

    def test_ghost_budget_counts_against_the_footprint_warning(self):
        config = FlexiWalkerConfig(
            device=DEVICE, num_devices=4, graph_placement="sharded",
            ghost_cache_bytes=self.MEMORY // 8,
        )
        # Each shard's graph share alone just fits, but not once the shard
        # also reserves an eighth of its memory for ghost copies.
        footprint = self.MEMORY * 4 - 8_000
        plan = negotiate_plan(caps(), config, graph_footprint_bytes=footprint)
        assert any("ghost cache" in r and "simulated-OOM risk" in r
                   for r in plan.reasons)
        lean = dataclasses.replace(config, ghost_cache_bytes=1_000)
        ok = negotiate_plan(caps(), lean, graph_footprint_bytes=footprint)
        assert not any("even sharded" in r for r in ok.reasons)

    def test_capabilities_declare_the_ghost_budget(self):
        assert caps(4).ghost_cache_bytes == DEVICE.memory_bytes // 8
        assert caps(1).ghost_cache_bytes == 0

    def test_service_passes_the_graph_footprint(self, service_graph):
        small = dataclasses.replace(
            DEVICE, memory_bytes=service_graph.memory_footprint_bytes() - 1
        )
        service = WalkService(service_graph, fleet=DeviceFleet(small, 4))
        plan = service.plan_for(
            Node2VecSpec(), FlexiWalkerConfig(device=small, num_devices=4)
        )
        assert plan.graph_placement == "sharded"


class TestServiceSessionGuards:
    def test_session_device_must_match_fleet(self, service_graph):
        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, 1))
        other = dataclasses.replace(DEVICE, name="other", parallel_lanes=16)
        with pytest.raises(ServiceError):
            service.session(DeepWalkSpec(), FlexiWalkerConfig(device=other))

    def test_default_config_uses_fleet_device(self, service_graph):
        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE, 1))
        session = service.session(DeepWalkSpec())
        assert session.engine.device == DEVICE
