"""Per-kernel behaviour and cost-accounting tests.

Beyond distribution correctness (covered in
``test_distribution_correctness.py``), each kernel must charge the costs the
paper attributes to it: ALS/ITS pay table construction, the baseline RVS pays
a prefix sum and one RNG draw per neighbour, the baseline RJS pays a max
reduction, eRVS drops the prefix sum and most RNG draws, and eRJS drops the
reduction entirely when a bound hint is available.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph.builders import from_edge_list
from repro.graph.generators import star_graph
from repro.sampling.alias import AliasSampler, build_alias_table
from repro.sampling.base import gather_transition_weights
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.sampling.ervs import (
    EnhancedReservoirSampler,
    count_candidate_updates,
    exponential_race_keys,
)
from repro.sampling.its import InverseTransformSampler
from repro.sampling.registry import SAMPLERS, make_sampler, sampler_names
from repro.sampling.rejection import RejectionSampler
from repro.sampling.reservoir import ReservoirSampler, parallel_reservoir_choice
from repro.walks.spec import UniformWalkSpec

from tests.conftest import make_ctx

ALL_SAMPLER_NAMES = ["ALS", "ITS", "RJS", "RVS", "eRJS", "eRVS"]


@pytest.fixture
def dead_end_graph():
    """Node 0 has out-edges whose weights are all zero; node 2 has none at all."""
    g = from_edge_list([(0, 1), (0, 2), (1, 0)], num_nodes=3, weights=[0.0, 0.0, 1.0])
    return g


class TestCommonKernelBehaviour:
    @pytest.mark.parametrize("name", ALL_SAMPLER_NAMES)
    def test_returns_a_neighbor(self, tiny_graph, name):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0, bound_hint=5.0)
        chosen = make_sampler(name).sample(ctx)
        assert chosen in set(tiny_graph.neighbors(0))

    @pytest.mark.parametrize("name", ALL_SAMPLER_NAMES)
    def test_isolated_node_returns_none(self, dead_end_graph, name):
        ctx = make_ctx(dead_end_graph, UniformWalkSpec(), node=2, bound_hint=1.0)
        assert make_sampler(name).sample(ctx) is None

    @pytest.mark.parametrize("name", ALL_SAMPLER_NAMES)
    def test_all_zero_weights_return_none(self, dead_end_graph, name):
        ctx = make_ctx(dead_end_graph, UniformWalkSpec(), node=0, bound_hint=0.0)
        assert make_sampler(name).sample(ctx) is None

    @pytest.mark.parametrize("name", ALL_SAMPLER_NAMES)
    def test_counters_are_populated(self, tiny_graph, name):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0, bound_hint=5.0)
        make_sampler(name).sample(ctx)
        assert ctx.counters.total_memory_accesses > 0
        assert ctx.counters.rng_draws > 0

    def test_registry_contents(self):
        assert sampler_names() == ALL_SAMPLER_NAMES
        for name in ALL_SAMPLER_NAMES:
            assert name in SAMPLERS

    def test_unknown_sampler_rejected(self):
        with pytest.raises(SamplingError):
            make_sampler("bogus")


class TestGatherHelper:
    def test_single_pass_counts_degree(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        gather_transition_weights(ctx, passes=1)
        assert ctx.counters.coalesced_accesses == 4
        assert ctx.counters.weight_computations == 4

    def test_double_pass_doubles_accesses_not_computes(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        gather_transition_weights(ctx, passes=2)
        assert ctx.counters.coalesced_accesses == 8
        assert ctx.counters.weight_computations == 4

    def test_uncoalesced_mode(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        gather_transition_weights(ctx, coalesced=False)
        assert ctx.counters.random_accesses == 4

    def test_invalid_passes(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        with pytest.raises(SamplingError):
            gather_transition_weights(ctx, passes=0)


class TestAliasTable:
    def test_probabilities_preserved_exactly(self):
        weights = np.array([3.0, 2.0, 4.0, 1.0])
        prob, alias = build_alias_table(weights)
        # Reconstruct each item's total mass from its own column plus every
        # column that aliases to it.
        n = weights.size
        mass = prob.copy()
        for i in range(n):
            if prob[i] < 1.0:
                mass[alias[i]] += 1.0 - prob[i]
        assert np.allclose(mass / n, weights / weights.sum())

    def test_uniform_weights_give_full_columns(self):
        prob, alias = build_alias_table(np.ones(8))
        assert np.allclose(prob, 1.0)

    def test_zero_total_weight(self):
        prob, alias = build_alias_table(np.zeros(3))
        assert np.all(prob == 0)

    def test_empty_input(self):
        prob, alias = build_alias_table(np.array([]))
        assert prob.size == 0

    def test_alias_sampler_charges_table_builds(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        AliasSampler().sample(ctx)
        assert ctx.counters.table_builds == 2 * 4
        assert ctx.counters.reduction_elements >= 4


class TestITS:
    def test_charges_prefix_sum_and_binary_search(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        InverseTransformSampler().sample(ctx)
        assert ctx.counters.prefix_sum_elements == 4
        assert ctx.counters.rng_draws == 1
        assert ctx.counters.random_accesses >= 1


class TestBaselineRejection:
    def test_charges_max_reduction_over_all_weights(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        RejectionSampler().sample(ctx)
        assert ctx.counters.reduction_elements == 4
        # Thread-per-walker kernel: the weight scan is uncoalesced.
        assert ctx.counters.random_accesses >= 4
        assert ctx.counters.rejection_trials >= 1

    def test_two_rng_draws_per_trial(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        RejectionSampler().sample(ctx)
        assert ctx.counters.rng_draws == 2 * ctx.counters.rejection_trials


class TestBaselineReservoir:
    def test_parallel_choice_matches_positive_weight_support(self):
        weights = np.array([0.0, 2.0, 3.0])
        prefix = np.cumsum(weights)
        uniforms = np.array([0.5, 0.5, 0.9])
        choice = parallel_reservoir_choice(weights, uniforms, prefix)
        assert choice in (1, 2)

    def test_parallel_choice_none_when_all_zero(self):
        weights = np.zeros(3)
        assert parallel_reservoir_choice(weights, np.full(3, 0.5), np.cumsum(weights)) is None

    def test_first_positive_subnormal_weight_always_qualifies(self):
        # u * W rounds up to the subnormal weight w when u > 0.5.
        weights = np.array([0.0, 5e-324, 0.0])
        choice = parallel_reservoir_choice(weights, np.full(3, 0.9), np.cumsum(weights))
        assert choice == 1

    def test_subnormal_walks_run_to_length_batched_like_scalar(self):
        from repro.runtime.engine import WalkEngine
        from repro.runtime.selector import FixedSelector
        from repro.walks.state import WalkQuery

        edges = [(0, 1), (0, 2), (1, 0), (2, 0)]
        graph = from_edge_list(edges, weights=[5e-324, 0.0, 5e-324, 5e-324])
        queries = [WalkQuery(i, i % 3, 6) for i in range(12)]
        runs = [
            WalkEngine(graph=graph, spec=UniformWalkSpec(), selector=FixedSelector(ReservoirSampler()),
                       seed=3, execution=execution).run(queries)
            for execution in ("scalar", "batched")
        ]
        assert runs[0].paths == runs[1].paths
        assert all(len(path) == 7 for path in runs[1].paths)

    def test_charges_two_passes_and_one_rng_per_neighbor(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        ReservoirSampler().sample(ctx)
        assert ctx.counters.coalesced_accesses == 8
        assert ctx.counters.prefix_sum_elements == 4
        assert ctx.counters.rng_draws == 4


class TestEnhancedReservoir:
    def test_exponential_keys_zero_weight_is_minus_inf(self):
        keys = exponential_race_keys(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert keys[0] == -np.inf
        assert np.isfinite(keys[1])

    def test_higher_weight_gives_larger_expected_key(self):
        u = np.full(2, 0.5)
        keys = exponential_race_keys(np.array([1.0, 10.0]), u)
        assert keys[1] > keys[0]

    def test_count_candidate_updates_zero_for_short_lists(self):
        keys = exponential_race_keys(np.ones(8), np.linspace(0.1, 0.9, 8))
        assert count_candidate_updates(keys, warp_width=32) == 0

    def test_count_candidate_updates_counts_record_breakers(self):
        # Keys strictly increasing past the first warp round: every later
        # element is a new record.
        keys = np.arange(40, dtype=np.float64)
        assert count_candidate_updates(keys, warp_width=32) == 8

    def test_single_pass_over_weights(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        EnhancedReservoirSampler().sample(ctx)
        assert ctx.counters.coalesced_accesses == 4
        assert ctx.counters.prefix_sum_elements == 0

    def test_memory_access_halved_vs_baseline(self, tiny_graph):
        base_ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        ReservoirSampler().sample(base_ctx)
        ervs_ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        EnhancedReservoirSampler().sample(ervs_ctx)
        assert ervs_ctx.counters.coalesced_accesses * 2 == base_ctx.counters.coalesced_accesses

    def test_jump_reduces_rng_draws_on_high_degree_node(self):
        hub = star_graph(500)
        with_jump = make_ctx(hub, UniformWalkSpec(), node=0)
        EnhancedReservoirSampler(use_jump=True).sample(with_jump)
        without_jump = make_ctx(hub, UniformWalkSpec(), node=0)
        EnhancedReservoirSampler(use_jump=False).sample(without_jump)
        assert without_jump.counters.rng_draws == 500
        assert with_jump.counters.rng_draws < 150

    def test_exp_disabled_falls_back_to_baseline_costs(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0)
        EnhancedReservoirSampler(use_exponential_keys=False).sample(ctx)
        assert ctx.counters.prefix_sum_elements == 4


class TestEnhancedRejection:
    def test_no_reduction_when_bound_hint_present(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0, bound_hint=4.0)
        EnhancedRejectionSampler().sample(ctx)
        assert ctx.counters.reduction_elements == 0
        assert ctx.counters.coalesced_accesses == 0

    def test_falls_back_to_max_reduce_without_hint(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0, bound_hint=None)
        EnhancedRejectionSampler().sample(ctx)
        assert ctx.counters.reduction_elements == 4

    def test_bound_below_true_max_is_widened_not_wrong(self, tiny_graph):
        # A (user-error) hint below the true max must not bias the kernel; it
        # widens the bound internally and still samples node 3 (weight 4).
        sampler = EnhancedRejectionSampler()
        seen = set()
        for seed in range(300):
            ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0, seed=seed, bound_hint=1.0)
            seen.add(sampler.sample(ctx))
        assert 3 in seen

    def test_use_estimated_bound_disabled_behaves_like_baseline(self, tiny_graph):
        ctx = make_ctx(tiny_graph, UniformWalkSpec(), node=0, bound_hint=4.0)
        EnhancedRejectionSampler(use_estimated_bound=False).sample(ctx)
        assert ctx.counters.reduction_elements == 4
