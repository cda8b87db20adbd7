"""Baseline reservoir sampling (RVS), the strategy of FlowWalker.

Sequential weighted reservoir sampling visits neighbours in order and
replaces the current candidate ``c`` by neighbour ``i`` with probability
``w̃_i / Σ_{k<=i} w̃_k``.  FlowWalker parallelises this by precomputing the
prefix sums ``W_i`` so every comparison becomes independent, then a max
reduction over the surviving indices yields the final candidate (Fig. 2e).

The costs this kernel pays — and which eRVS removes — are:

* a full prefix sum over the transition weights (an extra pass over the
  weight list and inter-thread communication), and
* **one random number per neighbour**.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import (
    Sampler,
    StepContext,
    all_weights_zero,
    gather_transition_weights,
)
from repro.sampling.batch import (
    BatchStepContext,
    local_positions,
    segment_any_positive,
    segment_offsets,
)


def parallel_reservoir_choice(weights: np.ndarray, uniforms: np.ndarray, prefix: np.ndarray) -> int | None:
    """FlowWalker's parallel formulation of sequential reservoir sampling.

    Neighbour ``i`` *would replace* the running candidate iff
    ``u_i * W_i < w̃_i``; because replacements are ordered, the final
    candidate is simply the largest such ``i``.  Returns ``None`` when no
    neighbour qualifies (only possible if every weight is zero).
    """
    qualified = np.nonzero(_replaces(weights, uniforms, prefix))[0]
    if qualified.size == 0:
        return None
    return int(qualified[-1])


def _replaces(weights: np.ndarray, uniforms: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """``u_i * W_i < w̃_i`` per neighbour.  A positive weight after only zeros
    (``W_i == w̃_i``) replaces surely, also where a subnormal product rounds up."""
    return (uniforms * prefix < weights) | ((prefix == weights) & (weights > 0))


class ReservoirSampler(Sampler):
    """Prefix-sum weighted reservoir sampling (FlowWalker's kernel, Fig. 2e)."""

    name = "RVS"
    processing_unit = "warp"

    def sample(self, ctx: StepContext) -> int | None:
        if not self._check_nonempty(ctx):
            return None
        # The baseline reads the weight list twice: once to build the prefix
        # sums and once while evaluating the replacement conditions.
        weights = gather_transition_weights(ctx, passes=2)
        degree = weights.size
        if all_weights_zero(weights):
            return None

        warp = ctx.warp()
        prefix = warp.prefix_sum(weights)

        # One uniform per neighbour — the RNG cost eRVS's jump removes.
        uniforms = np.asarray(ctx.rng.uniform(degree))
        ctx.counters.rng_draws += degree

        choice = parallel_reservoir_choice(weights, uniforms, prefix)
        # Selecting the surviving candidate across lanes is a max reduction.
        warp.reduce_max(np.arange(min(degree, ctx.warp_width), dtype=np.float64))
        if choice is None:
            return None
        return int(ctx.neighbors()[choice])

    # ------------------------------------------------------------------ #
    def _sample_batch_nonempty(self, batch: BatchStepContext, out: np.ndarray) -> np.ndarray:
        """Frontier-wide RVS: vectorised draws/conditions, per-walker scans.

        The prefix sums stay per-walker ``np.cumsum`` calls (bit-exact with
        the scalar kernel's accumulation); the per-neighbour uniforms, the
        replacement conditions and the last-qualified selection run as one
        vectorised pass over the whole frontier.
        """
        degrees = batch.degrees
        weights = batch.gather_weights(passes=2)
        live = np.nonzero(segment_any_positive(weights, degrees))[0]
        if live.size == 0:
            return out

        prefix = np.empty(weights.size, dtype=np.float64)
        for i in live:
            lo, hi = int(batch.offsets[i]), int(batch.offsets[i + 1])
            prefix[lo:hi] = np.cumsum(weights[lo:hi])
        batch.charge("prefix_sum_elements", degrees[live], live)

        counts = np.zeros(batch.size, dtype=np.int64)
        counts[live] = degrees[live]
        uniforms = batch.rng.uniform_flat(counts)
        batch.charge("rng_draws", degrees[live], live)

        flat_mask = batch.edge_mask(live)
        live_lengths = degrees[live]
        qualified = _replaces(weights[flat_mask], uniforms, prefix[flat_mask])
        pos = local_positions(live_lengths)
        # Replacements are ordered, so the survivor is simply the largest
        # qualified position per segment (-1 when none qualified).
        starts = segment_offsets(live_lengths)[:-1]
        last = np.maximum.reduceat(np.where(qualified, pos, -1), starts)
        batch.charge("reduction_elements", np.minimum(live_lengths, batch.warp_width), live)

        chosen = np.nonzero(last >= 0)[0]
        out[live[chosen]] = batch.neighbors_flat[
            batch.offsets[:-1][live[chosen]] + last[chosen]
        ]
        return out
