"""eRVS: FlexiWalker's enhanced reservoir sampling kernel (Section 3.2).

Two optimisations over the baseline RVS kernel:

**EXP (memory-access reduction).**  Instead of prefix sums, each neighbour
``i`` receives an exponential-race key ``k_i = u_i^(1 / w̃_i)`` (Efraimidis &
Spirakis, 2006) and the neighbour with the *largest* key wins.  This converts
the step into an argmax, eliminates the prefix-sum pass and roughly halves
the memory accesses to the weight list.

**JUMP (computation reduction).**  Rather than drawing one key per neighbour,
the jump technique samples — once per candidate update — how much cumulative
weight can be skipped before the next update occurs (Eq. 4), so random-number
generation drops from ``degree`` draws to roughly ``O(warp + log degree)``
draws.

Both optimisations are statistically exact: the selected neighbour follows
``p(u) = w̃(v,u)/Σ w̃`` either way (chi-square verified in the test suite).
The two flags ``use_exponential_keys`` / ``use_jump`` exist so the Fig. 12a
ablation (baseline → +EXP → +JUMP) can be reproduced with the same class.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import (
    Sampler,
    StepContext,
    all_weights_zero,
    gather_transition_weights,
)
from repro.sampling.batch import BatchStepContext, padded_race, segment_any_positive


def exponential_race_keys(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Efraimidis–Spirakis keys ``k_i = u_i^(1/w_i)`` (zero weight → key 0).

    Computed in log space for numerical stability: ``log k_i = log(u_i)/w_i``;
    argmax is invariant under the monotone transform, and zero-weight items
    are mapped to ``-inf`` so they can never win.
    """
    weights = np.asarray(weights, dtype=np.float64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    log_keys = np.full(weights.shape, -np.inf, dtype=np.float64)
    # uniforms are in (0, 1); log is negative, dividing by the weight scales it.
    with np.errstate(divide="ignore"):
        np.divide(np.log(uniforms), weights, out=log_keys, where=weights > 0)
    return log_keys


def count_candidate_updates(log_keys: np.ndarray, warp_width: int) -> int:
    """Number of global-candidate updates after the warp's first iteration.

    The jump kernel (Fig. 4b) seeds one key per lane in iteration 1, reduces
    them to the global maximum ``k_g`` and from then on only generates a new
    key when a lane's cumulative weight crosses its threshold — i.e. when the
    candidate would actually be replaced.  The expected number of such
    replacements grows only logarithmically with the neighbour count, which
    is exactly why the jump saves random numbers on high-degree nodes.  This
    helper counts the replacements exactly from the realised keys: a neighbour
    beyond the first warp-wide round triggers an update iff its key exceeds
    the running maximum of everything before it.
    """
    log_keys = np.asarray(log_keys, dtype=np.float64)
    n = log_keys.size
    width = max(1, min(warp_width, n))
    if n <= width:
        return 0
    running_max = np.maximum.accumulate(log_keys)
    later = log_keys[width:]
    return int(np.count_nonzero(later > running_max[width - 1:-1]))


class EnhancedReservoirSampler(Sampler):
    """eRVS: exponential-key reservoir sampling with the jump technique."""

    name = "eRVS"
    processing_unit = "warp"

    def __init__(self, use_exponential_keys: bool = True, use_jump: bool = True) -> None:
        self.use_exponential_keys = bool(use_exponential_keys)
        self.use_jump = bool(use_jump)

    def sample(self, ctx: StepContext) -> int | None:
        if not self._check_nonempty(ctx):
            return None
        if not self.use_exponential_keys:
            # Ablation baseline: behave exactly like the FlowWalker kernel.
            from repro.sampling.reservoir import ReservoirSampler

            return ReservoirSampler().sample(ctx)

        # Single pass over the weights — the EXP optimisation.
        weights = gather_transition_weights(ctx, passes=1)
        degree = weights.size
        if all_weights_zero(weights):
            return None

        uniforms = np.asarray(ctx.rng.uniform(degree))
        log_keys = exponential_race_keys(weights, uniforms)

        warp = ctx.warp()
        width = max(1, min(ctx.warp_width, degree))
        if self.use_jump and degree > width:
            # Iteration 1 draws one key per lane; after the k_g reduction each
            # lane draws one threshold, and every later candidate update costs
            # two more draws (replacement key + fresh threshold).  Everything
            # in between is jumped over.
            updates = count_candidate_updates(log_keys, ctx.warp_width)
            ctx.counters.rng_draws += 2 * width + 2 * updates
        else:
            # One key per neighbour (the plain exponential-race formulation);
            # for neighbour lists no longer than a warp the jump has nothing
            # to skip, so the cost is identical.
            ctx.counters.rng_draws += degree

        # Local per-lane maxima are reduced across the warp.
        choice = int(np.argmax(log_keys))
        warp.reduce_argmax(log_keys[:width])
        return int(ctx.neighbors()[choice])

    # ------------------------------------------------------------------ #
    def _sample_batch_nonempty(self, batch: BatchStepContext, out: np.ndarray) -> np.ndarray:
        """Batched eRVS: one exponential race across the batch's walkers.

        Walker-for-walker identical to :meth:`sample` — the per-walker
        uniforms come from the same counter positions of the same streams,
        the keys/argmax use the same formulas, and the jump accounting counts
        the same candidate updates from padded running maxima
        (:func:`padded_race`).
        """
        if not self.use_exponential_keys:
            # Ablation baseline: behave exactly like the FlowWalker kernel.
            from repro.sampling.reservoir import ReservoirSampler

            return ReservoirSampler()._sample_batch_nonempty(batch, out)

        weights = batch.gather_weights(passes=1)
        degrees = batch.degrees
        live = np.nonzero(segment_any_positive(weights, degrees))[0]
        if live.size == 0:
            return out

        # Draw exactly one uniform per neighbour for every live walker, from
        # each walker's own stream (dead-end walkers consume no draws, like
        # the scalar early return).
        if live.size == batch.size:
            live_weights = weights
            live_lengths = degrees
            uniforms = batch.rng.uniform_flat(degrees)
        else:
            live_weights = weights[batch.edge_mask(live)]
            live_lengths = degrees[live]
            counts = np.zeros(batch.size, dtype=np.int64)
            counts[live] = live_lengths
            uniforms = batch.rng.uniform_flat(counts)
        log_keys = exponential_race_keys(live_weights, uniforms)

        widths = np.minimum(batch.warp_width, live_lengths)
        jump = live_lengths > batch.warp_width
        if self.use_jump and jump.any():
            # Iteration 1 draws one key per lane, every later candidate
            # update two more (see :meth:`sample`).
            choice, updates = padded_race(log_keys, live_lengths, batch.warp_width)
            rng_counts = np.where(jump, 2 * widths + 2 * updates, live_lengths)
        else:
            choice, _ = padded_race(log_keys, live_lengths)
            rng_counts = live_lengths
        batch.charge("rng_draws", rng_counts, live)
        batch.charge("reduction_elements", widths, live)

        out[live] = batch.graph.indices[batch.edge_start[live] + choice]
        return out
