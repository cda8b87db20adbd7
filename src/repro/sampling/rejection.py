"""Baseline rejection sampling (RJS), the strategy of NextDoor.

Each trial draws a 2-D coordinate ``(x, y)``: ``x`` picks a candidate
neighbour uniformly and the candidate is accepted when ``y`` — drawn from
``[0, max w̃]`` — falls under its transition weight (Fig. 2d).  The baseline
pays for a **max reduction over every transition weight** before it can start
drawing, which for dynamic walks means computing every weight anyway; this is
exactly the cost eRJS removes.
"""

from __future__ import annotations

import numpy as np

from repro.rng.philox import philox_uniform_premixed
from repro.sampling.base import Sampler, StepContext, gather_transition_weights
from repro.sampling.batch import BatchStepContext, segment_max

#: Size of the trial blocks each round reserves per walker.  It fixes which
#: stream counters every trial consumes, so scalar and batched runs share it
#: and changing it changes every rejection-sampled path.
_TRIAL_BATCH = 16

#: Trials evaluated per chunk within a batched round (they sum to
#: ``_TRIAL_BATCH``): most walkers accept on their first or second trial, so
#: the first chunks are narrow and later ones widen for the heavy-skew rows.
_TRIAL_CHUNKS = (1, 1, 2, 4, 8)

#: Undecided walkers × remaining trials at or below which the rest of a
#: round is evaluated in one chunk — narrow frontiers pay one numpy pass per
#: round instead of one per chunk.
_ONE_SHOT_CELLS = 2048


def run_rejection_trials(
    ctx: StepContext,
    weights: np.ndarray,
    bound: float,
    max_trials: int,
) -> tuple[int | None, int]:
    """Run accept/reject trials against ``weights`` with proposal bound ``bound``.

    Returns ``(accepted index or None, number of trials performed)``.  The
    per-trial cost — two random numbers, one uncoalesced weight access, one
    dynamic-weight evaluation plus whatever side data that evaluation touches
    (``spec.probe_cost_words``, e.g. the dist(v', u) membership probe of
    second-order workloads) — is accounted here so both the baseline kernel
    and eRJS share the exact same trial pricing.
    """
    degree = int(weights.size)
    if degree == 0 or bound <= 0.0:
        return None, 0
    probe_words = 1 + ctx.spec.probe_cost_words(ctx.graph, ctx.state)
    trials_done = 0
    while trials_done < max_trials:
        batch = min(_TRIAL_BATCH, max_trials - trials_done)
        xs = ctx.rng.integers(0, degree, size=batch)
        ys = np.asarray(ctx.rng.uniform(batch)) * bound
        accepted = np.nonzero(ys <= weights[xs])[0]
        if accepted.size:
            used = int(accepted[0]) + 1
            trials_done += used
            ctx.counters.rng_draws += 2 * used
            ctx.counters.random_accesses += probe_words * used
            ctx.counters.weight_computations += used
            ctx.counters.rejection_trials += used
            return int(xs[accepted[0]]), trials_done
        trials_done += batch
        ctx.counters.rng_draws += 2 * batch
        ctx.counters.random_accesses += probe_words * batch
        ctx.counters.weight_computations += batch
        ctx.counters.rejection_trials += batch
    return None, trials_done


class WeightProbe:
    """How the trial loop reads the weight of walker ``i``'s ``x``-th candidate.

    Walker ``i`` reads ``weights[bases[i] + x]`` — the transition cache's
    edge array probed in place, or the flat weights gathered for its row —
    unless ``on_demand[i]``, in which case the spec's
    :meth:`~repro.walks.spec.WalkSpec.edge_weights_batch` evaluates just the
    probed candidates (on-demand eRJS).  The hook's values equal the full
    row's bit for bit, so either read yields the same trials.  Walkers are
    batch-local indices; nothing here is charged.
    """

    def __init__(
        self,
        batch: BatchStepContext,
        weights: np.ndarray | None,
        bases: np.ndarray,
        on_demand: np.ndarray | None = None,
    ) -> None:
        self.batch = batch
        self.weights = weights
        self.bases = bases
        self.on_demand = on_demand

    def _evaluate(self, walkers: np.ndarray, xs: np.ndarray) -> np.ndarray:
        batch = self.batch
        edges = batch.edge_start[walkers][:, None] + xs
        weights = batch.spec.edge_weights_batch(
            batch.graph, batch, np.repeat(walkers, xs.shape[1]), edges.ravel()
        )
        return weights.reshape(xs.shape)

    def __call__(self, walkers: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Weights of candidates ``xs[r, :]`` of walker ``walkers[r]``."""
        if self.on_demand is None:
            return self.weights[self.bases[walkers][:, None] + xs]
        lazy = self.on_demand[walkers]
        if lazy.all():
            return self._evaluate(walkers, xs)
        out = np.empty(xs.shape, dtype=np.float64)
        eager = ~lazy
        out[eager] = self.weights[self.bases[walkers[eager]][:, None] + xs[eager]]
        if lazy.any():
            out[lazy] = self._evaluate(walkers[lazy], xs[lazy])
        return out

    def row(self, i: int) -> np.ndarray:
        """Walker ``i``'s whole weight row (the inversion fallback)."""
        degree = int(self.batch.degrees[i])
        if self.on_demand is not None and self.on_demand[i]:
            return self._evaluate(np.array([i]), np.arange(degree)[None, :])[0]
        lo = int(self.bases[i])
        return self.weights[lo:lo + degree]


def probe_weights(
    batch: BatchStepContext, on_demand: np.ndarray | None = None
) -> tuple[WeightProbe, np.ndarray]:
    """``(probe, row_max)`` for kernels that probe single weights.

    With a :class:`~repro.sampling.transition_cache.TransitionCache`
    attached every walker probes the cache's edge array in place and the
    row maxima come precomputed.  Otherwise the flat weights of every
    walker not flagged ``on_demand`` are gathered once and reduced per
    segment; flagged walkers gather nothing, their row maximum is ``-inf``
    (unknown) and the probe evaluates their candidates on demand.  No
    accounting: callers charge what their modeled kernel reads.
    """
    cache = batch.transition_cache
    if cache is not None:
        weights, row_max = cache.weight_arrays(batch.current)
        return WeightProbe(batch, weights, batch.edge_start), row_max
    if on_demand is None or not on_demand.any():
        weights = batch.transition_weights()
        probe = WeightProbe(batch, weights, batch.offsets[:-1])
        return probe, segment_max(weights, batch.degrees)
    row_max = np.full(batch.size, -np.inf)
    bases = np.zeros(batch.size, dtype=np.int64)
    weights = None
    eager = np.nonzero(~on_demand)[0]
    if eager.size:
        sub = batch.subset(eager)
        weights = sub.transition_weights()
        bases[eager] = sub.offsets[:-1]
        row_max[eager] = segment_max(weights, sub.degrees)
    return WeightProbe(batch, weights, bases, on_demand), row_max


def run_rejection_trials_batch(
    batch: BatchStepContext,
    idx: np.ndarray,
    probe: WeightProbe,
    bounds: np.ndarray,
    max_trials: np.ndarray,
) -> np.ndarray:
    """Accept/reject trials for many walkers at once.

    The batched twin of :func:`run_rejection_trials`.  Per round every still
    undecided walker reserves one block of ``2·b`` counters from its own
    stream — the first ``b`` feed the candidate integers, the rest the
    acceptance uniforms, the exact consumption order of the scalar loop —
    but Philox is evaluated only at the trials actually tried
    (:func:`_first_accepts`), so the realised trials, the charges and the
    streams' end state are identical to drawing every block in full.

    Parameters
    ----------
    idx:
        Batch-local indices of the participating walkers.
    probe:
        Reads each probed candidate's weight (see :func:`probe_weights`).
    bounds / max_trials:
        Per-walker proposal bounds and trial budgets, parallel to ``idx``.

    Returns the accepted candidate index *within each walker's neighbour
    list* (``-1`` when the budget was exhausted), charging exactly the trial
    costs the scalar helper charges.
    """
    choice = np.full(idx.size, -1, dtype=np.int64)
    if idx.size == 0:
        return choice
    degrees = batch.degrees[idx]
    probe_words = 1 + batch.spec.probe_cost_words_batch(batch.graph, batch)[idx]
    done = np.zeros(idx.size, dtype=np.int64)
    active = np.nonzero((degrees > 0) & (bounds > 0))[0]
    while active.size:
        block = np.minimum(_TRIAL_BATCH, max_trials[active] - done[active])
        runnable = block > 0
        active = active[runnable]
        block = block[runnable]
        if active.size == 0:
            break
        slots = idx[active]
        streams = batch.rng.subset(slots)
        starts = streams.reserve_flat(2 * block)
        hit, used, winners = _first_accepts(
            streams.mixed_keys, starts, block, degrees[active], bounds[active],
            probe, slots,
        )
        batch.charge("rng_draws", 2 * used, slots)
        batch.charge("random_accesses", probe_words[active] * used, slots)
        batch.charge("weight_computations", used, slots)
        batch.charge("rejection_trials", used, slots)
        done[active] += used
        choice[active[hit]] = winners[hit]
        active = active[~hit]
    return choice


def _first_accepts(
    keys: np.ndarray,
    starts: np.ndarray,
    block: np.ndarray,
    degrees: np.ndarray,
    bounds: np.ndarray,
    probe: WeightProbe,
    walkers: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round of trials, evaluating only the draws a walker consumes.

    Walker ``j`` (batch-local index ``walkers[j]``) owns counters
    ``starts[j] + [0, 2·block[j])``; its trial ``t`` draws the candidate at
    ``starts[j] + t`` and the acceptance uniform at ``starts[j] + block[j]
    + t``.  Trials run in growing chunks (:data:`_TRIAL_CHUNKS`) over the
    walkers still undecided, so a walker that accepts on its first trial
    costs two Philox evaluations — and one weight probe — instead of
    ``2·block``.  Once the undecided walkers × remaining trials fall to
    :data:`_ONE_SHOT_CELLS`, the rest of the round runs in one chunk.

    Returns per walker ``(accepted, trials used, accepted candidate)``.
    """
    n = block.size
    hit = np.zeros(n, dtype=bool)
    used = block.copy()
    winners = np.zeros(n, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    t = 0
    for chunk in _TRIAL_CHUNKS:
        blk = block[pending]
        rest = int(blk.max()) - t
        width = rest if pending.size * rest <= _ONE_SHOT_CELLS else min(chunk, rest)
        trial = np.arange(t, t + width, dtype=np.int64)
        # ctr[0]: candidate counters, ctr[1]: acceptance counters.
        ctr = np.empty((2, pending.size, width), dtype=np.uint64)
        with np.errstate(over="ignore"):
            np.add(starts[pending][:, None], trial.astype(np.uint64), out=ctr[0])
            np.add(ctr[0], blk.astype(np.uint64)[:, None], out=ctr[1])
        u = philox_uniform_premixed(keys[pending][:, None], ctr)
        xs = np.floor(u[0] * degrees[pending][:, None]).astype(np.int64)
        accept = u[1] * bounds[pending][:, None] <= probe(walkers[pending], xs)
        if int(blk.min()) < t + width:
            # Trials past a walker's own (budget-shortened) block were never
            # reserved: they cannot accept.
            accept &= trial < blk[:, None]
        row_hit = accept.any(axis=1)
        rows = np.nonzero(row_hit)[0]
        if rows.size:
            first = accept[rows].argmax(axis=1)
            won = pending[rows]
            hit[won] = True
            used[won] = t + first + 1
            winners[won] = xs[rows, first]
        t += width
        pending = pending[~row_hit & (blk > t)]
        if pending.size == 0:
            break
    return hit, used, winners


class RejectionSampler(Sampler):
    """Max-reduce + accept/reject trials (NextDoor's strategy, Fig. 2d)."""

    name = "RJS"
    processing_unit = "thread"

    def __init__(self, max_trial_factor: int = 16, min_trials: int = 64) -> None:
        self.max_trial_factor = int(max_trial_factor)
        self.min_trials = int(min_trials)

    def sample(self, ctx: StepContext) -> int | None:
        if not self._check_nonempty(ctx):
            return None
        # The baseline must compute every transition weight to find the max.
        # Rejection-sampling kernels are thread-per-walker (Section 5.2), so
        # this scan is a serial, uncoalesced sweep — the "heavy weight max
        # reduction" the paper blames for NextDoor's weighted-workload
        # collapse and that eRJS's bound estimation removes.
        weights = gather_transition_weights(ctx, coalesced=False)
        degree = weights.size
        warp = ctx.warp()
        bound = warp.reduce_max(weights)
        if bound <= 0.0:
            return None

        max_trials = max(self.min_trials, self.max_trial_factor * degree)
        choice, _ = run_rejection_trials(ctx, weights, bound, max_trials)
        if choice is None:
            # Extremely unlucky trial budget exhaustion: finish the step with
            # a direct inversion over the already-computed weights so the
            # walk still advances from the correct distribution.
            total = float(weights.sum())
            if total <= 0.0:
                return None
            cdf = warp.prefix_sum(weights)
            u = ctx.rng.uniform()
            ctx.counters.rng_draws += 1
            choice = min(int(np.searchsorted(cdf, u * total)), degree - 1)
        return int(ctx.neighbors()[choice])

    # ------------------------------------------------------------------ #
    def _sample_batch_nonempty(self, batch: BatchStepContext, out: np.ndarray) -> np.ndarray:
        """Frontier-wide baseline RJS: vectorised max reduction + trials."""
        degrees = batch.degrees
        probe, bounds = probe_weights(batch)
        batch.charge_scan(coalesced=False)
        batch.charge("reduction_elements", degrees)
        alive = np.nonzero(bounds > 0)[0]
        if alive.size == 0:
            return out

        max_trials = np.maximum(self.min_trials, self.max_trial_factor * degrees)
        choice = np.full(batch.size, -1, dtype=np.int64)
        choice[alive] = run_rejection_trials_batch(
            batch, alive, probe, bounds[alive], max_trials[alive]
        )
        # Trial-budget exhaustion: finish with a direct inversion per walker,
        # replaying the scalar fallback on the same weight slice and stream.
        for i in alive[choice[alive] < 0]:
            wslice = probe.row(i)
            total = float(wslice.sum())
            if total <= 0.0:
                continue
            degree = wslice.size
            cdf = np.cumsum(wslice)
            batch.charge("prefix_sum_elements", degree, np.array([i]))
            u = batch.stream(i).uniform()
            batch.charge("rng_draws", 1, np.array([i]))
            choice[i] = min(int(np.searchsorted(cdf, u * total)), degree - 1)
        picked = np.nonzero(choice >= 0)[0]
        out[picked] = batch.graph.indices[batch.edge_start[picked] + choice[picked]]
        return out
