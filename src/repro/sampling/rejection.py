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
from repro.gpusim.counters import COUNT_ROWS
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

#: Counter rows a trial charges (a column, for one add into the counter
#: matrix) and what one trial costs in each: two random numbers, one probe
#: access (plus the spec's probe words), one weight computation, one trial.
_TRIAL_ROWS = np.array(
    [COUNT_ROWS[name] for name in
     ("rng_draws", "random_accesses", "weight_computations", "rejection_trials")]
)[:, None]
_TRIAL_COSTS = np.array([2, 1, 1, 1], dtype=np.int64)

#: Trial offsets within a block, as the uint64 counter increments they are.
_TRIAL_OFFSETS = np.arange(_TRIAL_BATCH, dtype=np.uint64)


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
    alive: np.ndarray,
    probe: WeightProbe,
    bounds: np.ndarray,
    max_trials: np.ndarray,
    bound_reads: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
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
    alive:
        Strictly increasing batch-local indices of the walkers that run
        trials (at least one), each with an out-edge and a positive bound.
    probe:
        Reads each probed candidate's weight (see :func:`probe_weights`).
    bounds / max_trials:
        Per-walker proposal bounds and trial budgets of the whole batch.
    bound_reads:
        Bound reads each alive walker already made (one uncoalesced access
        and one weight computation apiece: eRJS's hint read), charged
        together with its trials.

    Returns ``(choice, failed)``: the accepted candidate index *within each
    walker's neighbour list* for every walker of the batch (``-1`` where
    none was accepted), and the alive walkers whose budget ran out, which
    the kernels finish by inversion.  The trial costs charged are exactly
    the scalar helper's; they land in one add into the counter matrix, as
    integer sums do not depend on their order.
    """
    n = alive.size
    # An increasing selection as wide as the batch is the whole batch, in order.
    whole = n == batch.size
    degrees, keys, slots = batch.degrees, batch.rng.mixed_keys, batch.slots
    words = batch.spec.probe_cost_words_batch(batch.graph, batch)
    if not whole:
        degrees, keys, slots, words = degrees[alive], keys[alive], slots[alive], words[alive]
        bounds, max_trials = bounds[alive], max_trials[alive]
    # Budgets and candidate counts are int64 (CSR degrees are).
    block = np.minimum(max_trials, _TRIAL_BATCH)
    rows = None  # the undecided walkers' positions in ``alive``; None while all are
    while True:
        runnable = block > 0
        if not runnable.all():
            if rows is None:
                rows = runnable.nonzero()[0]
                choice = np.full(n, -1, dtype=np.int64)
                trials = np.zeros(n, dtype=np.int64)
            else:
                rows = rows[runnable]
            if rows.size == 0:
                break
            block = block[runnable]
        if rows is None:
            streams = batch.rng if whole else batch.rng.subset(alive)
            hit, trials, choice = _first_accepts(
                keys, streams.reserve_flat(2 * block), block, degrees, bounds, probe, alive
            )
            if hit.all():
                break
            choice[~hit] = -1
            rows = (~hit).nonzero()[0]
        else:
            walkers = alive[rows]
            hit, used, winners = _first_accepts(
                keys[rows], batch.rng.subset(walkers).reserve_flat(2 * block), block,
                degrees[rows], bounds[rows], probe, walkers,
            )
            trials[rows] += used
            choice[rows[hit]] = winners[hit]
            rows = rows[~hit]
            if rows.size == 0:
                break
        block = np.minimum(max_trials[rows] - trials[rows], _TRIAL_BATCH)
    # Rows rng_draws, random_accesses, weight_computations, rejection_trials.
    cost = np.multiply.outer(_TRIAL_COSTS, trials)
    cost[1] += words * trials
    if bound_reads:
        cost[1:3] += bound_reads
    batch.counters.counts[_TRIAL_ROWS, slots] += cost
    if whole:
        return choice, (choice < 0).nonzero()[0]
    full = np.full(batch.size, -1, dtype=np.int64)
    full[alive] = choice
    return full, alive[choice < 0]


def emit_choices(batch: BatchStepContext, choice: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ``choice[i]``-th neighbour of every walker that picked one
    into ``out`` (one gather when every walker did)."""
    picked = choice >= 0
    if picked.all():
        out[:] = batch.graph.indices[batch.edge_start + choice]
        return out
    rows = picked.nonzero()[0]
    out[rows] = batch.graph.indices[batch.edge_start[rows] + choice[rows]]
    return out


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
    :data:`_ONE_SHOT_CELLS`, the rest of the round runs in one chunk.  The
    per-walker inputs are gathered only once some walker has decided, and
    a chunk that finishes every walker's round at once is read off whole.

    Returns per walker ``(accepted, trials used, accepted candidate)``; the
    candidate of a walker that accepted none is arbitrary.
    """
    n = block.size
    hit = None  # allocated once a chunk leaves some walker undecided
    pending = None  # undecided walkers; None while that is every walker
    t = 0
    # Each walker's first candidate and first acceptance counter.
    base = np.empty((2, n, 1), dtype=np.uint64)
    base[0, :, 0] = starts
    np.add(starts, block.view(np.uint64), out=base[1, :, 0])
    for chunk in _TRIAL_CHUNKS:
        if pending is None:
            blk, first, key, deg, bnd, who = block, base, keys, degrees, bounds, walkers
        else:
            blk, first, key = block[pending], base[:, pending], keys[pending]
            deg, bnd, who = degrees[pending], bounds[pending], walkers[pending]
        rest = int(blk.max()) - t
        width = rest if blk.size * rest <= _ONE_SHOT_CELLS else min(chunk, rest)
        trial = _TRIAL_OFFSETS[t:t + width]
        # ctr[0]: candidate counters, ctr[1]: acceptance counters (uint64
        # array arithmetic wraps silently, as the generator's counters do).
        ctr = first + trial
        u = philox_uniform_premixed(key[:, None], ctr)
        xs = (u[0] * deg[:, None]).astype(np.int64)
        accept = u[1] * bnd[:, None] <= probe(who, xs)
        if int(blk.min()) < t + width:
            # Trials past a walker's own (budget-shortened) block were never
            # reserved: they cannot accept.
            accept &= trial.view(np.int64) < blk[:, None]
        if pending is None and width == rest:
            # Every walker's round ends in this chunk.
            first_hit = accept.argmax(axis=1)
            rows = np.arange(n)
            won = accept[rows, first_hit]
            return won, np.where(won, t + first_hit + 1, block), xs[rows, first_hit]
        if hit is None:
            hit = np.zeros(n, dtype=bool)
            used = block.copy()
            winners = np.zeros(n, dtype=np.int64)
        row_hit = accept.any(axis=1)
        rows = row_hit.nonzero()[0]
        if rows.size:
            first_hit = accept[rows].argmax(axis=1)
            won = rows if pending is None else pending[rows]
            hit[won] = True
            used[won] = t + first_hit + 1
            winners[won] = xs[rows, first_hit]
        t += width
        keep = ~row_hit & (blk > t)
        if pending is None:
            if keep.all():
                continue
            pending = keep.nonzero()[0]
        else:
            pending = pending[keep]
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
        alive = (bounds > 0).nonzero()[0]
        if alive.size == 0:
            return out
        max_trials = np.maximum(self.min_trials, self.max_trial_factor * degrees)
        choice, failed = run_rejection_trials_batch(batch, alive, probe, bounds, max_trials)
        # Trial-budget exhaustion: finish with a direct inversion per walker,
        # replaying the scalar fallback on the same weight slice and stream.
        for i in failed:
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
        return emit_choices(batch, choice, out)
