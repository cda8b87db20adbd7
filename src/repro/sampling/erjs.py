"""eRJS: FlexiWalker's enhanced rejection sampling kernel (Section 3.3).

The baseline rejection kernel must compute *every* transition weight just to
find the maximum that bounds the proposal's ``y`` axis.  eRJS replaces the
exact maximum with a **theoretical upper bound computed on the fly** from the
workload's structure (``max(w) · max(h)``, where ``max(h)`` comes from a
per-node preprocessing pass and ``max(w)`` from the workload's branch
analysis — both produced by Flexi-Compiler).  Sections 3.3's proof shows the
accepted node's distribution is *identical* for any constant ``c`` that upper
bounds the weights: only the acceptance rate (``Σ w̃ / (degree · c)``)
changes, so a looser bound costs extra trials, never correctness.

When no bound hint is available (the compiler fell back, or the user opted
out) the kernel degrades gracefully to the baseline max-reduction path.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import Sampler, StepContext, gather_transition_weights
from repro.sampling.batch import BatchStepContext
from repro.sampling.rejection import (
    emit_choices,
    probe_weights,
    run_rejection_trials,
    run_rejection_trials_batch,
)


class EnhancedRejectionSampler(Sampler):
    """eRJS: rejection sampling against an estimated upper bound."""

    name = "eRJS"
    processing_unit = "thread"

    def __init__(
        self,
        use_estimated_bound: bool = True,
        max_trial_factor: int = 16,
        min_trials: int = 64,
    ) -> None:
        self.use_estimated_bound = bool(use_estimated_bound)
        self.max_trial_factor = int(max_trial_factor)
        self.min_trials = int(min_trials)

    def sample(self, ctx: StepContext) -> int | None:
        if not self._check_nonempty(ctx):
            return None
        degree = ctx.degree

        # The trial loop needs the true weight of each probed candidate; the
        # Python implementation materialises the vector once for speed, but
        # only the per-trial accesses are charged to the counters (on the GPU
        # each trial reads exactly one candidate's data).
        weights = ctx.spec.transition_weights(ctx.graph, ctx.state)

        bound: float | None = None
        if self.use_estimated_bound and ctx.bound_hint is not None and ctx.bound_hint > 0:
            # Estimating the bound touches one preprocessed value per indexed
            # array plus a handful of arithmetic — Fig. 5b.
            bound = float(ctx.bound_hint)
            ctx.counters.random_accesses += 1
            ctx.counters.weight_computations += 1
        else:
            # Fallback: exact maximum via a full scan + max reduction, i.e.
            # the baseline behaviour (Fig. 5a).
            gathered = gather_transition_weights(ctx)
            bound = ctx.warp().reduce_max(gathered)

        if bound <= 0.0:
            return None
        # A bound below the true maximum would clip the distribution; since
        # correctness is non-negotiable (the paper's proof assumes c >= max),
        # widen the bound if the hint was violated.  This can only happen
        # with a user-supplied helper that is not a true upper bound.
        true_max = float(weights.max()) if weights.size else 0.0
        if true_max > bound:
            bound = true_max

        max_trials = max(self.min_trials, self.max_trial_factor * degree)
        choice, _ = run_rejection_trials(ctx, weights, bound, max_trials)
        if choice is None:
            # Either every weight is zero (dead end) or the trial budget was
            # exhausted because the bound is far from the actual weights; in
            # the latter case finish with a direct inversion so the walk
            # still advances from the correct distribution (and charge the
            # full scan that requires).
            total = float(weights.sum())
            if total <= 0.0:
                return None
            ctx.counters.coalesced_accesses += degree
            ctx.counters.weight_computations += degree
            cdf = ctx.warp().prefix_sum(weights)
            u = ctx.rng.uniform()
            ctx.counters.rng_draws += 1
            choice = min(int(np.searchsorted(cdf, u * total, side="right")), degree - 1)
        return int(ctx.neighbors()[choice])

    # ------------------------------------------------------------------ #
    def _sample_batch_nonempty(self, batch: BatchStepContext, out: np.ndarray) -> np.ndarray:
        """Frontier-wide eRJS: hinted bounds where available, scans elsewhere.

        Walkers with a usable compiler bound pay one uncoalesced hint read;
        the rest fall back to the scan + max-reduction path — per walker,
        exactly the branch the scalar kernel would have taken, with the same
        trial draws and the same charges.  Like the GPU kernel, the host
        reads only the weights a trial probes: in place when the transition
        cache holds them, and through the spec's ``edge_weights_batch`` for
        walkers whose hint provably bounds their row (:meth:`_on_demand`);
        only the remaining walkers gather their rows
        (:func:`~repro.sampling.rejection.probe_weights`).  The scan walkers
        are charged their scan without a gather.
        """
        degrees = batch.degrees
        hints = batch.bound_hints if self.use_estimated_bound else None
        # A missing hint is NaN, which compares False.
        hinted = None if hints is None else hints > 0
        probe, true_max = probe_weights(batch, self._on_demand(batch, hinted))

        if hinted is not None and hinted.all():
            # Every walker estimates its bound, touching one preprocessed
            # value plus a bit of arithmetic (Fig. 5b); that read is charged
            # with the trials.  Widen hint-violating bounds so correctness
            # never depends on the helper really being an upper bound (same
            # rule as the scalar path); on-demand walkers' row maxima are
            # unknown (-inf) but provably at most their hint.
            bounds = np.maximum(hints, true_max)
            alive = np.arange(batch.size, dtype=np.int64)
            bound_reads = 1
        else:
            bounds = np.empty(batch.size, dtype=np.float64)
            if hinted is None:
                hinted = np.zeros(batch.size, dtype=bool)
            hint_idx = hinted.nonzero()[0]
            if hint_idx.size:
                bounds[hint_idx] = hints[hint_idx]
                batch.charge("random_accesses", 1, hint_idx)
                batch.charge("weight_computations", 1, hint_idx)
            scan_idx = (~hinted).nonzero()[0]
            # Fallback: exact maximum via a full scan + max reduction (Fig. 5a).
            batch.charge_scan(idx=scan_idx)
            batch.charge("reduction_elements", degrees[scan_idx], scan_idx)
            bounds[scan_idx] = true_max[scan_idx]
            alive = (bounds > 0).nonzero()[0]
            if alive.size == 0:
                return out
            bounds = np.maximum(bounds, true_max)
            bound_reads = 0

        max_trials = np.maximum(self.min_trials, self.max_trial_factor * degrees)
        choice, failed = run_rejection_trials_batch(
            batch, alive, probe, bounds, max_trials, bound_reads
        )
        for i in failed:
            wslice = probe.row(i)
            total = float(wslice.sum())
            if total <= 0.0:
                continue
            degree = wslice.size
            only = np.array([i])
            batch.charge("coalesced_accesses", degree, only)
            batch.charge("weight_computations", degree, only)
            cdf = np.cumsum(wslice)
            batch.charge("prefix_sum_elements", degree, only)
            u = batch.stream(i).uniform()
            batch.charge("rng_draws", 1, only)
            choice[i] = min(int(np.searchsorted(cdf, u * total, side="right")), degree - 1)
        return emit_choices(batch, choice, out)

    @staticmethod
    def _on_demand(batch: BatchStepContext, hinted: np.ndarray | None) -> np.ndarray | None:
        """Hinted walkers whose hint provably bounds every weight of their row.

        A walker whose exact weight ceiling
        (:meth:`~repro.walks.spec.WalkSpec.weight_ceiling_batch`) is at most
        its hint has a true row maximum at most its hint, so the widened
        bound ``max(hint, true max)`` is the hint itself: its trials need
        only the candidates they probe.  ``None`` when the transition cache
        already serves probes in place or the spec has no ceiling.
        """
        if batch.transition_cache is not None or hinted is None or not hinted.any():
            return None
        ceiling = batch.spec.weight_ceiling_batch(batch.graph, batch)
        if ceiling is None:
            return None
        return hinted & (ceiling <= batch.bound_hints)
