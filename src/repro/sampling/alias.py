"""Alias sampling (ALS), the strategy of Skywalker.

Alias sampling answers a weighted choice in O(1) random numbers *after*
building an alias table in O(degree).  For static walks the table is built
once per node and reused forever, which is why Skywalker is competitive
there; for dynamic walks the table must be rebuilt at every step — the
"repetitive auxiliary data structure construction" overhead Fig. 3 exposes.

The construction here is Vose's algorithm, which is numerically robust and
exactly preserves the target distribution.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sampling.base import (
    Sampler,
    StepContext,
    all_weights_zero,
    gather_transition_weights,
)
from repro.sampling.batch import BatchStepContext, segment_any_positive


def build_alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias-table construction.

    Returns ``(prob, alias)`` arrays of length ``n`` such that drawing a
    uniform column ``i`` and accepting it with probability ``prob[i]`` (else
    taking ``alias[i]``) reproduces the normalised weight distribution.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    if n == 0:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    total = weights.sum()
    if total <= 0:
        # Degenerate: caller must detect the all-zero case before sampling.
        return np.zeros(n), np.arange(n, dtype=np.int64)
    scale = n / float(total)
    # A subnormal total overflows n / total to inf; dividing first keeps the
    # normalised weights finite (normal totals keep the cheaper product).
    scaled = weights * scale if math.isfinite(scale) else weights / total * n
    prob = np.zeros(n, dtype=np.float64)
    alias = np.zeros(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for i in large:
        prob[i] = 1.0
        alias[i] = i
    for i in small:
        prob[i] = 1.0
        alias[i] = i
    return prob, alias


class AliasSampler(Sampler):
    """Per-step alias-table sampling (Skywalker's strategy, Fig. 2b)."""

    name = "ALS"
    processing_unit = "warp"

    def sample(self, ctx: StepContext) -> int | None:
        if not self._check_nonempty(ctx):
            return None
        weights = gather_transition_weights(ctx)
        degree = weights.size
        if all_weights_zero(weights):
            return None

        # Building the table: a mean reduction plus redistributing every
        # element into the prob/alias arrays.
        warp = ctx.warp()
        warp.reduce_sum(weights)
        ctx.counters.table_builds += 2 * degree
        prob, alias = build_alias_table(weights)

        # Sampling: two random numbers forming a 2D lookup coordinate.
        u_col = ctx.rng.uniform()
        u_acc = ctx.rng.uniform()
        ctx.counters.rng_draws += 2
        ctx.counters.random_accesses += 1  # table lookup
        column = min(int(u_col * degree), degree - 1)
        choice = column if u_acc < prob[column] else int(alias[column])
        return int(ctx.neighbors()[choice])

    # ------------------------------------------------------------------ #
    def _sample_batch_nonempty(self, batch: BatchStepContext, out: np.ndarray) -> np.ndarray:
        """Frontier-wide ALS: vectorised gather/draws, per-walker Vose builds.

        The alias-table construction is inherently sequential (Vose's
        small/large worklists), so it stays a per-walker core; the weight
        gather, the two uniforms per walker and all cost accounting are
        vectorised across the frontier.
        """
        degrees = batch.degrees
        weights = batch.gather_weights()
        live = np.nonzero(segment_any_positive(weights, degrees))[0]
        if live.size == 0:
            return out

        batch.charge("reduction_elements", degrees[live], live)
        batch.charge("table_builds", 2 * degrees[live], live)
        counts = np.zeros(batch.size, dtype=np.int64)
        counts[live] = 2
        uniforms = batch.rng.uniform_flat(counts)
        batch.charge("rng_draws", 2, live)
        batch.charge("random_accesses", 1, live)

        cache = batch.transition_cache
        if cache is not None:
            # Node-only workload: the Vose tables are run-wide constants
            # served by the transition cache (built once per node, like
            # Skywalker's static-walk tables), so the whole partition reduces
            # to two gathers and a vectorised accept test.
            live_nodes = batch.current[live]
            prob_flat, alias_flat = cache.alias_arrays(live_nodes)
            lo = batch.graph.indptr[live_nodes]
            degree = degrees[live]
            u_col = uniforms[0::2]
            u_acc = uniforms[1::2]
            column = np.minimum((u_col * degree).astype(np.int64), degree - 1)
            accept = u_acc < prob_flat[lo + column]
            choice = np.where(accept, column, alias_flat[lo + column])
            out[live] = batch.graph.indices[lo + choice]
            return out

        for j, i in enumerate(live):
            lo, hi = int(batch.offsets[i]), int(batch.offsets[i + 1])
            degree = hi - lo
            prob, alias = build_alias_table(weights[lo:hi])
            u_col, u_acc = float(uniforms[2 * j]), float(uniforms[2 * j + 1])
            column = min(int(u_col * degree), degree - 1)
            choice = column if u_acc < prob[column] else int(alias[column])
            out[i] = batch.neighbors_flat[lo + choice]
        return out
