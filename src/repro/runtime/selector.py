"""Sampling-strategy selection policies (Section 4.1, Fig. 13).

The production policy is :class:`CostModelSelector`, which evaluates Eq. 11
per node per step using the compiler-generated max/sum estimates and the
profiled cost ratio.  The alternatives the paper compares against in its
sensitivity study — random selection and degree-threshold selection — are
implemented alongside, plus a fixed selector for the eRJS-only / eRVS-only
ablations of Fig. 11.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import RuntimeSelectionError
from repro.runtime.cost_model import CostModel
from repro.sampling.base import Sampler, StepContext
from repro.sampling.batch import BatchStepContext
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.sampling.ervs import EnhancedReservoirSampler


@dataclass(frozen=True)
class DegreeThresholdRule:
    """Declarative form of the common degree/threshold selection shape.

    A selector whose per-step decision is "run ``above`` when the node degree
    reaches ``threshold``, else ``below``" can return one of these from
    :meth:`SamplerSelector.batch_rule` and the base class vectorises the
    whole superstep: the per-walker charges in ``charge`` are applied to
    every walker's counter slot and the assignment is a single compare —
    no probe :class:`~repro.sampling.base.StepContext` objects, no per-walker
    Python loop.
    """

    threshold: int
    above: Sampler
    below: Sampler
    #: ``(counter name, amount)`` pairs charged per walker, mirroring what the
    #: scalar ``select`` charges per step.
    charge: tuple[tuple[str, int], ...] = (("random_accesses", 1),)


class SamplerSelector(ABC):
    """Chooses the sampling kernel for one walk step."""

    name: str = "selector"

    @abstractmethod
    def select(self, ctx: StepContext) -> Sampler:
        """Return the kernel to use for the step described by ``ctx``."""

    # ------------------------------------------------------------------ #
    def batch_rule(self) -> DegreeThresholdRule | None:
        """Declarative vectorisable selection rule, when one exists.

        Threshold-style selectors (the common custom shape) describe their
        decision here and inherit a vectorised :meth:`select_batch`; the
        default ``None`` keeps the scalar bridge.
        """
        return None

    def select_batch(self, ctx: BatchStepContext) -> tuple[list[Sampler], np.ndarray]:
        """Choose the kernel for every walker of a superstep at once.

        Returns ``(samplers, assignment)`` where ``assignment[i]`` indexes
        into ``samplers`` for the ``i``-th walker; the batched engine then
        partitions the frontier by kernel and runs each partition through
        one :meth:`~repro.sampling.base.Sampler.sample_batch` call.

        The built-in policies override this with vectorised rules, and any
        selector that declares a :meth:`batch_rule` gets the vectorised
        degree/threshold evaluation below.  Only truly custom selectors fall
        back to the per-walker scalar bridge (with full counter accounting),
        which keeps them working in the batched engine unchanged.
        """
        rule = self.batch_rule()
        if rule is not None:
            for counter_name, amount in rule.charge:
                ctx.charge(counter_name, amount)
            high = ctx.degrees >= rule.threshold
            return [rule.above, rule.below], np.where(high, 0, 1)
        samplers: list[Sampler] = []
        positions: dict[int, int] = {}
        assignment = np.zeros(ctx.size, dtype=np.int64)
        for i in range(ctx.size):
            scalar_ctx, counters = ctx.scalar_context(i)
            sampler = self.select(scalar_ctx)
            ctx.absorb(i, counters)
            key = id(sampler)
            if key not in positions:
                positions[key] = len(samplers)
                samplers.append(sampler)
            assignment[i] = positions[key]
        return samplers, assignment


class CostModelSelector(SamplerSelector):
    """Per-node selection by the first-order cost model (the paper's policy).

    The selection itself costs two uncoalesced reads (the preprocessed
    ``h_MAX`` / ``h_SUM`` entries feeding the estimation helpers) plus a few
    arithmetic operations, which are charged to the step's counters — the
    overhead that makes FlexiWalker marginally slower than a fixed kernel on
    tiny MetaPath runs (Table 2 discussion).
    """

    name = "cost_model"

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or CostModel()
        self._erjs = EnhancedRejectionSampler()
        self._ervs = EnhancedReservoirSampler()

    def select(self, ctx: StepContext) -> Sampler:
        # The h_MAX / h_SUM entries are small per-node arrays that stay cache
        # resident, so the reads behave like coalesced accesses.
        ctx.counters.coalesced_accesses += 2
        ctx.counters.weight_computations += 2
        if self.cost_model.prefer_rjs(ctx.bound_hint, ctx.sum_hint):
            return self._erjs
        return self._ervs

    def select_batch(self, ctx: BatchStepContext) -> tuple[list[Sampler], np.ndarray]:
        """Vectorised Eq. 11 over the whole frontier."""
        ctx.charge("coalesced_accesses", 2)
        ctx.charge("weight_computations", 2)
        bound, total = ctx.bound_hints, ctx.sum_hints
        if bound is None or total is None:
            return [self._erjs, self._ervs], np.ones(ctx.size, dtype=np.int64)
        # A missing hint is NaN, and every comparison with NaN is False.
        prefer = (bound > 0) & (total > 0) & (self.cost_model.edge_cost_ratio * bound < total)
        return [self._erjs, self._ervs], np.where(prefer, 0, 1)


class FixedSelector(SamplerSelector):
    """Always run the same kernel (the eRJS-only / eRVS-only ablations)."""

    def __init__(self, sampler: Sampler) -> None:
        self.sampler = sampler
        self.name = f"fixed_{sampler.name.lower()}"

    def select(self, ctx: StepContext) -> Sampler:
        return self.sampler

    def select_batch(self, ctx: BatchStepContext) -> tuple[list[Sampler], np.ndarray]:
        return [self.sampler], np.zeros(ctx.size, dtype=np.int64)


class RandomSelector(SamplerSelector):
    """Pick eRJS or eRVS uniformly at random (Fig. 13 baseline)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._erjs = EnhancedRejectionSampler()
        self._ervs = EnhancedReservoirSampler()

    def select(self, ctx: StepContext) -> Sampler:
        return self._erjs if self._rng.random() < 0.5 else self._ervs

    def select_batch(self, ctx: BatchStepContext) -> tuple[list[Sampler], np.ndarray]:
        """One coin flip per walker, in frontier order.

        Deterministic per seed within a mode, but the draw *interleaving*
        differs from the scalar engine's walker-major order, so the random
        policy is the one selector whose chosen kernels (and hence paths) are
        not bitwise identical across execution modes — acceptable for a
        sensitivity baseline whose whole point is arbitrary choice.
        """
        flips = self._rng.random(ctx.size)
        return [self._erjs, self._ervs], np.where(flips < 0.5, 0, 1)


class DegreeBasedSelector(SamplerSelector):
    """Reservoir below a degree threshold, rejection above it (Fig. 13 baseline).

    The paper's threshold is 1 000 neighbours; the benchmark harness passes a
    scaled-down threshold matching the scale-model graphs.
    """

    name = "degree_based"

    def __init__(self, threshold: int = 1000) -> None:
        if threshold < 1:
            raise RuntimeSelectionError("degree threshold must be at least 1")
        self.threshold = int(threshold)
        self._erjs = EnhancedRejectionSampler()
        self._ervs = EnhancedReservoirSampler()

    def select(self, ctx: StepContext) -> Sampler:
        ctx.counters.random_accesses += 1
        if ctx.degree >= self.threshold:
            return self._erjs
        return self._ervs

    def batch_rule(self) -> DegreeThresholdRule:
        """The batched form of :meth:`select` (served by the base class)."""
        return DegreeThresholdRule(
            threshold=self.threshold, above=self._erjs, below=self._ervs
        )
