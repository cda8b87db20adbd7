"""The first-order cost model of Flexi-Runtime (Eq. 9–11).

Both optimised kernels are memory-dominated, so their costs are modelled as
edge-weight memory accesses:

* eRVS scans the neighbour list once:
  ``Cost_RVS = EdgeCost_RVS · degree``                          (Eq. 9)
* eRJS probes random candidates until one is accepted; the expected number of
  probes is the proposal rectangle's area over its accepted area:
  ``Cost_RJS = EdgeCost_RJS · degree · max(w̃) / Σ w̃``          (Eq. 10)

Dividing the two yields the per-node selection rule (Eq. 11): prefer eRJS iff
``(EdgeCost_RJS / EdgeCost_RVS) · max(w̃) < Σ w̃``.  The only hardware
parameter is the cost ratio, profiled at start-up (Section 5.1); ``max`` and
``Σ`` come from the compiler-generated estimation helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeSelectionError


@dataclass(frozen=True)
class CostModel:
    """First-order memory-access cost model for the two optimised kernels.

    Attributes
    ----------
    edge_cost_ratio:
        ``EdgeCost_RJS / EdgeCost_RVS`` — what one expected rejection trial
        costs in units of one degree of reservoir scan, so that Eq. 11's
        break-even matches the measured kernels.  Calibrated per workload
        and graph by :func:`~repro.runtime.profiler.profile_edge_costs`: on
        the A6000 preset, 4.80 for perfbench's DeepWalk on a 100k-node BA
        graph, 4.05 for its Node2Vec on a 2^15-node RMAT graph and 4.05 for
        DeepWalk on a 20k-node BA graph (seed 7); 0.6–33 for Node2Vec on
        the YT / EU scale models of Fig. 11.  The default of 8 is what a
        selector built without a profile uses.
    """

    edge_cost_ratio: float = 8.0

    def __post_init__(self) -> None:
        if self.edge_cost_ratio <= 0:
            raise RuntimeSelectionError("edge cost ratio must be positive")

    # ------------------------------------------------------------------ #
    def cost_rvs(self, degree: int) -> float:
        """Relative cost of eRVS on a node of the given degree (Eq. 9)."""
        return float(max(degree, 0))

    def cost_rjs(self, degree: int, max_weight: float, sum_weight: float) -> float:
        """Relative cost of eRJS given the node's weight statistics (Eq. 10)."""
        if sum_weight <= 0 or max_weight <= 0:
            return float("inf")
        return self.edge_cost_ratio * degree * max_weight / sum_weight

    def prefer_rjs(self, max_weight: float | None, sum_weight: float | None) -> bool:
        """The per-node selection rule of Eq. 11.

        Missing estimates (``None``) disqualify rejection sampling — without
        a bound eRJS would have to fall back to a max reduction, at which
        point eRVS is never worse.
        """
        if max_weight is None or sum_weight is None:
            return False
        if max_weight <= 0 or sum_weight <= 0:
            return False
        return self.edge_cost_ratio * max_weight < sum_weight

    def expected_trials(self, degree: int, max_weight: float, sum_weight: float) -> float:
        """Expected rejection trials: proposal area over accepted area."""
        if sum_weight <= 0 or max_weight <= 0 or degree <= 0:
            return float("inf")
        return degree * max_weight / sum_weight
