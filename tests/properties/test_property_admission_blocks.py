"""Block admission picks exactly what walker-by-walker admission picks.

:meth:`ServiceScheduler._admit` takes whole runs of one tenant's
consecutive picks at once.  The reference below is the walker-by-walker
loop it replaced — one ``min`` over the backlogged tenants per admitted
walker — run on an identical scheduler over identical traffic: the
admissions log, every tenant's virtual time, the scheduler's virtual clock
and every session's walks must come out the same, for both fairness
policies, with and without a binding in-flight budget, SLO submissions
and several tenants backlogged at once.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.service import DeviceFleet, ServiceScheduler, SubmitOptions, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
GRAPH = barabasi_albert_graph(40, 3, seed=5, name="admission-test")
GRAPH = GRAPH.with_weights(uniform_weights(GRAPH, seed=5))
CONFIG = FlexiWalkerConfig(device=DEVICE, seed=3)


class WalkerByWalker(ServiceScheduler):
    """The reference policy: one pick per admitted walker."""

    def _admit(self) -> None:
        if not self._queued:
            return
        budget = (
            None
            if self.max_inflight_walkers == 0
            else self.max_inflight_walkers - self._inflight
        )
        admitted = []

        def room() -> bool:
            return budget is None or budget - len(admitted) > 0

        while self._slo and room():
            p = self._slo.popleft()
            p.tenant.slo_admitted += 1
            admitted.append(p)
        while room():
            backlogged = [t for t in self._tenants.values() if t.queue]
            if not backlogged:
                break
            if self.fairness == "fifo":
                tenant = min(backlogged, key=lambda t: t.queue[0].seq)
            else:
                tenant = min(backlogged, key=lambda t: (t.vtime, t.name))
                tenant.vtime = max(tenant.vtime, self._vclock)
                self._vclock = tenant.vtime
                tenant.vtime += 1.0 / tenant.weight
            admitted.append(tenant.queue.popleft())
        if not admitted:
            return
        if self.record_admissions:
            self.admissions.extend((self._tick, p.tenant.name) for p in admitted)
        by_group: dict = {}
        for p in admitted:
            by_group.setdefault(p.entry.group, []).append(p)
        for group, batch in by_group.items():
            self._apply_admission(group, batch)


traffic = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # tenant
        st.integers(min_value=1, max_value=9),   # walkers
        st.booleans(),                           # SLO lane
        st.integers(min_value=0, max_value=3),   # ticks before the next one
    ),
    min_size=1,
    max_size=14,
)


def run(cls, fairness, budget, weights, requests):
    service = WalkService(GRAPH, fleet=DeviceFleet(DEVICE))
    scheduler = cls(service, max_inflight_walkers=budget, fairness=fairness,
                    record_admissions=True)
    names = [f"t{i}" for i in range(len(weights))]
    for name, weight in zip(names, weights, strict=True):
        scheduler.register_tenant(name, weight=float(weight))
    # Two tenants share a group (same spec and config), others get their own.
    sessions = [
        scheduler.session(DeepWalkSpec(), dataclasses.replace(CONFIG, seed=3 + i // 2),
                          tenant=name)
        for i, name in enumerate(names)
    ]
    qid = 0
    for tenant, walkers, slo, gap in requests:
        tenant %= len(names)
        queries = [WalkQuery(qid + j, (qid + j) % GRAPH.num_nodes, 2 + (qid + j) % 4)
                   for j in range(walkers)]
        qid += walkers
        sessions[tenant].submit(queries, options=SubmitOptions(
            priority=int(slo), block_on_full=True))
        for _ in range(gap):
            scheduler.tick()
    scheduler.run_until_idle(max_ticks=2000)
    vtimes = {name: t.vtime for name, t in scheduler._tenants.items()}
    walks = [s.collect().paths if s.completed else [] for s in sessions]
    return scheduler.admissions, vtimes, scheduler._vclock, walks


@settings(max_examples=40, deadline=None)
@given(
    fairness=st.sampled_from(["wrr", "fifo"]),
    budget=st.sampled_from([0, 3, 7, 16]),
    weights=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4),
    requests=traffic,
)
def test_block_admission_matches_walker_by_walker(fairness, budget, weights, requests):
    assert run(ServiceScheduler, fairness, budget, weights, requests) == run(
        WalkerByWalker, fairness, budget, weights, requests
    )
