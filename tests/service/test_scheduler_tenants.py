"""Per-tenant accounting follows each walker's own tenant.

``SubmitOptions(tenant=...)`` overrides the tenant a session was attached
under for one submission.  Admission, completion and the work the walkers
execute (``steps``, ``lane_time_ns``) must all land on that tenant, not on
the session's attach tenant.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import FlexiWalkerConfig
from repro.gpusim.device import A6000
from repro.service import DeviceFleet, SubmitOptions, WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import WalkQuery

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
CONFIG = FlexiWalkerConfig(device=DEVICE, seed=3)


def _queries(n, start=0, num_nodes=60):
    return [WalkQuery(start + i, (start + i) * 7 % num_nodes, 10) for i in range(n)]


def _solo_steps(graph, queries) -> int:
    session = WalkService(graph, fleet=DeviceFleet(DEVICE)).session(DeepWalkSpec(), CONFIG)
    session.submit(queries)
    return session.collect().total_steps


def test_submit_tenant_override_carries_its_steps(service_graph):
    scheduler = WalkService(service_graph, fleet=DeviceFleet(DEVICE)).scheduler()
    session = scheduler.session(DeepWalkSpec(), CONFIG, tenant="bulk")
    session.submit(_queries(5), options=SubmitOptions(tenant="app"))
    scheduler.run_until_idle(max_ticks=200)

    stats = scheduler.tenant_stats()
    app, bulk = stats["app"], stats["bulk"]
    assert (app.admitted, app.completed) == (5, 5)
    assert (bulk.admitted, bulk.completed) == (0, 0)
    assert app.steps == session.collect().total_steps > 0
    assert app.lane_time_ns > 0
    assert bulk.steps == 0 and bulk.lane_time_ns == 0.0


def test_mixed_tenants_in_one_superstep_split_exactly(service_graph):
    scheduler = WalkService(service_graph, fleet=DeviceFleet(DEVICE)).scheduler()
    session = scheduler.session(DeepWalkSpec(), CONFIG, tenant="bulk")
    mine = _queries(3)
    theirs = _queries(4, start=10)
    session.submit(mine)
    session.submit(theirs, options=SubmitOptions(tenant="app"))
    scheduler.run_until_idle(max_ticks=200)

    stats = scheduler.tenant_stats()
    assert stats["bulk"].completed == 3 and stats["app"].completed == 4
    assert stats["bulk"].steps == _solo_steps(service_graph, mine)
    assert stats["app"].steps == _solo_steps(service_graph, theirs)
    assert stats["bulk"].lane_time_ns > 0 and stats["app"].lane_time_ns > 0
