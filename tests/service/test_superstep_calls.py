"""A deterministic budget for the fixed cost of one scheduler superstep.

Runs a shrunken version of ``scripts/superstep_calls.py``: the closed-loop
``serve-churn`` pass (perfbench's inputs and set-up, a fixed clock advance
per tick) over 70 requests — about 700 ticks, one graph delta — counting the
calls made inside ``scheduler.tick()`` with ``sys.setprofile``.  Call counts
are free of host noise, so the ceiling can be tight: it guards the
per-superstep constant cost (hint lookups, counter folds, idle groups,
admission) against creeping back.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Ceiling on Python-level calls into ``src/repro`` per tick on this pass.
#: Measured 106.5 with complete hint tables, the matrix-backed CounterBatch
#: and retiring, compacting fusion groups; 134.3 before them.  104.6 on the
#: 300-request pass (102.9 on this one) once fusion groups advance through
#: the driver's ``FrontierLaunch``; the ceiling keeps a ~5% margin over it.
PROGRAM_CALLS_PER_TICK_CEILING = 110.0


@pytest.fixture(scope="module")
def counts():
    saved_path = list(sys.path)
    saved_modules = set(sys.modules)
    spec = importlib.util.spec_from_file_location(
        "superstep_calls", REPO_ROOT / "scripts" / "superstep_calls.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        return module.closed_loop_pass(requests=70, seed=4)
    finally:
        # The script puts perfbench's modules on the path; take them off.
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if origin.startswith(str(REPO_ROOT / "perfbench")) or name == spec.name:
                del sys.modules[name]


def test_program_calls_per_superstep_stay_under_the_ceiling(counts):
    assert counts.ticks > 500
    per_tick = counts.per_tick(counts.program)
    assert per_tick <= PROGRAM_CALLS_PER_TICK_CEILING, (
        f"{per_tick:.1f} src/repro calls per tick; top call sites: "
        f"{counts.sites.most_common(10)}"
    )


def test_superseded_groups_retire(counts):
    # The pass crosses one graph delta; the old version's group retires
    # once its sessions drain and detach.
    assert counts.fusion_groups == 1
