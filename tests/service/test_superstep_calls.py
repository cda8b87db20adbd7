"""Deterministic budgets for the host work of supersteps and waves.

Runs shrunken versions of ``scripts/superstep_calls.py``, counting calls
with ``sys.setprofile``.  Call counts are free of host noise, so the
ceilings can be tight:

* the closed-loop ``serve-churn`` pass (perfbench's inputs and set-up, a
  fixed clock advance per tick) over 70 requests — about 700 ticks, one
  graph delta — counting the calls made inside ``scheduler.tick()``: it
  guards the per-superstep constant cost (hint lookups, counter folds, idle
  groups, admission) against creeping back;
* two standalone waves, of 1,000 and 8,000 walkers (the second above the
  simulated device's 4,032 lanes, so the queue schedule runs its rounds):
  the calls each extra walker adds guard the batch path (submit, settle,
  chunks, schedule, assembly) against per-walk Python work.
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
#: the driver's ``FrontierLaunch``; 104.2 once walk results stay columnar.
#: 70.6 on this pass (71.4 on the 300-request one) once a superstep's sole
#: kernel runs on the whole context, a rejection round charges its trials
#: in one add and a complete transition cache skips its fill check; 86.5
#: before.  The ceiling keeps a ~5% margin over it.
PROGRAM_CALLS_PER_TICK_CEILING = 74.1

#: Ceiling on all calls per tick (Python-level, builtins and numpy's C
#: functions) on this pass.  Measured 190.0 (192.0 on the 300-request pass)
#: after the changes above, 288.7 before; the ceiling keeps a ~5% margin.
CALLS_PER_TICK_CEILING = 199.5

#: Walker counts of the two standalone waves.  The second exceeds the
#: device's lane count: the vectorised queue schedule makes no call per
#: query, so it belongs inside the measured slope.
WAVE_WALKERS = (1_000, 8_000)
#: Ceilings on the calls one extra walker adds to a standalone wave.
#: Measured 0.070 ``src/repro`` Python calls and 0.204 C calls with columnar
#: results; 3.07 and 2.20 before (per-walker generator expressions in
#: ``validate_queries`` and the ticket, a ``dict.setdefault`` and a
#: ``list.append`` per finished walk).  What is left is the sampling
#: kernels' growth with the frontier (longer rejection tails, more edge
#: blocks), not per-walker work: no single call site grows by more than
#: 0.03 calls per walker.  The C ceiling leaves room for numpy releases
#: that make a few more C calls per kernel round.
PROGRAM_CALLS_PER_WALKER_CEILING = 0.1
C_CALLS_PER_WALKER_CEILING = 0.3
SITE_CALLS_PER_WALKER_CEILING = 0.1


def _run_script(function: str, **kwargs):
    """Load ``scripts/superstep_calls.py`` and return ``function(**kwargs)``."""
    saved_path = list(sys.path)
    saved_modules = set(sys.modules)
    spec = importlib.util.spec_from_file_location(
        "superstep_calls", REPO_ROOT / "scripts" / "superstep_calls.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        return getattr(module, function)(**kwargs)
    finally:
        # The script puts perfbench's modules on the path; take them off.
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if origin.startswith(str(REPO_ROOT / "perfbench")) or name == spec.name:
                del sys.modules[name]


@pytest.fixture(scope="module")
def counts():
    return _run_script("closed_loop_pass", requests=70, seed=4)


@pytest.fixture(scope="module")
def waves():
    return [_run_script("wave_calls", walkers=walkers) for walkers in WAVE_WALKERS]


def test_program_calls_per_superstep_stay_under_the_ceiling(counts):
    assert counts.ticks > 500
    per_tick = counts.per_tick(counts.program)
    assert per_tick <= PROGRAM_CALLS_PER_TICK_CEILING, (
        f"{per_tick:.1f} src/repro calls per tick; top call sites: "
        f"{counts.sites.most_common(10)}"
    )


def test_calls_per_superstep_stay_under_the_ceiling(counts):
    per_tick = counts.per_tick(counts.python + counts.c)
    assert per_tick <= CALLS_PER_TICK_CEILING, (
        f"{per_tick:.1f} calls per tick; top call sites: {counts.sites.most_common(10)}"
    )


def test_superseded_groups_retire(counts):
    # The pass crosses one graph delta; the old version's group retires
    # once its sessions drain and detach.
    assert counts.fusion_groups == 1


def test_a_wave_makes_no_per_walker_calls(waves):
    low, high = waves
    extra = WAVE_WALKERS[1] - WAVE_WALKERS[0]
    assert high.steps > low.steps  # both waves ran their walks
    program = (high.program - low.program) / extra
    c = (high.c - low.c) / extra
    growth = high.sites.copy()
    growth.subtract(low.sites)
    worst = growth.most_common(3)
    assert program < PROGRAM_CALLS_PER_WALKER_CEILING, (program, worst)
    assert c < C_CALLS_PER_WALKER_CEILING, (c, worst)
    assert worst[0][1] / extra < SITE_CALLS_PER_WALKER_CEILING, worst
