"""Removed entry points stay removed; their replacements: sessions, ``summary()``
and the submit surface."""

from __future__ import annotations

import dataclasses
import importlib
import warnings

import pytest

from repro.core.config import FlexiWalkerConfig
from repro.errors import ServiceError
from repro.gpusim.device import A6000
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
CONFIG = FlexiWalkerConfig(device=DEVICE)


def open_service(graph):
    from repro.service import DeviceFleet, WalkService

    return WalkService(graph, fleet=DeviceFleet(DEVICE))


class TestRemovedEntryPoints:
    """A run starts only at ``WalkService.session`` or ``WalkEngine.run``."""

    @pytest.mark.parametrize(
        ("module", "name"),
        [
            ("repro", "FlexiWalker"),
            ("repro.core", "FlexiWalker"),
            ("repro.gpusim", "MultiGPUExecutor"),
            ("repro.gpusim.multigpu", "MultiGPUResult"),
        ],
    )
    def test_removed_name_is_not_exported(self, module, name):
        imported = importlib.import_module(module)
        assert not hasattr(imported, name)

    def test_facade_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.flexiwalker")

    @pytest.mark.parametrize("keyword", ["backend", "selector", "engine"])
    def test_removed_session_keyword_is_rejected(self, service_graph, keyword):
        service = open_service(service_graph)
        with pytest.raises(TypeError, match=keyword):
            service.session(DeepWalkSpec(), CONFIG, **{keyword: None})
        assert service.describe()["sessions_created"] == 0

    def test_plan_negotiation_takes_no_backend(self, service_graph):
        from repro.service import negotiate_plan

        service = open_service(service_graph)
        with pytest.raises(TypeError, match="backend"):
            service.plan_for(DeepWalkSpec(), CONFIG, backend="batched")
        with pytest.raises(TypeError, match="backend"):
            negotiate_plan(service.capabilities(), CONFIG, backend="batched")
        with pytest.raises(TypeError, match="backend"):
            service.scheduler().session(DeepWalkSpec(), CONFIG, backend="batched")

    def test_session_run_emits_no_deprecation_warning(self, service_graph):
        queries = make_queries(service_graph.num_nodes, walk_length=3, num_queries=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = open_service(service_graph).session(DeepWalkSpec(), CONFIG)
            session.submit(queries)
            result = session.collect()
        assert result.total_steps > 0


class TestSessionIsolation:
    """Each session owns its engine and selector; nothing leaks between them.

    The removed facade shared one engine and one selector across its runs, so
    engine mutations and random-selection draws carried over.  Sessions do not.
    """

    def test_engine_mutation_stays_in_its_session(self, service_graph):
        service = open_service(service_graph)
        queries = make_queries(service_graph.num_nodes, walk_length=3, num_queries=4)
        calls = []
        hooked = service.session(DeepWalkSpec(), CONFIG)
        hooked.engine.step_overhead = lambda ctx, sampler: calls.append(sampler.name)
        hooked.submit(queries)
        result = hooked.collect()
        assert len(calls) == result.total_steps > 0

        plain = service.session(DeepWalkSpec(), CONFIG)
        assert plain.engine is not hooked.engine
        plain.submit(queries)
        plain.collect()
        assert len(calls) == result.total_steps

    def test_random_policy_sessions_draw_the_same_selections(self, service_graph):
        from repro.walks.node2vec import Node2VecSpec

        service = open_service(service_graph)
        config = dataclasses.replace(CONFIG, selection="random")
        queries = make_queries(service_graph.num_nodes, walk_length=6, num_queries=30)
        results = []
        for _ in range(2):
            session = service.session(Node2VecSpec(), config)
            assert session.config.selection == "random"
            session.submit(queries)
            results.append(session.collect())
        first, second = results
        assert first.paths == second.paths
        assert first.sampler_usage == second.sampler_usage
        assert len(first.sampler_usage) > 1


class TestSummaryWrapper:
    """``WalkRunResult.summary()``, which replaced the removed ``summarize_run``."""

    def test_summary_reports_key_metrics(self, service_graph):
        from repro.service import DeviceFleet, WalkService

        session = WalkService(service_graph, fleet=DeviceFleet(DEVICE)).session(
            DeepWalkSpec(), CONFIG
        )
        session.submit(make_queries(service_graph.num_nodes, walk_length=3, num_queries=5))
        summary = session.collect().summary()
        for key in (
            "num_queries",
            "time_ms",
            "total_steps",
            "selection_ratio",
            "avg_walk_length",
            "throughput_steps_per_s",
        ):
            assert key in summary
        assert summary["num_queries"] == 5


class TestSubmitOptionsShim:
    """The submit surface: one keyword-only SubmitOptions.

    The deprecated spellings (options passed positionally, loose scheduling
    keywords) were removed; passing options positionally is a TypeError.
    """

    def _session(self, service_graph):
        from repro.service import DeviceFleet, WalkService

        service = WalkService(service_graph, fleet=DeviceFleet(DEVICE))
        scheduler = service.scheduler()
        return scheduler.session(DeepWalkSpec(), CONFIG)

    def test_new_spelling_does_not_warn(self, service_graph):
        from repro.service import SubmitOptions

        session = self._session(service_graph)
        queries = make_queries(service_graph.num_nodes, walk_length=3, num_queries=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.submit(queries, options=SubmitOptions(priority=1))
        assert session.pending == 4

    def test_positional_options_raise(self, service_graph):
        from repro.service import SubmitOptions

        session = self._session(service_graph)
        queries = make_queries(service_graph.num_nodes, walk_length=3, num_queries=4)
        with pytest.raises(TypeError):
            session.submit(queries, SubmitOptions(priority=2))
        assert session.pending == 0

    def test_loose_keywords_raise(self, service_graph):
        session = self._session(service_graph)
        queries = make_queries(service_graph.num_nodes, walk_length=3, num_queries=4)
        with pytest.raises(TypeError):
            session.submit(queries, priority=1)
        with pytest.raises(TypeError, match="SubmitOptions"):
            session.submit(queries, options={"priority": 1})
        assert session.pending == 0

    def test_options_validate(self, service_graph):
        from repro.service import SubmitOptions

        with pytest.raises(ServiceError):
            SubmitOptions(priority=-1)
        with pytest.raises(ServiceError):
            SubmitOptions(deadline_steps=0)
