"""The legacy spellings warn (and still work through the service shim)."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.core.config import FlexiWalkerConfig
from repro.core.flexiwalker import FlexiWalker
from repro.errors import ServiceError
from repro.gpusim.device import A6000
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.state import make_queries

DEVICE = dataclasses.replace(A6000, parallel_lanes=8)
CONFIG = FlexiWalkerConfig(device=DEVICE)


class TestDeprecatedSpellings:
    def test_construction_does_not_warn(self, service_graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            FlexiWalker(service_graph, DeepWalkSpec(), CONFIG)

    def test_run_warns_and_points_to_the_service(self, service_graph):
        walker = FlexiWalker(service_graph, DeepWalkSpec(), CONFIG)
        with pytest.warns(DeprecationWarning, match="WalkService"):
            walker.run(walk_length=3, num_queries=4)

    def test_run_queries_warns(self, service_graph):
        walker = FlexiWalker(service_graph, DeepWalkSpec(), CONFIG)
        queries = make_queries(service_graph.num_nodes, walk_length=3, num_queries=4)
        with pytest.warns(DeprecationWarning, match="MIGRATION.md"):
            walker.run_queries(queries)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
class TestLegacyStatefulness:
    def test_engine_mutations_affect_subsequent_runs(self, service_graph):
        # Pre-service facade semantics: walker.engine IS the executing
        # engine, so knobs mutated on it (the baseline step-overhead
        # pattern) must keep affecting run() calls through the shim.
        walker = FlexiWalker(service_graph, DeepWalkSpec(), CONFIG)
        calls = []
        walker.engine.step_overhead = lambda ctx, sampler: calls.append(sampler.name)
        result = walker.run(walk_length=3, num_queries=4)
        assert len(calls) == result.total_steps > 0

    def test_random_policy_keeps_drawing_across_runs(self, service_graph):
        # The pre-service facade shared one RandomSelector across run()
        # calls, so repeated runs drew fresh selection coin flips; the shim
        # threads its selector into every session to preserve that.
        config = dataclasses.replace(CONFIG, selection="random")
        from repro.walks.node2vec import Node2VecSpec

        walker = FlexiWalker(service_graph, Node2VecSpec(), config)
        first = walker.run(walk_length=6, num_queries=30)
        second = walker.run(walk_length=6, num_queries=30)
        assert first.paths != second.paths or first.sampler_usage != second.sampler_usage


class TestSummaryWrapper:
    """``WalkRunResult.summary()``, which replaced the removed ``summarize_run``."""

    def test_summary_reports_key_metrics(self, service_graph):
        walker = FlexiWalker(service_graph, DeepWalkSpec(), CONFIG)
        with pytest.warns(DeprecationWarning):
            result = walker.run(walk_length=3, num_queries=5)
        summary = result.summary()
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
