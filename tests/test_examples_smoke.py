"""Smoke tests for the runnable examples.

Each example is loaded from its file path and its ``main()`` is executed, so
a broken public API surface (the thing examples exercise) fails the suite.
Only the two fastest examples run here; the larger corpus-generation and
adaptation demos are exercised implicitly by the integration tests and the
benchmark suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"examples_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_contains_all_documented_scripts():
    expected = {
        "quickstart.py",
        "service_streaming.py",
        "node2vec_embedding_corpus.py",
        "metapath_heterogeneous.py",
        "custom_workload_adaptation.py",
        "load_generator.py",
        "streaming_updates.py",
    }
    assert expected <= {p.name for p in EXAMPLES_DIR.glob("*.py")}


def test_quickstart_example_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "simulated kernel time" in out
    assert "selection ratio" in out


def test_service_streaming_example_runs(capsys):
    load_example("service_streaming").main()
    out = capsys.readouterr().out
    assert "negotiated plan" in out
    assert "streamed" in out
    assert "transition cache shared: True" in out


def test_metapath_example_runs(capsys):
    load_example("metapath_heterogeneous").main()
    out = capsys.readouterr().out
    assert "walks launched" in out


def test_load_generator_example_runs(capsys, tmp_path):
    import json

    artifact = tmp_path / "load_generator.json"
    load_example("load_generator").main(
        ["--sessions", "12", "--queries", "4", "--output", str(artifact)]
    )
    out = capsys.readouterr().out
    assert "ticket latency" in out
    assert "fused into" in out
    metrics = json.loads(artifact.read_text())
    assert metrics["sessions"] == 12
    assert metrics["walks"] == 12 * 4
    assert metrics["p99_latency_ticks"] >= metrics["p50_latency_ticks"] > 0
    assert metrics["aggregate_steps_per_s"] > 0
    assert sum(t["completed"] for t in metrics["tenants"].values()) == 48


def test_streaming_updates_example_runs(capsys):
    load_example("streaming_updates").main()
    out = capsys.readouterr().out
    assert "graph version 2" in out
    assert "frozen snapshot: True" in out
    assert "bit-identical to fresh build: True" in out


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "service_streaming",
        "node2vec_embedding_corpus",
        "metapath_heterogeneous",
        "custom_workload_adaptation",
        "load_generator",
        "streaming_updates",
    ],
)
def test_every_example_is_importable(name):
    module = load_example(name)
    assert callable(module.main)
