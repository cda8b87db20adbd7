"""Internal invariant linter: each repo invariant fails on a synthetic
violation, and the shipped ``src/repro`` tree passes clean."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import Severity, lint_paths, lint_source

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def rules_of(diagnostics):
    return {d.rule for d in diagnostics}


class TestUnseededRngInvariant:
    def test_unseeded_factory_fails(self):
        diags = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n",
            "src/repro/sampling/fresh.py",
        )
        assert "internal/unseeded-rng" in rules_of(diags)
        assert any(d.severity is Severity.ERROR for d in diags)

    def test_module_stream_fails(self):
        diags = lint_source(
            "import random\nx = random.random()\n",
            "src/repro/runtime/fresh.py",
        )
        assert "internal/unseeded-rng" in rules_of(diags)

    def test_seeded_factory_passes(self):
        diags = lint_source(
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            "src/repro/sampling/fresh.py",
        )
        assert diags == ()


class TestWallClockInvariant:
    def test_wall_clock_in_runtime_fails(self):
        diags = lint_source(
            "import time\nt0 = time.perf_counter()\n",
            "src/repro/runtime/fresh.py",
        )
        assert "internal/wall-clock" in rules_of(diags)

    def test_wall_clock_in_bench_is_exempt(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert lint_source(src, "src/repro/bench/fresh.py") == ()
        assert lint_source(src, "scripts/fresh.py") == ()


class TestCacheContractInvariant:
    def test_graph_cache_attr_outside_contract_fails(self):
        diags = lint_source(
            "def poke(graph):\n    graph._edge_key_cache = None\n",
            "src/repro/service/fresh.py",
        )
        assert "internal/cache-contract" in rules_of(diags)

    def test_membership_filter_outside_contract_fails(self):
        diags = lint_source(
            "def peek(graph):\n    return graph._edge_filter_cache\n",
            "src/repro/walks/fresh.py",
        )
        assert "internal/cache-contract" in rules_of(diags)
        assert lint_source(
            "def peek(graph):\n    return graph._edge_filter_cache\n", "src/repro/graph/csr.py"
        ) == ()

    def test_transition_cache_internals_outside_contract_fail(self):
        diags = lint_source(
            "def poke(cache):\n    return cache._weights\n",
            "src/repro/runtime/fresh.py",
        )
        assert "internal/cache-contract" in rules_of(diags)

    def test_owning_modules_are_allowed(self):
        src = "def repair(graph):\n    graph._edge_key_cache = None\n"
        assert lint_source(src, "src/repro/graph/invalidation.py") == ()
        assert lint_source(src, "src/repro/graph/csr.py") == ()


class TestEnvReadInvariant:
    @pytest.mark.parametrize(
        "src",
        [
            "import os\nlevel = os.environ.get('REPRO_BLOCK', '1')\n",
            "import os\nlevel = os.environ['REPRO_BLOCK']\n",
            "import os\nlevel = os.getenv('REPRO_BLOCK')\n",
            "import os\nos.putenv('REPRO_BLOCK', '1')\n",
            "from os import environ\nlevel = environ['REPRO_BLOCK']\n",
            "from os import getenv as env\nlevel = env('REPRO_BLOCK')\n",
        ],
    )
    def test_environment_access_fails(self, src):
        diags = lint_source(src, "src/repro/runtime/fresh.py")
        assert rules_of(diags) == {"internal/env-read"}
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR

    def test_other_os_members_pass(self):
        src = "import os\nhere = os.path.join('a', 'b')\ncpus = os.cpu_count()\n"
        assert lint_source(src, "src/repro/runtime/fresh.py") == ()


class TestLinterMechanics:
    def test_syntax_error_is_reported_not_raised(self):
        diags = lint_source("def broken(:\n", "src/repro/fresh.py")
        assert rules_of(diags) == {"internal/syntax-error"}

    def test_inline_suppression_honoured(self):
        diags = lint_source(
            "import time\nt0 = time.time()  # repro: ignore[internal/wall-clock]\n",
            "src/repro/runtime/fresh.py",
        )
        assert diags == ()

    def test_src_repro_passes_clean(self):
        diags = lint_paths([REPO_SRC])
        errors = [d for d in diags if d.severity >= Severity.ERROR]
        assert errors == [], [d.format() for d in errors]
