"""The library's memory over one batch wave, traced with ``tracemalloc``.

One 50,000-walker x 20-step DeepWalk wave on a weighted 100k-node BA graph
(the ``deepwalk-ba`` benchmark's shape), submitted as 2,500 tickets of 20
walks, streamed and collected.  The query lists are built before tracing
starts; the set-up (graph, service, a warm-up wave) is traced but its peak
is not: the peak is reset when the wave starts.  Traced memory is close to
deterministic for a seed, so the ceilings can be tight.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro import DeepWalkSpec, FlexiWalkerConfig, WalkQuery, WalkService
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights

#: Ceiling on the traced total after the wave, with the service, the open
#: session and the collected result alive.  Measured 45.6 MB with the
#: ledger sized at launch and a result that views it; 62.0 MB before.
HELD_CEILING_MB = 50.0
#: Ceiling on the traced peak during the wave.  Measured 69.3 MB with the
#: ledger's rows allocated at the first settle and each superstep's counter
#: matrix released before the next; 93.0 MB before.
PEAK_CEILING_MB = 75.0

NODES, WALKERS, LENGTH, TICKET = 100_000, 50_000, 20, 20


def test_a_wave_holds_and_peaks_under_the_ceilings():
    rng = np.random.default_rng(7)
    starts = rng.integers(0, NODES, WALKERS + 1_000).tolist()
    warmup = [WalkQuery(i, s, LENGTH) for i, s in enumerate(starts[WALKERS:])]
    queries = [WalkQuery(i, s, LENGTH) for i, s in enumerate(starts[:WALKERS])]
    tickets = [queries[lo : lo + TICKET] for lo in range(0, WALKERS, TICKET)]
    config = FlexiWalkerConfig(seed=0)
    tracemalloc.start()
    try:
        graph = barabasi_albert_graph(NODES, 8, seed=7)
        service = WalkService(graph.with_weights(uniform_weights(graph, seed=7)))
        del graph
        warm = service.session(DeepWalkSpec(), config)
        warm.submit(warmup)
        warm.collect()
        warm.close()
        del warm
        gc.collect()
        tracemalloc.reset_peak()

        session = service.session(DeepWalkSpec(), config)
        for ticket in tickets:
            session.submit(ticket)
        completed = [chunk.query_ids for chunk in session.stream()]
        result = session.collect()
        held, peak = (b / 2**20 for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert sum(len(ids) for ids in completed) == len(result.paths) == WALKERS
    assert result.total_steps == WALKERS * LENGTH
    assert held <= HELD_CEILING_MB, f"{held:.1f} MB held after the wave"
    assert peak <= PEAK_CEILING_MB, f"{peak:.1f} MB traced peak during the wave"
