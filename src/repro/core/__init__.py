"""FlexiWalker public API.

:class:`~repro.core.flexiwalker.FlexiWalker` is the facade a downstream user
interacts with: give it a graph and a walk specification (the three-function
gather-move-update logic), and it compiles the workload, profiles the device,
wires the runtime selector to the optimised kernels and runs walk queries —
the complete pipeline of Fig. 6.
"""

from repro.core.config import FlexiWalkerConfig
from repro.core.flexiwalker import FlexiWalker

__all__ = [
    "FlexiWalker",
    "FlexiWalkerConfig",
]
