"""FlexiWalker pipeline configuration.

:class:`~repro.core.config.FlexiWalkerConfig` holds the knobs of the
pipeline of Fig. 6 (selection policy, seed, overheads, device count).  Every
run starts at :meth:`repro.service.WalkService.session`, which takes one, or
at :meth:`repro.runtime.engine.WalkEngine.run`.
"""

from repro.core.config import FlexiWalkerConfig

__all__ = [
    "FlexiWalkerConfig",
]
