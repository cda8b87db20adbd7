"""GPU execution simulator.

This package is the substitute for the CUDA/A6000 hardware the paper runs on.
Sampling kernels report what they *did* — coalesced and random global-memory
transactions, random-number generations, warp reductions, rejection retries —
into :class:`~repro.gpusim.counters.CostCounters`; the device model
(:class:`~repro.gpusim.device.DeviceSpec`) converts those counts into
simulated execution time, and the executor
(:class:`~repro.gpusim.executor.KernelExecutor`) models how per-query work is
spread over thousands of GPU threads (including the dynamic query scheduling
of Section 5.3).  The multi-GPU and energy models build on the same numbers to
reproduce Fig. 15 and Fig. 16.
"""

from repro.gpusim.counters import CostCounters, CounterBatch
from repro.gpusim.device import DeviceSpec, A6000, EPYC_9124P
from repro.gpusim.memory import MemoryModel
from repro.gpusim.warp import WarpModel, WARP_SIZE
from repro.gpusim.executor import KernelExecutor, KernelResult
from repro.gpusim.multigpu import (
    PARTITION_POLICIES,
    partition_queries,
)
from repro.gpusim.energy import EnergyModel, EnergyReport

__all__ = [
    "CostCounters",
    "CounterBatch",
    "DeviceSpec",
    "A6000",
    "EPYC_9124P",
    "MemoryModel",
    "WarpModel",
    "WARP_SIZE",
    "KernelExecutor",
    "KernelResult",
    "PARTITION_POLICIES",
    "partition_queries",
    "EnergyModel",
    "EnergyReport",
]
