"""GPU execution-model simulator.

This package is the repository's substitute for the paper's CUDA / Tesla
V100 substrate (see DESIGN.md §2): a deterministic analytic simulator with

* :mod:`~repro.gpusim.device` — hardware descriptions (Table 1 V100, host
  Xeon, scaled variants for the scaled-down workloads);
* :mod:`~repro.gpusim.memory` — device memory allocator whose OOM failure is
  the condition motivating the out-of-core design;
* :mod:`~repro.gpusim.costmodel` — the documented constants converting real,
  measured work counts into simulated seconds;
* :mod:`~repro.gpusim.engine` — the :class:`GPU` facade algorithms program
  against (malloc / h2d / launch kernels), and the :class:`GPUProxy` base
  whose layers each see every op as one :class:`DeviceOp`;
* :mod:`~repro.gpusim.unified` — the unified-memory pager with fault groups
  and prefetching (the §4.3 baseline);
* :mod:`~repro.gpusim.ledger` — per-phase simulated-time accounting;
* :mod:`~repro.gpusim.faults` — seeded fault plans and the injector that
  replays them against any wrapped device (robustness testing).
"""

from .costmodel import CostModel, DEFAULT_COST_MODEL
from .device import (
    DeviceSpec,
    HostSpec,
    V100,
    XEON_E5_2680,
    scaled_device,
    scaled_host,
)
from .engine import GPU, DeviceOp, GPUProxy
from .faults import FaultEvent, FaultInjector, FaultPlan
from .interconnect import (
    NVLINK2,
    PCIE3,
    Interconnect,
    LinkSpec,
    P2PTransfer,
    PeerLink,
    link_preset,
)
from .ledger import TimeLedger
from .memory import Buffer, DeviceMemoryPool
from .trace import TraceEvent, TracingGPU
from .unified import UMRegion, UnifiedMemoryPager

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DeviceSpec",
    "HostSpec",
    "V100",
    "XEON_E5_2680",
    "scaled_device",
    "scaled_host",
    "GPU",
    "DeviceOp",
    "GPUProxy",
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "TimeLedger",
    "Interconnect",
    "LinkSpec",
    "PeerLink",
    "P2PTransfer",
    "PCIE3",
    "NVLINK2",
    "link_preset",
    "Buffer",
    "DeviceMemoryPool",
    "UMRegion",
    "UnifiedMemoryPager",
    "TracingGPU",
    "TraceEvent",
]
