"""GPU levelization: Kahn's algorithm with dynamic parallelism (Algorithm 5).

Previous LU systems ran levelization on the CPU; the paper maps it to the
GPU as a wave-synchronous Kahn's algorithm where, crucially, the per-wave
``update`` and ``cons_queue`` kernels are *child kernels launched from the
device* (CUDA dynamic parallelism), eliminating per-wave host round-trips
and paying the much smaller device-side launch overhead.

Three executors are provided for the paper's comparison space:

* :func:`levelize_gpu_dynamic` — Algorithm 5 (one host launch for ``Topo``,
  two device launches per level);
* :func:`levelize_gpu_hostlaunch` — the Saxena-et-al.-style baseline
  (§3.3's related work [37]): identical waves, but every kernel is launched
  from the host with a host synchronization per wave;
* :func:`levelize_cpu_serial` — the sequential CPU pass of previous LU
  works, O(N + M).

All three produce the identical :class:`~repro.graph.LevelSchedule` (they
share the verified Kahn implementation) and differ only in charged time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpusim import GPU
from ..graph import DependencyGraph, LevelSchedule, kahn_levels


@dataclass
class LevelizeResult:
    schedule: LevelSchedule
    sim_seconds: float
    kernel_launches: int
    child_kernel_launches: int

    @property
    def num_levels(self) -> int:
        return self.schedule.num_levels


def _wave_workloads(graph: DependencyGraph, schedule: LevelSchedule
                    ) -> list[tuple[int, int]]:
    """Per level: (#nodes in wave, #edges leaving the wave)."""
    out = []
    out_deg = np.diff(graph.indptr)
    for wave in schedule.levels:
        out.append((len(wave), int(out_deg[wave].sum())))
    return out


def levelize_gpu_dynamic(gpu: GPU, graph: DependencyGraph) -> LevelizeResult:
    """Algorithm 5: device-resident Kahn's with dynamic parallelism."""
    return _levelize_gpu(gpu, graph, from_device=True)


def levelize_gpu_hostlaunch(
    gpu: GPU, graph: DependencyGraph
) -> LevelizeResult:
    """Same waves, host-launched kernels + per-wave host sync ([37] style)."""
    return _levelize_gpu(gpu, graph, from_device=False)


def _levelize_gpu(gpu: GPU, graph: DependencyGraph, *, from_device: bool
                  ) -> LevelizeResult:
    ledger = gpu.ledger
    t0 = ledger.total_seconds
    l0 = ledger.get_count("kernel_launches")
    c0 = ledger.get_count("child_kernel_launches")
    with ledger.phase("levelize"):
        schedule = kahn_levels(graph)
        waves = _wave_workloads(graph, schedule)
        n, m = graph.n, graph.num_edges

        # cons_graph: build the device adjacency (line 14) — bandwidth pass
        gpu.launch_utility(n + m)
        # cnt_indegree (line 15): edge-parallel atomic-increment pass
        gpu.launch_utility(m)
        # Topo parent kernel (line 16) — host launched
        gpu.launch_utility(1)
        # initial cons_queue (line 4) — child of Topo under dynamic
        # parallelism, host-launched otherwise
        gpu.launch_utility(n, from_device=from_device)
        for wave_nodes, wave_edges in waves:
            # update<<< >>>: relax the wave's out-edges, one thread per edge
            gpu.launch_utility(max(1, wave_edges), from_device=from_device)
            # cons_queue<<< >>>: compact the next frontier (line 9)
            gpu.launch_utility(max(1, wave_nodes), from_device=from_device)
            if not from_device:
                # host-driven loop needs the queue size back each wave
                gpu.d2h(8)
        # level table back to the host scheduler
        gpu.d2h(n * 4)
    return LevelizeResult(
        schedule=schedule,
        sim_seconds=ledger.total_seconds - t0,
        kernel_launches=ledger.get_count("kernel_launches") - l0,
        child_kernel_launches=ledger.get_count("child_kernel_launches") - c0,
    )


def levelize_cpu_serial(gpu: GPU, graph: DependencyGraph) -> LevelizeResult:
    """Sequential CPU levelization (the pre-paper status quo)."""
    ledger = gpu.ledger
    t0 = ledger.total_seconds
    with ledger.phase("levelize"):
        schedule = kahn_levels(graph)
        ledger.charge(
            gpu.cost.cpu_serial_seconds(graph.n + graph.num_edges),
            "cpu_compute",
        )
        # schedule must then be shipped to the device for numeric
        gpu.h2d(graph.n * 4)
    return LevelizeResult(
        schedule=schedule,
        sim_seconds=ledger.total_seconds - t0,
        kernel_launches=0,
        child_kernel_launches=0,
    )
