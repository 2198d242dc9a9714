"""Analytic cost model converting *measured* operation counts to seconds.

The simulator executes the paper's algorithms for real — fill-ins, frontier
sizes, dependency levels and flops are all data-dependent quantities computed
from the actual matrix.  This module owns the *only* place where those
counts become simulated seconds, so every constant that shapes an experiment
is listed and documented here.

**Scaled calibration.**  The repository runs the paper's experiments on
scaled-down instances (``n ~ 4 sqrt(n_paper)``, see the workload registry),
which shrinks traversal/flop work quadratically but leaves structural
quantities (levels, launches, chunk counts) roughly linear.  The constants
below are therefore calibrated *at the scaled size* so that the relative
phase magnitudes match the paper's at full size — e.g. launch overheads are
scaled down with the workload so per-level overheads keep their paper-scale
share.  Absolute simulated seconds are not comparable to the paper's
wall-clock numbers and are not meant to be; shapes and ratios are (see
EXPERIMENTS.md).

Calibration targets (shapes from the paper, §4):

* Fig. 4 — end-to-end speedup of the out-of-core GPU pipeline over the
  modified GLU 3.0 baseline spans ~1.1x (sparsest, nnz/n = 3.9) to ~33x
  (densest, nnz/n = 111), growing with density.  This emerges from
  :meth:`CostModel.warp_utilization`: irregular traversal keeps a warp's 32
  lanes busy only when rows are dense enough, while the CPU baseline is
  insensitive to density.
* Fig. 5 / Fig. 6 / Table 3 — unified-memory runs lose 19-65 % (with
  prefetch) / 33-86 % (without) of their time to page-fault servicing, worse
  for sparser matrices.  Fault counts come from the real pager
  (:mod:`repro.gpusim.unified`); this module prices a fault group.
* Fig. 7 — dynamic parallelism assignment recovers up to ~10 % by raising
  block occupancy on low-frontier chunks; occupancy enters through
  ``block_occupancy``.
* Fig. 8 — switching the numeric working matrix to sorted CSC raises the
  concurrent-column cap from ``M = L /(n x sizeof(dtype))`` to ``TB_max`` and
  removes the dense pack/unpack traffic, at the price of a binary-search
  factor per access; net ~2.9-3.3x for Table 4 scale matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .device import DeviceSpec, HostSpec, V100, XEON_E5_2680

#: one work count, or an array of them for formulas priced elementwise
_Counts = TypeVar("_Counts", float, np.ndarray)


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the performance model (all times in seconds)."""

    # ------------------------------------------------------------------
    # Kernel launches (§3.3: dynamic parallelism exists to avoid the host
    # round-trip; the two constants implement that gap).
    host_launch_overhead: float = 1.0e-7
    device_launch_overhead: float = 1.0e-8

    # ------------------------------------------------------------------
    # PCIe transfers (explicit out-of-core path).  V100 machines of the
    # paper's era ran PCIe 3.0 x16 ~ 12 GB/s effective.
    pcie_bandwidth: float = 12.0e9
    dma_latency: float = 2.0e-6

    # Effective device-memory bandwidth of the dense-format column
    # scatter/gather streams (the dense format's Fig. 8 penalty: every
    # processed column moves 2 x n x sizeof(dtype) bytes regardless of its
    # sparsity).
    hbm_bandwidth: float = 620.0e9

    # ------------------------------------------------------------------
    # GPU traversal (symbolic factorization, levelization): edges/s when all
    # TB_max blocks are busy and every warp lane is useful.
    gpu_traversal_edges_per_s: float = 2.7e9
    # Degree at which a traversal warp saturates, and the sub-linear exponent
    # shaping utilization below saturation (calibrated to Fig. 4's range).
    warp_saturation_degree: float = 128.0
    warp_utilization_exponent: float = 1.15
    # Utilization floor: even degree-1 rows keep some lanes busy via
    # frontier-level parallelism.
    warp_utilization_floor: float = 0.008

    # ------------------------------------------------------------------
    # GPU numeric factorization: FLOP/s at full occupancy (sparse kernels
    # reach a few percent of the 14 TFLOP/s peak).
    gpu_numeric_flops: float = 2.4e10
    # Extra work factor per CSC binary-search probe (Alg. 6): each searched
    # access costs ~log2(col_nnz) compare steps on top of the update flops.
    binary_search_step_cost: float = 0.08

    # ------------------------------------------------------------------
    # Supernodal panel kernels (blocked numeric path): FLOP/s at full
    # occupancy for the dense-block panel-factor / panel-panel-update
    # kernels.  Columns amalgamated into a panel share one structure, so
    # the kernels run coalesced BLAS-3-style loops with no per-entry
    # binary searches — an order of magnitude above the scattered
    # per-column rate (~10% of peak vs ~1%; the SuperLU-lineage gap the
    # paper's §5 cites as the reason supernodal solvers win on FEM
    # matrices).  Occupancy comes from dense *tiles*, not columns: a
    # panel of any width decomposes into ``ceil(elems / panel_tile_elems)``
    # independent thread-block tiles.
    gpu_panel_flops: float = 2.4e11
    # Elements of panel storage one thread-block tile covers (32x32).
    panel_tile_elems: int = 1024
    # Tiles in flight at which the panel kernels saturate the device.
    # Dense tiles are compute-bound with deep ILP (every lane does an FMA
    # per cycle), so a handful of resident tiles fills the SM pipelines —
    # unlike the latency-bound scattered kernels, which idle on memory
    # and need the full ``max_concurrent_blocks`` complement to hide it.
    # Calibrated at the registry's scaled sizes (see module docstring):
    # panels there are narrow, and without early saturation the blocked
    # path would be *under*-occupied at exactly the scale the experiments
    # run — inverting the §5 FEM-vs-circuit split the model exists to
    # show.
    panel_saturation_tiles: int = 8

    # ------------------------------------------------------------------
    # CPU (modified GLU 3.0 baseline): per-thread traversal and flop rates,
    # with a parallel-efficiency knee — symbolic traversal is memory-bound
    # pointer chasing, so per-thread rates are far below clock speed.
    cpu_traversal_edges_per_s_per_thread: float = 1.56e6
    cpu_numeric_flops_per_thread: float = 2.0e7
    cpu_parallel_efficiency: float = 0.55
    cpu_serial_node_ns: float = 9.0  # per node for serial graph passes

    # ------------------------------------------------------------------
    # Unified memory (Table 3): page granularity of the Volta UM system and
    # the service cost of one *fault group* (several faults batched by the
    # driver).  Prefetched bytes move at PCIe bandwidth without faulting.
    um_page_bytes: int = 64 * 1024
    um_fault_group_pages: int = 2
    um_fault_group_service: float = 42.0e-6
    um_prefetch_group_pages: int = 64  # prefetch batches are larger
    # Fraction of *predictable* pages the prefetch stream lands before the
    # kernel touches them; the remainder still fault (the kernel races ahead
    # of cudaMemPrefetchAsync).  Calibrated to Table 3's ~3.5-4x fault-group
    # reduction with prefetching.
    um_prefetch_coverage: float = 0.78
    # cudaMemPrefetchAsync runs on a copy stream concurrent with kernels;
    # only this fraction of the prefetch transfer time is exposed on the
    # critical path (the rest overlaps compute).
    um_prefetch_exposed: float = 0.25
    # Throughput derating for kernels reading UM-resident pages (TLB /
    # replayed-instruction overhead observed even when pages are resident).
    um_compute_derate: float = 0.88

    # ------------------------------------------------------------------
    # Derived helpers ---------------------------------------------------
    def warp_utilization(self, avg_degree: float) -> float:
        """Fraction of warp lanes doing useful traversal work.

        Rows denser than :attr:`warp_saturation_degree` saturate the warp;
        below that, utilization falls off polynomially.  This is the single
        lever that reproduces the paper's "GPUs become more efficient as
        computations get (relatively) dense" observation (Fig. 4).
        """
        if avg_degree <= 0:
            return self.warp_utilization_floor
        u = min(1.0, (avg_degree / self.warp_saturation_degree)) ** (
            self.warp_utilization_exponent
        )
        return max(self.warp_utilization_floor, u)

    def block_occupancy(
        self, blocks_in_flight: int, device: DeviceSpec
    ) -> float:
        """Fraction of the device's concurrent-block slots that are busy."""
        if blocks_in_flight <= 0:
            return 0.0
        return min(1.0, blocks_in_flight / device.max_concurrent_blocks)

    # -- time formulas -----------------------------------------------------
    def gpu_traversal_seconds(
        self,
        edges: int,
        avg_degree: float,
        blocks_in_flight: int,
        device: DeviceSpec,
    ) -> float:
        """Compute time for a traversal kernel scanning ``edges`` edges."""
        eff = self.warp_utilization(avg_degree) * self.block_occupancy(
            blocks_in_flight, device
        )
        eff = max(eff, 1e-6)
        return edges / (self.gpu_traversal_edges_per_s * eff)

    def gpu_numeric_seconds(
        self,
        flops: _Counts,
        blocks_in_flight: _Counts,
        concurrency_cap: int,
        device: DeviceSpec,
        search_steps: _Counts | int = 0,
    ) -> _Counts:
        """Compute time for a numeric kernel performing ``flops`` updates.

        ``concurrency_cap`` is ``min(TB_max, M)`` — the §3.4 parallelism
        bound (``M`` applies only to the dense-format kernel).
        ``search_steps`` charges Algorithm 6's binary-search probes.
        Given arrays of launches it returns their seconds elementwise,
        each bitwise what the scalar call gives (a NumPy float, which a
        caller converts with ``float`` before booking it).
        """
        tb_max = device.max_concurrent_blocks
        conc = np.minimum(
            np.minimum(blocks_in_flight, concurrency_cap), tb_max
        )
        occ = np.maximum(conc / tb_max, 1e-6)
        work = flops + self.binary_search_step_cost * search_steps
        return work / (self.gpu_numeric_flops * occ)

    def gpu_panel_seconds(
        self, flops: int, tiles: int, device: DeviceSpec
    ) -> float:
        """Compute time for a dense-block supernodal panel kernel.

        ``tiles`` is the number of independent thread-block tiles the
        wave's panel storage decomposes into (``panel_tile_elems`` each);
        it plays the occupancy role ``blocks_in_flight`` plays for the
        scattered kernel, but saturates at
        :attr:`panel_saturation_tiles` (dense tiles are compute-bound,
        not latency-bound).  No binary-search term: panel members share
        one structure resolved once per panel, not once per access.
        """
        occ = max(min(1.0, tiles / self.panel_saturation_tiles), 1e-6)
        return flops / (self.gpu_panel_flops * occ)

    def transfer_seconds(self, nbytes: int) -> float:
        """One explicit host<->device DMA of ``nbytes``."""
        return self.dma_latency + nbytes / self.pcie_bandwidth

    def hbm_seconds(self, nbytes: _Counts) -> _Counts:
        """On-device memory traffic (dense column pack/unpack, Fig. 8);
        elementwise over an array of byte counts."""
        return nbytes / self.hbm_bandwidth

    def cpu_parallel_seconds(
        self, ops: int, host: HostSpec, rate_per_thread: float
    ) -> float:
        """Multithreaded CPU time for ``ops`` at ``rate_per_thread`` ops/s."""
        threads = host.hw_threads
        return ops / (rate_per_thread * threads * self.cpu_parallel_efficiency)

    def cpu_traversal_seconds(self, edges: int, host: HostSpec) -> float:
        return self.cpu_parallel_seconds(
            edges, host, self.cpu_traversal_edges_per_s_per_thread
        )

    def cpu_numeric_seconds(self, flops: int, host: HostSpec) -> float:
        return self.cpu_parallel_seconds(
            flops, host, self.cpu_numeric_flops_per_thread
        )

    def cpu_serial_seconds(self, nodes_plus_edges: int) -> float:
        """Single-thread graph pass (the serial levelization baseline)."""
        return nodes_plus_edges * self.cpu_serial_node_ns * 1e-9

    def launch_seconds(self, *, from_device: bool) -> float:
        return (
            self.device_launch_overhead
            if from_device
            else self.host_launch_overhead
        )

    def pages_of(self, nbytes: int) -> int:
        """Number of UM pages covering ``nbytes``."""
        return int(math.ceil(nbytes / self.um_page_bytes))


#: Default model instance used across the library.
DEFAULT_COST_MODEL = CostModel()

#: Default hardware pairing (paper §4.1).
DEFAULT_DEVICE = V100
DEFAULT_HOST = XEON_E5_2680
