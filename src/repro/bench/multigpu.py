"""Multi-GPU scaling benchmark: strong/weak sweep over a device pool.

Runs :func:`repro.core.multi_gpu_endtoend` for a sweep of device counts
on one registry workload and reports, per point:

* makespan and speedup vs. the single-device point (strong mode), or
  time-per-filled-nonzero grind and its efficiency vs. the base size
  (weak mode, where the instance grows with the pool);
* load balance (min/max device busy seconds), peer traffic split into
  the reshard all-to-all and the per-level halo exchange, and summed
  receiver stalls;
* a results-identical flag: factors, fill pattern and pivot sequence
  must match the single-device :class:`~repro.core.pipeline.EndToEndLU`
  run bitwise (sharding may only move time, never results).

``repro multigpu-bench`` prints the table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core import EndToEndLU, SolverConfig, multi_gpu_endtoend
from ..sparse import CSRMatrix
from ..workloads.registry import by_abbr
from .gates import factor_mismatches

__all__ = [
    "ScalingPoint",
    "MultiGpuBenchReport",
    "run_multigpu_bench",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One device-count configuration of the sweep."""

    num_devices: int
    n: int
    filled_nnz: int
    makespan_seconds: float
    #: vs. the sweep's single-device point (strong: same instance;
    #: weak: grind ratio — see :meth:`MultiGpuBenchReport.format`)
    speedup: float
    balance: float
    reshard_bytes: int
    halo_bytes: int
    halo_batches: int
    halo_wait_seconds: float
    results_identical: bool

    @property
    def grind_seconds_per_knnz(self) -> float:
        """Makespan per thousand filled nonzeros (weak-mode metric)."""
        return self.makespan_seconds / max(self.filled_nnz, 1) * 1e3


@dataclass(frozen=True)
class MultiGpuBenchReport:
    """The full sweep on one workload."""

    abbr: str
    base_n: int
    nnz: int
    link: str
    overlap: bool
    weak: bool
    points: tuple[ScalingPoint, ...]

    @property
    def all_identical(self) -> bool:
        return all(pt.results_identical for pt in self.points)

    def format(self) -> str:
        mode = "weak" if self.weak else "strong"
        gain = "eff" if self.weak else "speedup"
        lines = [
            f"multi-GPU {mode}-scaling sweep on {self.abbr} "
            f"(base n={self.base_n}, nnz={self.nnz}, link {self.link}, "
            f"overlap {'on' if self.overlap else 'off'})",
            f"{'devs':>4s} {'n':>6s} {'makespan ms':>11s} {gain:>7s} "
            f"{'balance':>7s} {'reshard B':>9s} {'halo B':>9s} "
            f"{'stall ms':>8s} {'identical':>9s}",
        ]
        for pt in self.points:
            lines.append(
                f"{pt.num_devices:>4d} {pt.n:>6d} "
                f"{pt.makespan_seconds * 1e3:>11.3f} {pt.speedup:>6.2f}x "
                f"{pt.balance:>7.2f} {pt.reshard_bytes:>9d} "
                f"{pt.halo_bytes:>9d} "
                f"{pt.halo_wait_seconds * 1e3:>8.3f} "
                f"{'yes' if pt.results_identical else 'NO':>9s}"
            )
        return "\n".join(lines)


def _instance(abbr: str, n: int) -> CSRMatrix:
    return dataclasses.replace(by_abbr(abbr), n_scaled=int(n)).generate()


def run_multigpu_bench(
    *,
    abbr: str = "RM",
    n: int | None = None,
    devices: tuple[int, ...] = (1, 2, 4, 8),
    link: str = "pcie3",
    overlap: bool = False,
    weak: bool = False,
    smoke: bool = True,
) -> MultiGpuBenchReport:
    """Run the device sweep and return the report.

    The default workload (RM, a dense-filling circuit pattern) is
    transfer-light relative to its numeric work: wide early levels give
    every device a slice of real work per level while the halo volume
    stays a small fraction of the factor bytes, which is where the
    cyclic level-aware sharding pays off (>1.5x makespan at 4 devices
    already at smoke size).
    """
    if n is None:
        n = 400 if smoke else 640
    base_n = int(n)
    cfg = SolverConfig()

    a_base = _instance(abbr, base_n)
    single_base = EndToEndLU(cfg).factorize(a_base)
    base_grind = None

    points = []
    for d in devices:
        if weak and d > 1:
            a = _instance(abbr, base_n * int(d))
            single = EndToEndLU(cfg).factorize(a)
        else:
            a = a_base
            single = single_base
        res = multi_gpu_endtoend(
            a, cfg, num_devices=int(d), link=link, overlap=overlap
        )
        grind = res.makespan_seconds / max(res.filled.nnz, 1)
        if base_grind is None:
            base_grind = (
                grind if weak else float(single_base.sim_seconds)
            )
        if weak:
            speedup = base_grind / grind
        else:
            speedup = base_grind / res.makespan_seconds
        points.append(
            ScalingPoint(
                num_devices=int(d),
                n=int(a.n_rows),
                filled_nnz=int(res.filled.nnz),
                makespan_seconds=float(res.makespan_seconds),
                speedup=float(speedup),
                balance=float(res.balance()),
                reshard_bytes=int(res.reshard_bytes),
                halo_bytes=int(res.halo_bytes),
                halo_batches=int(res.halo_batches),
                halo_wait_seconds=float(res.halo_wait_seconds),
                results_identical=factor_mismatches(single, res) == 0,
            )
        )
    return MultiGpuBenchReport(
        abbr=abbr,
        base_n=base_n,
        nnz=int(a_base.nnz),
        link=link,
        overlap=bool(overlap),
        weak=bool(weak),
        points=tuple(points),
    )
