"""Transfer/compute overlap benchmark: ``overlap`` on/off × chunk sizes.

Runs the end-to-end pipeline on a transfer-bound out-of-core instance
(dense FEM pattern, sized device memory halved so both the symbolic
output and the numeric segment window stream), once with the serial
charging and once through the :mod:`repro.streams` copy-engine pipeline,
for a sweep of out-of-core chunk sizes.  Reports, per configuration:

* serial vs overlap simulated seconds and the relative drop;
* copy-engine and compute utilization over the async regions' makespan;
* overlap efficiency (fraction of serial busy time hidden);
* a results-identical flag (fill structure and factors must match
  bitwise — overlap may only move time, never results);
* the overlap run's copy/compute op counts, stream and sync-region
  counts, and bytes moved (the ``overlap/e2e_CR2`` perf record).

``repro overlap-bench`` prints the table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core import EndToEndLU, SolverConfig
from ..streams.device import SyncReport
from ..symbolic import symbolic_fill_reference
from ..workloads.registry import by_abbr
from .gates import factor_mismatches

__all__ = ["OverlapRow", "OverlapReport", "run_overlap_bench"]


@dataclass(frozen=True)
class OverlapRow:
    """One (chunk size) configuration of the sweep."""

    chunk_rows: int
    serial_seconds: float
    overlap_seconds: float
    #: the overlap run's copy/compute engines over all its async regions
    engines: SyncReport
    sync_regions: int
    bytes_h2d: int
    bytes_d2h: int
    filled_nnz: int
    numeric_format: str
    results_identical: bool

    @property
    def drop(self) -> float:
        """Relative simulated-seconds reduction from overlap."""
        if self.serial_seconds <= 0:
            return 0.0
        return (self.serial_seconds - self.overlap_seconds) / (
            self.serial_seconds
        )

    def perf_record(self) -> dict:
        """Exact counters + banded timings for the perf-snapshot suite."""
        eng = self.engines
        return {
            "counters": {
                "filled_nnz": self.filled_nnz,
                "results_identical": int(self.results_identical),
                "h2d_ops": eng.h2d_ops,
                "d2h_ops": eng.d2h_ops,
                "compute_ops": eng.compute_ops,
                "n_streams": eng.n_streams,
                "sync_regions": self.sync_regions,
                "bytes_h2d": self.bytes_h2d,
                "bytes_d2h": self.bytes_d2h,
            },
            "timings": {
                "serial_seconds": self.serial_seconds,
                "overlap_seconds": self.overlap_seconds,
                "overlap_drop": self.drop,
                "overlap_efficiency": eng.overlap_efficiency,
                "h2d_utilization": eng.utilization("h2d"),
                "d2h_utilization": eng.utilization("d2h"),
                "compute_utilization": eng.utilization("compute"),
            },
            "labels": {"numeric_format": self.numeric_format},
        }


@dataclass(frozen=True)
class OverlapReport:
    """The full sweep on one matrix instance."""

    abbr: str
    n: int
    nnz: int
    mem_divisor: int
    rows: tuple[OverlapRow, ...]

    def format(self) -> str:
        lines = [
            f"overlap sweep on {self.abbr} (n={self.n}, nnz={self.nnz}, "
            f"device memory / {self.mem_divisor})",
            f"{'chunk':>6s} {'serial ms':>10s} {'overlap ms':>11s} "
            f"{'drop':>6s} {'h2d':>5s} {'d2h':>5s} {'comp':>5s} "
            f"{'eff':>5s} {'identical':>9s}",
        ]
        for r in self.rows:
            eng = r.engines
            lines.append(
                f"{r.chunk_rows:>6d} {r.serial_seconds * 1e3:>10.3f} "
                f"{r.overlap_seconds * 1e3:>11.3f} {r.drop:>6.1%} "
                f"{eng.utilization('h2d'):>5.0%} "
                f"{eng.utilization('d2h'):>5.0%} "
                f"{eng.utilization('compute'):>5.0%} "
                f"{eng.overlap_efficiency:>5.0%} "
                f"{'yes' if r.results_identical else 'NO':>9s}"
            )
        return "\n".join(lines)


def run_overlap_bench(
    *,
    abbr: str = "CR2",
    n: int | None = None,
    chunk_rows: tuple[int, ...] = (16, 32, 64),
    mem_divisor: int = 2,
    smoke: bool = True,
) -> OverlapReport:
    """Run the overlap on/off sweep and return the report."""
    spec = by_abbr(abbr)
    if n is None:
        n = 160 if smoke else spec.n_scaled
    spec = dataclasses.replace(spec, n_scaled=int(n))
    a = spec.generate()
    filled = symbolic_fill_reference(a)

    rows = []
    for cr in chunk_rows:
        device = spec.device_for_symbolic(a, filled.nnz, chunk_rows=cr)
        device = dataclasses.replace(
            device, memory_bytes=device.memory_bytes // mem_divisor
        )
        base = SolverConfig(device=device, host=spec.host_for(device))
        res_off = EndToEndLU(base).factorize(a)
        res_on = EndToEndLU(
            dataclasses.replace(base, overlap=True)
        ).factorize(a)
        gpu = res_on.gpu  # StreamedGPU (overlap=True)
        rows.append(
            OverlapRow(
                chunk_rows=int(cr),
                serial_seconds=float(res_off.sim_seconds),
                overlap_seconds=float(res_on.sim_seconds),
                engines=gpu.combined_report(),
                sync_regions=len(gpu.reports),
                bytes_h2d=gpu.ledger.get_count("bytes_h2d"),
                bytes_d2h=gpu.ledger.get_count("bytes_d2h"),
                filled_nnz=int(res_on.filled.nnz),
                numeric_format=str(res_on.numeric.data_format),
                results_identical=factor_mismatches(res_off, res_on) == 0,
            )
        )
    return OverlapReport(
        abbr=abbr,
        n=int(n),
        nnz=int(a.nnz),
        mem_divisor=int(mem_divisor),
        rows=tuple(rows),
    )
