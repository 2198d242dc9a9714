"""Transfer/compute overlap sweep: ``overlap`` on/off × chunk sizes.

The measurement harness behind ``repro overlap-bench`` and the
``overlap/e2e_CR2`` perf scenario.  It runs the end-to-end pipeline on a
transfer-bound out-of-core instance (CR2, the densest Table 2 pattern,
on a sized device whose memory is divided by :data:`MEM_DIVISOR`, so
both the symbolic output and the numeric segment window stream), once
with the serial charging and once through the :mod:`repro.streams`
copy-engine pipeline, for each declared out-of-core chunk size.  Per
chunk size it reports:

* serial vs overlap simulated seconds and the relative drop;
* copy-engine and compute utilization over the async regions' makespan;
* overlap efficiency (fraction of serial busy time hidden);
* a results-identical flag (fill structure and factors must match
  bitwise — overlap may only move time, never results).

Two gates, asserted by the CLI exit status and the perf baseline:

* **identical** — every row's overlap run is bitwise-identical to its
  serial run;
* **streamed** — every row runs the streamed numeric executor
  (``csc-streamed``) and its overlap run books copy-engine uploads, so
  each declared point sits in the regime the sweep measures.

The perf record is the row at the mode's perf chunk size (the overlap
run's op counts, stream and sync-region counts, bytes moved).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core import EndToEndLU, SolverConfig
from ..streams.device import SyncReport
from ..symbolic import symbolic_fill_reference
from ..workloads.registry import by_abbr
from .gates import Gate, GatedReport, factor_mismatches

__all__ = ["OverlapRow", "OverlapReport", "run_overlap_bench"]

ABBR = "CR2"

#: divide the sized device memory by this factor (the streamed regime)
MEM_DIVISOR = 2

#: ``(n, chunk sizes, perf chunk size)`` per mode; full mode needs n
#: large enough that the reduced device still sits below the all-rows
#: symbolic requirement for this nearly-dense fill.  The device is sized
#: with ``chunk`` rows of scratch on top of the factorized matrix, so a
#: large enough chunk keeps the factors resident and nothing streams: at
#: n=320 that happens by chunk 128, so the full points stop at 96
SMOKE_POINTS = (160, (16, 32, 64), 32)
FULL_POINTS = (320, (32, 64, 96), 96)


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
class OverlapReport(GatedReport):
    """The full sweep on one matrix instance."""

    n: int
    nnz: int
    perf_chunk_rows: int
    rows: tuple[OverlapRow, ...]

    gates = (
        Gate(
            "identical_ok",
            lambda r: all(row.results_identical for row in r.rows),
            "identical: every overlap run bitwise-equal to its serial run",
        ),
        Gate(
            "streamed_ok",
            lambda r: all(
                row.numeric_format == "csc-streamed"
                and row.engines.h2d_ops > 0
                for row in r.rows
            ),
            "streamed: every row csc-streamed with copy-engine uploads",
        ),
    )

    def perf_record(self) -> dict:
        (row,) = (
            r for r in self.rows if r.chunk_rows == self.perf_chunk_rows
        )
        rec = row.perf_record()
        return {
            "counters": {**rec["counters"], "n": self.n, "nnz": self.nnz},
            "timings": rec["timings"],
            "labels": {**rec["labels"], **self.gate_labels()},
        }


def run_overlap_bench(*, smoke: bool = False, seed: int = 0) -> OverlapReport:
    """Run the overlap on/off sweep at the mode's declared points."""
    n, chunks, perf_chunk = SMOKE_POINTS if smoke else FULL_POINTS
    spec = by_abbr(ABBR)
    spec = dataclasses.replace(spec, n_scaled=n, seed=spec.seed + seed)
    a = spec.generate()
    filled = symbolic_fill_reference(a)

    rows = []
    for cr in chunks:
        device = spec.device_for_symbolic(a, filled.nnz, chunk_rows=cr)
        device = dataclasses.replace(
            device, memory_bytes=device.memory_bytes // MEM_DIVISOR
        )
        base = SolverConfig(device=device, host=spec.host_for(device))
        res_off = EndToEndLU(base).factorize(a)
        res_on = EndToEndLU(
            dataclasses.replace(base, overlap=True)
        ).factorize(a)
        gpu = res_on.gpu  # StreamedGPU (overlap=True)
        rows.append(
            OverlapRow(
                chunk_rows=cr,
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
        n=n, nnz=int(a.nnz), perf_chunk_rows=perf_chunk, rows=tuple(rows)
    )


def format_overlap_report(report: OverlapReport) -> str:
    lines = [
        f"overlap sweep on {ABBR} (n={report.n}, nnz={report.nnz}, "
        f"device memory / {MEM_DIVISOR})",
        f"{'chunk':>6s} {'serial ms':>10s} {'overlap ms':>11s} "
        f"{'drop':>6s} {'h2d':>5s} {'d2h':>5s} {'comp':>5s} "
        f"{'eff':>5s} {'identical':>9s}",
    ]
    for r in report.rows:
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
    return "\n".join(lines + report.gate_lines())
