"""Multi-GPU scaling sweep: strong and weak scaling over a device pool.

The measurement harness behind ``repro multigpu-bench`` and the
``multigpu/e2e`` perf scenario.  It runs
:func:`repro.core.multi_gpu_endtoend` for each declared sweep on one
registry workload and reports, per point:

* makespan and speedup vs. the single-device point (strong mode), or
  time-per-filled-nonzero grind and its efficiency vs. the base size
  (weak mode, where the instance grows with the pool);
* load balance (min/max device busy seconds), peer traffic split into
  the reshard all-to-all and the per-level halo exchange, and summed
  receiver stalls;
* a results-identical flag: factors, fill pattern and pivot sequence
  must match the single-device :class:`~repro.core.pipeline.EndToEndLU`
  run bitwise (sharding may only move time, never results).

Each mode declares two sweeps: strong scaling over pcie3, whose
:data:`PERF_DEVICES`-device point is the perf record, and weak scaling
over nvlink2 with halo sends routed through per-device copy engines.
Both sweeps' points share one table, each row named by its sweep.

One gate, asserted by the CLI exit status and the perf baseline:

* **identical** — every point of every sweep is bitwise-identical to
  its single-device run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..core import EndToEndLU, SolverConfig, multi_gpu_endtoend
from ..sparse import CSRMatrix
from ..workloads.registry import by_abbr
from .gates import Gate, GatedReport, Named, factor_mismatches

__all__ = [
    "Sweep",
    "ScalingPoint",
    "ScalingSweep",
    "MultiGpuReport",
    "run_multigpu_bench",
]

#: RM, a dense-filling circuit pattern, is transfer-light relative to
#: its numeric work: wide early levels give every device a slice of real
#: work per level while the halo volume stays a small fraction of the
#: factor bytes, which is where the cyclic level-aware sharding pays off
ABBR = "RM"

#: device count of the strong sweep's point recorded as ``multigpu/e2e``
PERF_DEVICES = 4


@dataclass(frozen=True)
class Sweep:
    """One declared sweep: base size, device counts, interconnect."""

    n: int
    devices: tuple[int, ...]
    link: str = "pcie3"
    overlap: bool = False
    weak: bool = False

    @property
    def name(self) -> str:
        """``strong pcie3``, ``weak nvlink2 overlap``: the table's sweep
        column."""
        mode = "weak" if self.weak else "strong"
        return f"{mode} {self.link}{' overlap' if self.overlap else ''}"


SMOKE_SWEEPS = (
    Sweep(160, (1, 2, 4)),
    Sweep(160, (1, 2), "nvlink2", overlap=True, weak=True),
)
FULL_SWEEPS = (
    Sweep(400, (1, 2, 4, 8)),
    Sweep(160, (1, 2, 4), "nvlink2", overlap=True, weak=True),
)


@dataclass(frozen=True)
class ScalingPoint:
    """One device-count configuration of a sweep."""

    num_devices: int
    n: int
    filled_nnz: int
    makespan_seconds: float
    #: vs. the sweep's single-device point (strong: same instance;
    #: weak: grind ratio)
    speedup: float
    balance: float
    reshard_bytes: int
    halo_bytes: int
    halo_wait_seconds: float
    results_identical: bool
    #: the multi-GPU result's perf record
    record: dict = field(repr=False, compare=False)


@dataclass(frozen=True)
class ScalingSweep:
    """One sweep's points on one workload."""

    sweep: Sweep
    points: tuple[ScalingPoint, ...]


@dataclass(frozen=True)
class MultiGpuReport(GatedReport):
    """Every declared sweep of one mode."""

    sweeps: tuple[ScalingSweep, ...]

    title = (
        f"multi-GPU scaling sweeps on {ABBR} (simulated s; strong: "
        "speedup over one device, weak: grind ratio)"
    )
    columns = (
        ("sweep", "name"),
        ("devs", "point.num_devices"),
        ("n", "point.n"),
        ("fill nnz", "point.filled_nnz"),
        ("makespan s", "point.makespan_seconds"),
        ("speedup", "point.speedup"),
        ("balance", "point.balance"),
        ("reshard B", "point.reshard_bytes"),
        ("halo B", "point.halo_bytes"),
        ("stall s", "point.halo_wait_seconds"),
        ("identical", "point.results_identical"),
    )
    gates = (
        Gate(
            "identical_ok",
            lambda r: all(
                pt.results_identical for s in r.sweeps for pt in s.points
            ),
            "identical: every point bitwise-equal to its single-device run",
        ),
    )

    def table_rows(self) -> list[Named]:
        return [
            Named(s.sweep.name, pt) for s in self.sweeps for pt in s.points
        ]

    def perf_record(self) -> dict:
        strong = self.sweeps[0]
        (pt,) = (p for p in strong.points if p.num_devices == PERF_DEVICES)
        labels = {**pt.record["labels"], **self.gate_labels()}
        return {**pt.record, "labels": labels}


def _instance(n: int, seed: int) -> CSRMatrix:
    spec = by_abbr(ABBR)
    return dataclasses.replace(
        spec, n_scaled=int(n), seed=spec.seed + seed
    ).generate()


def _run_sweep(sweep: Sweep, seed: int) -> ScalingSweep:
    cfg = SolverConfig()
    a_base = _instance(sweep.n, seed)
    single_base = EndToEndLU(cfg).factorize(a_base)
    base_grind = None

    points = []
    for d in sweep.devices:
        if sweep.weak and d > 1:
            a = _instance(sweep.n * d, seed)
            single = EndToEndLU(cfg).factorize(a)
        else:
            a = a_base
            single = single_base
        res = multi_gpu_endtoend(
            a, cfg, num_devices=d, link=sweep.link, overlap=sweep.overlap
        )
        grind = res.makespan_seconds / max(res.filled.nnz, 1)
        if base_grind is None:
            base_grind = (
                grind if sweep.weak else float(single_base.sim_seconds)
            )
        if sweep.weak:
            speedup = base_grind / grind
        else:
            speedup = base_grind / res.makespan_seconds
        points.append(
            ScalingPoint(
                num_devices=d,
                n=int(a.n_rows),
                filled_nnz=int(res.filled.nnz),
                makespan_seconds=float(res.makespan_seconds),
                speedup=float(speedup),
                balance=float(res.balance()),
                reshard_bytes=int(res.reshard_bytes),
                halo_bytes=int(res.halo_bytes),
                halo_wait_seconds=float(res.halo_wait_seconds),
                results_identical=factor_mismatches(single, res) == 0,
                record=res.perf_record(),
            )
        )
    return ScalingSweep(sweep, tuple(points))


def run_multigpu_bench(
    *, smoke: bool = False, seed: int = 0
) -> MultiGpuReport:
    """Run the mode's declared sweeps and return the report."""
    sweeps = SMOKE_SWEEPS if smoke else FULL_SWEEPS
    return MultiGpuReport(tuple(_run_sweep(s, seed) for s in sweeps))
