"""Supernodal bench: blocked panel schedule vs the per-column oracle.

The measurement harness behind ``repro supernodal-bench`` and the
``supernodal/e2e`` perf scenario.  It factorizes one FEM-class and one
circuit-class registry instance twice each — once on the scattered
per-column numeric path, once on the supernodal panel schedule
(:mod:`repro.numeric.supernodal`) — and compares.  The two runs consume
the *identical* matrix object, so the only degree of freedom is the
numeric-path knob: every measured delta is pure scheduling, and the
bitwise comparison is exact.

Four gates, asserted by the CLI exit status and the perf baseline:

* **FEM time** — the FEM instance's simulated ``numeric`` phase shrinks
  by at least :data:`GATE_FEM_TIME_RATIO` (§5's dense-block efficiency
  claim: FEM fill forms wide panels that run as a few saturated
  BLAS-3-style kernels);
* **FEM launches** — the FEM instance issues at least
  :data:`GATE_FEM_LAUNCH_RATIO` times fewer numeric kernel launches
  (panels collapse whole dependency levels into three kernels per wave);
* **circuit split** — the circuit instance's partition stays mostly
  singleton (fraction of size-1 panels at least
  :data:`GATE_CIRCUIT_SINGLETON_FRACTION`): irregular circuit fill has
  no dense panels to find, so the supernodal path degenerates to the
  per-column schedule rather than inventing bogus blocks;
* **bitwise** — ``L``/``U`` patterns and values from both paths are
  bitwise-identical on both instances (the per-column kernel is the
  differential oracle; panels move *time*, never numerics).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core import SolverConfig
from ..core.pipeline import EndToEndResult
from ..core.solver import factorize
from ..workloads import by_abbr
from .gates import FACTOR_ARRAYS, Gate, GatedReport, factor_mismatches

__all__ = [
    "GATE_FEM_TIME_RATIO",
    "GATE_FEM_LAUNCH_RATIO",
    "GATE_CIRCUIT_SINGLETON_FRACTION",
    "SupernodalReport",
    "run_supernodal_bench",
]

#: minimum off/on simulated ``numeric``-phase time ratio on the FEM instance
GATE_FEM_TIME_RATIO = 1.5

#: minimum off/on numeric-kernel-launch ratio on the FEM instance
GATE_FEM_LAUNCH_RATIO = 5.0

#: minimum fraction of size-1 panels in the circuit instance's partition
GATE_CIRCUIT_SINGLETON_FRACTION = 0.6

#: registry instances measured (one per matrix class the gates split on)
FEM_ABBR = "CR2"
CIRCUIT_ABBR = "OT2"


@dataclass
class SupernodalReport(GatedReport):
    """Outcome of one on/off factorization pair (simulated seconds); its
    perf record is every field and the three derived ratios."""

    n: int
    fem_abbr: str
    circuit_abbr: str
    #: simulated ``numeric``-phase seconds, per-column path
    fem_numeric_seconds_off: float
    #: simulated ``numeric``-phase seconds, supernodal path
    fem_numeric_seconds_on: float
    fem_launches_off: int
    fem_launches_on: int
    fem_panels: int
    fem_singleton_panels: int
    fem_panel_waves: int
    fem_panel_coverage: float
    circuit_numeric_seconds_off: float
    circuit_numeric_seconds_on: float
    circuit_launches_off: int
    circuit_launches_on: int
    circuit_panels: int
    circuit_singleton_panels: int
    bitwise_checked: int
    bitwise_mismatches: int

    title = (
        "supernodal bench at n={r.n}: numeric phase off (per-column "
        "oracle) vs on (panel schedule), simulated s"
    )
    columns = (
        ("fem", "fem_abbr"),
        ("panels", "fem_panels"),
        ("singleton", "fem_singleton_panels"),
        ("waves", "fem_panel_waves"),
        ("coverage", "fem_panel_coverage"),
        ("off s", "fem_numeric_seconds_off"),
        ("on s", "fem_numeric_seconds_on"),
        ("off launches", "fem_launches_off"),
        ("on launches", "fem_launches_on"),
        ("circuit", "circuit_abbr"),
        ("panels", "circuit_panels"),
        ("singleton", "circuit_singleton_panels"),
    )
    gates = (
        Gate(
            "fem_time_ok",
            lambda r: r.fem_time_ratio >= GATE_FEM_TIME_RATIO,
            "fem numeric time, per-column over supernodal >= "
            f"{GATE_FEM_TIME_RATIO}x",
            lambda r: f"{r.fem_time_ratio:.2f}x",
        ),
        Gate(
            "fem_launch_ok",
            lambda r: r.fem_launch_ratio >= GATE_FEM_LAUNCH_RATIO,
            "fem numeric launches, per-column over supernodal >= "
            f"{GATE_FEM_LAUNCH_RATIO}x",
            lambda r: f"{r.fem_launch_ratio:.2f}x",
        ),
        Gate(
            "circuit_ok",
            lambda r: r.circuit_singleton_fraction
            >= GATE_CIRCUIT_SINGLETON_FRACTION,
            "circuit singleton-panel fraction >= "
            f"{GATE_CIRCUIT_SINGLETON_FRACTION}",
            lambda r: f"{r.circuit_singleton_fraction:.2f}",
        ),
        Gate(
            "bitwise_ok",
            lambda r: r.bitwise_checked > 0 and r.bitwise_mismatches == 0,
            "bitwise: both paths' factors equal on both instances",
            lambda r: f"{r.bitwise_mismatches} of {r.bitwise_checked} differ",
        ),
    )
    recorded = (
        "fem_time_ratio",
        "fem_launch_ratio",
        "circuit_singleton_fraction",
    )

    # -- derived ---------------------------------------------------------
    @property
    def fem_time_ratio(self) -> float:
        if self.fem_numeric_seconds_on <= 0:
            return 0.0
        return self.fem_numeric_seconds_off / self.fem_numeric_seconds_on

    @property
    def fem_launch_ratio(self) -> float:
        if self.fem_launches_on <= 0:
            return 0.0
        return self.fem_launches_off / self.fem_launches_on

    @property
    def circuit_singleton_fraction(self) -> float:
        if self.circuit_panels <= 0:
            return 0.0
        return self.circuit_singleton_panels / self.circuit_panels


def _factor_pair(
    abbr: str, *, n: int, seed: int
) -> tuple[EndToEndResult, EndToEndResult, int]:
    """Factorize one registry instance on both numeric paths; returns
    ``(off, on, mismatches)`` (see :func:`.gates.factor_mismatches`)."""
    spec = dataclasses.replace(
        by_abbr(abbr), n_scaled=n, seed=by_abbr(abbr).seed + seed
    )
    a = spec.generate()
    off = factorize(a, SolverConfig(), supernodal=False)
    on = factorize(a, SolverConfig(), supernodal=True)
    return off, on, factor_mismatches(off, on)


def run_supernodal_bench(
    *, smoke: bool = False, seed: int = 0
) -> SupernodalReport:
    """Factorize the FEM/circuit pair with panels on vs off and compare."""
    n = 96 if smoke else 160
    fem_off, fem_on, fem_bad = _factor_pair(FEM_ABBR, n=n, seed=seed)
    cir_off, cir_on, cir_bad = _factor_pair(CIRCUIT_ABBR, n=n, seed=seed)

    def launches(res: EndToEndResult) -> int:
        return res.gpu.ledger.get_count("numeric_kernel_launches")

    return SupernodalReport(
        n=n,
        fem_abbr=FEM_ABBR,
        circuit_abbr=CIRCUIT_ABBR,
        fem_numeric_seconds_off=fem_off.gpu.ledger.seconds("numeric"),
        fem_numeric_seconds_on=fem_on.gpu.ledger.seconds("numeric"),
        fem_launches_off=launches(fem_off),
        fem_launches_on=launches(fem_on),
        fem_panels=fem_on.numeric.panels,
        fem_singleton_panels=fem_on.numeric.singleton_panels,
        fem_panel_waves=fem_on.numeric.panel_waves,
        fem_panel_coverage=fem_on.numeric.panel_coverage,
        circuit_numeric_seconds_off=cir_off.gpu.ledger.seconds("numeric"),
        circuit_numeric_seconds_on=cir_on.gpu.ledger.seconds("numeric"),
        circuit_launches_off=launches(cir_off),
        circuit_launches_on=launches(cir_on),
        circuit_panels=cir_on.numeric.panels,
        circuit_singleton_panels=cir_on.numeric.singleton_panels,
        bitwise_checked=2 * len(FACTOR_ARRAYS),  # 2 instances
        bitwise_mismatches=fem_bad + cir_bad,
    )
