"""Declared gates, the gated registry and shared bitwise compares.

A gated sweep or drill argues like the paper: measured values set
against stated bounds.  Its report class lists those bounds once as a
``gates`` table of :class:`Gate`, each with the measured value it reads,
and its result table once as a title and ``(header, attribute)``
columns; :class:`GatedReport` derives the verdicts, ``passed``, the
rendered report and the perf-record gate labels from them.  A paper
figure or table is a :class:`PaperReport` whose gates are
:class:`Claim` gates: each also states the paper's claim, which is what
the claim table of ``EXPERIMENTS.md`` shows.  :data:`EXPERIMENTS`
declares each sweep, drill and paper experiment once, with its smoke
and full points fixed in its module, and the CLI subcommands
(``--smoke``/``--seed`` only) and perf scenarios are generated from it.
The ablations of the paper's design choices
(:mod:`repro.bench.ablations`) are paper reports too.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from importlib import import_module
from operator import attrgetter
from typing import Any, Callable, ClassVar, Iterable, Sequence

import numpy as np

from ..serve import ServeConfig, SolverService, replay
from ..serve.loadgen import TraceRequest
from .report import format_table


@dataclass(frozen=True)
class Gate:
    """One pass/fail predicate over a report, exported under ``label``."""

    label: str
    check: Callable[[Any], bool]
    #: the predicate as printed by :meth:`GatedReport.gate_lines`
    text: str
    #: the measured value the predicate reads, printed after the text
    measured: Callable[[Any], str] = lambda report: ""

    def line(self, report: Any) -> str:
        value = self.measured(report)
        return f"{self.text}: {value}" if value else self.text


@dataclass(frozen=True)
class Claim(Gate):
    """A gate on one of the paper's claims."""

    #: the claim as the paper states it
    paper: str = ""


class GatedReport:
    """Base of every registry row's report.

    Its verdict is the class-level ``gates`` table.  It renders as a
    ``title`` (a format string over the report, ``r``), a table with
    one row per object of :meth:`table_rows` over the declared
    ``(header, attribute)`` ``columns`` (a dotted attribute reads into a
    nested point), one marked line per gate and the verdict line.
    """

    gates: ClassVar[tuple[Gate, ...]] = ()
    title: ClassVar[str] = ""
    columns: ClassVar[tuple[tuple[str, str], ...]] = ()
    #: derived properties :meth:`perf_record` records beside the fields
    recorded: ClassVar[tuple[str, ...]] = ()

    def table_rows(self) -> Sequence[Any]:
        """What the table's rows read: the report itself, as one row."""
        return (self,)

    def table(self) -> str:
        """The title and the result table."""
        getters = [attrgetter(attr) for _, attr in self.columns]
        return format_table(
            [header for header, _ in self.columns],
            [[get(row) for get in getters] for row in self.table_rows()],
            title=self.title.format(r=self),
        )

    def __str__(self) -> str:
        return "\n".join([self.table(), *self.gate_lines()])

    def verdicts(self) -> dict[str, bool]:
        return {gate.label: bool(gate.check(self)) for gate in self.gates}

    @property
    def passed(self) -> bool:
        return all(self.verdicts().values())

    def verdict_line(self) -> str:
        return f"  verdict: {'PASS' if self.passed else 'FAIL'}"

    def gate_lines(self) -> list[str]:
        """One marked line per gate, then the verdict line."""
        verdicts = self.verdicts()
        lines = [
            f"  {mark(verdicts[g.label])} {g.line(self)}" for g in self.gates
        ]
        return [*lines, self.verdict_line()]

    def gate_labels(self) -> dict[str, str]:
        """Every verdict plus ``passed``, as perf-record labels."""
        labels = {k: str(v).lower() for k, v in self.verdicts().items()}
        labels["passed"] = str(self.passed).lower()
        return labels

    def perf_record(self) -> dict[str, Any]:
        """Every field and every ``recorded`` property, filed by
        :func:`filed`; the gates as labels."""
        derived = ((name, getattr(self, name)) for name in self.recorded)
        record = filed([*vars(self).items(), *derived])
        record["labels"].update(self.gate_labels())
        return record


def filed(
    items: Iterable[tuple[str, Any]], *, labels: bool = True
) -> dict[str, dict[str, Any]]:
    """A perf record of ``(key, value)`` pairs filed by type: an int is
    a counter, a float a timing and a str, if ``labels``, a label."""
    record: dict[str, dict[str, Any]] = {
        "counters": {},
        "timings": {},
        "labels": {},
    }
    for key, value in items:
        if isinstance(value, float):
            record["timings"][key] = value
        elif isinstance(value, (int, np.integer)):
            record["counters"][key] = value
        elif labels and isinstance(value, str):
            record["labels"][key] = value
    return record


@dataclass(frozen=True)
class Named:
    """One table row of a report that nests its points: the name of the
    point and the point."""

    name: str
    point: Any


class PaperReport(GatedReport):
    """A paper figure or table: a list of per-matrix ``rows`` (frozen
    dataclasses keyed by ``abbr``) gated by :class:`Claim` gates."""

    rows: list[Any]

    def table_rows(self) -> list[Any]:
        return self.rows

    @property
    def speedups(self) -> list[float]:
        return [r.speedup for r in self.rows]

    def speedup_range(self) -> tuple[float, float]:
        return min(self.speedups), max(self.speedups)

    def value(self, abbr: str, attr: str) -> float:
        """``attr`` of the row of matrix ``abbr``; NaN, which fails every
        bound, if the report has no such row."""
        rows = (getattr(x, attr) for x in self.rows if x.abbr == abbr)
        return next(rows, math.nan)

    def perf_record(self) -> dict[str, Any]:
        """The row count, every int field of every row as a counter and
        every float field as a timing, keyed ``<abbr>_<field>``; the
        gates as labels."""
        record = filed(
            (
                (f"{row.abbr}_{f.name}", getattr(row, f.name))
                for row in self.rows
                for f in dataclasses.fields(row)
            ),
            labels=False,
        )
        record["counters"]["rows"] = len(self.rows)
        record["labels"].update(self.gate_labels())
        return record


def span(values: Iterable[float], fmt: str = ".2f", unit: str = "x") -> str:
    """``min-max`` of ``values``, as a claim's measured text."""
    vals = list(values)
    return f"{min(vals):{fmt}}-{max(vals):{fmt}}{unit}"


def mark(ok: bool) -> str:
    return f"[{'ok' if ok else 'FAIL':>4s}]"


@dataclass(frozen=True)
class Experiment:
    """One gated sweep, drill or paper experiment: CLI subcommand, perf
    scenario, runner; ``str`` of its report renders it."""

    command: str
    scenario: str
    run: Callable[..., GatedReport]
    help: str


EXPERIMENTS: tuple[Experiment, ...]


def __getattr__(name: str) -> Any:
    # The sweeps, drills and paper experiments import the gate vocabulary
    # above, so the registry that imports them is built on first access
    # rather than at import time.
    if name != "EXPERIMENTS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import (
        ablations,
        churn,
        drift,
        fault_drill,
        fleet,
        multigpu,
        overlap,
        serve,
        supernodal,
    )

    paper = "table2 fig3 fig4 fig5 fig6 table3 fig7 table4 fig8".split()
    ablation = "levelize numeric format alg4 memory costmodel supernodes"
    experiments = (
        Experiment(
            "overlap-bench",
            "overlap/e2e_CR2",
            overlap.run_overlap_bench,
            "transfer/compute overlap on vs off across out-of-core chunk "
            "sizes; gates bitwise identity",
        ),
        Experiment(
            "multigpu-bench",
            "multigpu/e2e",
            multigpu.run_multigpu_bench,
            "strong and weak scaling of the end-to-end multi-GPU solver; "
            "gates bitwise identity with one device",
        ),
        Experiment(
            "serve-bench",
            "serve/replay",
            serve.run_serve_sweep,
            "repeated-pattern replay through the solver service at three "
            "cache capacities; gates hit rate, speedup and latency",
        ),
        Experiment(
            "fleet-bench",
            "fleet/serve",
            fleet.run_fleet_bench,
            "node-count sweep of the fleet tier plus an overloaded point; "
            "gates scaling, sheds, warm rate and bitwise identity",
        ),
        Experiment(
            "fault-drill",
            "faults/drill",
            fault_drill.run_fault_drill,
            "recovery-ladder drill: flaky link, OOM storm, singular "
            "workload, dead device (each must recover or degrade)",
        ),
        Experiment(
            "churn-drill",
            "fleet/churn",
            churn.run_churn_drill,
            "join, drain and crash fleet nodes mid-replay; gates remap, "
            "bitwise identity, p99 recovery and determinism",
        ),
        Experiment(
            "drift-bench",
            "serve/drift",
            drift.run_drift_bench,
            "drifting-pattern replay with incremental re-analysis on vs "
            "off; gates amortized cost, splice hit rate, bitwise identity",
        ),
        Experiment(
            "supernodal-bench",
            "supernodal/e2e",
            supernodal.run_supernodal_bench,
            "per-column vs supernodal numeric on a FEM + circuit pair; "
            "gates time/launch ratios, singleton split, bitwise identity",
        ),
        *(
            Experiment(
                name,
                f"paper/{name}",
                getattr(module, f"run_{name}"),
                str(module.__doc__).splitlines()[0],
            )
            for name in paper
            for module in [import_module(f".{name}", __package__)]
        ),
        *(
            Experiment(
                f"ablate-{name}",
                f"ablation/{name}",
                run,
                " ".join(str(run.__doc__).split()),
            )
            for name in ablation.split()
            for run in [getattr(ablations, f"run_{name}")]
        ),
    )
    globals()["EXPERIMENTS"] = experiments
    return experiments


#: the ``(matrix, array)`` pairs two factorizations must share bitwise:
#: the fill pattern and both factors' structure and values
FACTOR_ARRAYS = (
    ("filled", "indptr"),
    ("filled", "indices"),
    ("L", "indptr"),
    ("L", "indices"),
    ("L", "data"),
    ("U", "indptr"),
    ("U", "indices"),
    ("U", "data"),
)


def factor_mismatches(ref: Any, got: Any) -> int:
    """How many of :data:`FACTOR_ARRAYS` differ between two results."""
    bad = 0
    for m, arr in FACTOR_ARRAYS:
        a, b = getattr(ref, m), getattr(got, m)
        bad += not np.array_equal(getattr(a, arr), getattr(b, arr))
    return bad


def ok_solutions(
    responses: Iterable[Any], key: str = "request_id"
) -> dict[int, np.ndarray]:
    """Solution vector per ``key`` of every ``ok`` response."""
    return {
        getattr(r, key): r.x
        for r in responses
        if r.status == "ok" and r.x is not None
    }


def solution_mismatches(
    got: dict[int, np.ndarray], ref: dict[int, np.ndarray]
) -> tuple[int, int]:
    """``(checked, mismatches)`` of ``got``'s solutions against ``ref``."""
    bad = sum(
        i not in ref or not np.array_equal(x, ref[i]) for i, x in got.items()
    )
    return len(got), bad


def service_reference(
    trace: list[TraceRequest], serve: ServeConfig, flush_every: int
) -> dict[int, np.ndarray]:
    """Per-index solution vectors from one plain SolverService — the
    ground truth every fleet response must match bitwise."""
    service = SolverService(serve)
    responses = replay(service, trace, flush_every=flush_every)
    service.shutdown()
    return ok_solutions(responses)
