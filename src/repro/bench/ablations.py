"""Ablations: each of the paper's design choices argued by one gated row.

``run_<name>`` is the ``repro ablate-<name>`` row of
:data:`repro.bench.gates.EXPERIMENTS`; its docstring says which choice
it argues, the constants below are its smoke and full points, and its
:class:`~repro.bench.gates.Claim` gates state the bounds.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from ..core import EndToEndLU, SolverConfig, autotune_symbolic, choose_format
from ..core import dense_format_max_blocks, numeric_factorize_gpu
from ..core import levelize_cpu_serial, levelize_gpu_dynamic
from ..core import levelize_gpu_hostlaunch, outofcore_symbolic
from ..gpusim import DEFAULT_COST_MODEL, GPU, scaled_device, scaled_host
from ..graph import LevelSchedule, build_dependency_graph, detect_supernodes
from ..graph import etree_schedule, kahn_levels, sparsify_for_levels
from ..preprocess import preprocess
from ..sparse.types import INDEX_DTYPE
from ..symbolic import symbolic_fill_reference
from ..workloads import TABLE4, MatrixSpec, by_abbr
from .fig4 import Fig4Result, fig4_row
from .gates import Claim, PaperReport, span
from .runner import MatrixArtifacts, prepare, resident_replica

AP, OT2, MI, PR = map(by_abbr, ("AP", "OT2", "MI", "PR"))
#: PR leaves the levelize row: its dynamic/host-launch ratio is 1.91
LEVELIZE_SMOKE, LEVELIZE_FULL = (OT2,), (OT2, MI)
NUMERIC_SMOKE = (OT2, replace(MI, n_scaled=600))
NUMERIC_FULL = (OT2, MI, PR)
#: device memory as multiples of the first Table 4 matrix's sizing
FORMAT_SMOKE = replace(TABLE4[0], n_scaled=2000), (1.0, 1.5)
FORMAT_FULL = TABLE4[0], (0.4, 0.8, 1.0, 1.5, 4.0)
#: (matrix, parts, splits), autotune_symbolic's default grid at smoke; not
#: OT2, whose (2, 0.5) is 2.6 % and 4.6 % slower than Alg. 3 at seeds 1, 3
ALG4_SMOKE = replace(PR, n_scaled=2500), (1, 2, 3, 4), (0.25, 0.5, 0.75)
ALG4_FULL = PR, (1, 2, 3, 4, 6), (0.125, 0.25, 0.5, 0.75, 0.9)
#: fractions of the all-rows scratch requirement, tightest first
MEMORY_SMOKE = OT2, (0.02, 0.05, 0.1, 0.25, 0.5)
MEMORY_FULL = PR, (0.01, 0.02, 0.05, 0.1, 0.25)
COSTMODEL_SMOKE = (AP, OT2), (0.5, 2.0)
COSTMODEL_FULL = (AP, OT2, by_abbr("G7"), MI, by_abbr("CR2")), (0.5, 1.0, 2.0)
SUPERNODES_SMOKE = (OT2, MI)
SUPERNODES_FULL = tuple(map(by_abbr, ("OT2", "R15", "MI", "GO", "OT1", "WI")))


def _columns(row) -> tuple[tuple[str, str], ...]:
    """Every field of the dataclass ``row`` as a result-table column."""
    return tuple((f.name, f.name) for f in fields(row))


def _pattern(spec: MatrixSpec, seed: int):
    """The prepared instance, its filled pattern and dependency graph."""
    art = prepare(spec, seed=seed)
    filled = symbolic_fill_reference(preprocess(art.a).matrix)
    return art, filled, build_dependency_graph(filled)


@dataclass(frozen=True)
class LevelizeRow:
    abbr: str
    levels: int
    dynamic_s: float
    hostlaunch_s: float
    cpu_serial_s: float
    edges: int
    critical_edges: int  # the edges sparsify_for_levels keeps
    pruned_s: float  # dynamic levelization of the critical edges


@dataclass
class LevelizeResult(PaperReport):
    rows: list[LevelizeRow]
    title = "Ablation — levelization executors and edge pruning (§3.3)"
    columns = _columns(LevelizeRow)
    gates = (
        Claim(
            "dynamic_launch_ok",
            lambda r: all(x.hostlaunch_s > 2 * x.dynamic_s for x in r.rows),
            "dynamic parallelism > 2x faster than host-launch",
            lambda r: span(x.hostlaunch_s / x.dynamic_s for x in r.rows),
            "Alg. 5 launches from the device: no host sync",
        ),
        Claim(
            "pruning_ok",
            lambda r: all(
                2 * x.critical_edges < x.edges and x.pruned_s < x.dynamic_s
                for x in r.rows
            ),
            "pruning keeps < 50% of edges and levelizes faster",
            lambda r: span(
                (x.edges / x.critical_edges for x in r.rows), ".0f", "x fewer"
            ),
            "GLU 3.0's relaxed dependencies shrink Alg. 5's work",
        ),
    )


def run_levelize(*, smoke: bool = False, seed: int = 0) -> LevelizeResult:
    """Levelization executors (Algorithm 5) and GLU 3.0's pruning of
    transitively implied dependency edges (§3.3)."""
    rows = []
    for spec in LEVELIZE_SMOKE if smoke else LEVELIZE_FULL:
        art, _, graph = _pattern(spec, seed)
        dyn = levelize_gpu_dynamic(art.gpu(), graph)
        reduced, stats = sparsify_for_levels(graph, kahn_levels(graph))
        pruned = levelize_gpu_dynamic(art.gpu(), reduced)
        assert (dyn.schedule.level_of == pruned.schedule.level_of).all()
        host = levelize_gpu_hostlaunch(art.gpu(), graph).sim_seconds
        cpu = levelize_cpu_serial(art.gpu(), graph).sim_seconds
        times = (dyn.sim_seconds, host, cpu)
        edges = (stats.edges_before, stats.edges_after, pruned.sim_seconds)
        rows.append(LevelizeRow(spec.abbr, dyn.num_levels, *times, *edges))
    return LevelizeResult(rows)


@dataclass(frozen=True)
class NumericRow:
    abbr: str
    kind: str
    n: int
    levels: int
    levelized_s: float  # level schedule, adaptive A/B/C kernel modes
    serial_s: float  # one column per level
    forced_a_s: float
    forced_b_s: float
    forced_c_s: float
    forced_ratio: float  # the fastest forced mode's time / levelized_s
    etree_levels: int  # on FEM rows only (0: it need not be valid)
    etree_s: float


@dataclass
class NumericResult(PaperReport):
    rows: list[NumericRow]
    title = "Ablation — numeric schedules and A/B/C kernel modes"
    columns = _columns(NumericRow)
    gates = (
        Claim(
            "serial_ok",
            lambda r: all(x.serial_s > x.levelized_s for x in r.rows),
            "the serial column order is slower than the level schedule",
            lambda r: span(x.serial_s / x.levelized_s for x in r.rows),
            "§2.2: levelized columns factorize in parallel",
        ),
        Claim(
            "kernel_modes_ok",
            lambda r: all(1.05 * x.forced_ratio >= 1.0 for x in r.rows),
            "adaptive A/B/C within 5% of each forced mode",
            lambda r: "fastest forced " + span(x.forced_ratio for x in r.rows),
            "GLU 3.0 picks a kernel mode per level",
        ),
        Claim(
            "etree_ok",
            lambda r: any(x.etree_levels for x in r.rows)
            and all(
                x.etree_levels >= x.levels
                and x.etree_s >= 0.999 * x.levelized_s
                for x in r.rows
                if x.kind == "fem"
            ),
            "on FEM rows: etree levels >= levelize, time >= 0.999x",
            lambda r: " ".join(
                f"{x.abbr} {x.etree_levels}/{x.levels} levels"
                for x in r.rows
                if x.etree_levels
            ),
            "§3.3: levelization is at least as parallel as the etree",
        ),
    )


def run_numeric(*, smoke: bool = False, seed: int = 0) -> NumericResult:
    """Numeric schedules and kernel modes: the level schedule vs the serial
    column order (§2.2) and the etree (§3.3), GLU 3.0's adaptive A/B/C
    kernel modes vs each forced mode."""
    rows = []
    for spec in NUMERIC_SMOKE if smoke else NUMERIC_FULL:
        art, filled, graph = _pattern(spec, seed)
        n = filled.n_rows

        def numeric(schedule: LevelSchedule, mode: str | None = None):
            args = (art.gpu(), filled.to_csc(), filled, schedule, art.config())
            return numeric_factorize_gpu(*args, kernel_mode_override=mode)

        lev = kahn_levels(graph)
        ref = numeric(lev)
        ser = numeric(LevelSchedule(level_of=np.arange(n, dtype=INDEX_DTYPE)))
        assert ref.As.allclose(ser.As)  # a schedule is a time knob only
        times = [ref.sim_seconds, ser.sim_seconds]
        times += [numeric(lev, mode).sim_seconds for mode in "ABC"]
        times.append(min(times[2:]) / times[0])
        etree = (0, 0.0)
        if spec.kind == "fem":
            et = etree_schedule(filled)
            et.validate_against(graph)
            etree = (et.num_levels, numeric(et).sim_seconds)
        row = (spec.abbr, spec.kind, n, lev.num_levels, *times, *etree)
        rows.append(NumericRow(*row))
    return NumericResult(rows)


@dataclass(frozen=True)
class FormatRow:
    abbr: str
    scale: float  # device memory / the Table 4 sizing
    tb_max: int
    m_dense: int  # M of the pipeline's dense run
    auto_format: str
    dense_s: float
    csc_s: float
    streamed: int  # dense/csc/auto runs that streamed (CSC-only, not §3.4)
    m_f32: int  # Table 4's resident replica per dtype; 0 if streamed
    auto_f32: str
    m_f64: int
    auto_f64: str


def _rule_ok(r: FormatResult) -> bool:
    """CSC iff ``M < TB_max`` at every in-core point, in-core points on
    both sides of ``TB_max``; a streamed point streams all three runs."""
    in_core = [x for x in r.rows if not x.streamed]
    below = [x.m_dense < x.tb_max for x in in_core]
    picks = [("dense", "csc")[b] for b in below]
    return (
        [x.auto_format for x in in_core] == picks
        and 0 < sum(below) < len(below)
        and all(x.streamed == 3 for x in r.rows if x.streamed)
    )


def _dtype_ok(r: FormatResult) -> bool:
    """float64 halves M (+-1) at every point; on the Table 4 device,
    float32's M is the paper's 124 and both dtypes pick CSC."""
    at_1x = [(x.m_f32, x.auto_f32, x.auto_f64) for x in r.rows if x.scale == 1]
    return at_1x == [(124, "csc", "csc")] and all(
        abs(x.m_f64 - x.m_f32 // 2) <= 1 for x in r.rows
    )


@dataclass
class FormatResult(PaperReport):
    rows: list[FormatRow]
    title = "Ablation — numeric-format crossover and value dtype (§3.4)"
    columns = _columns(FormatRow)
    gates = (
        Claim(
            "rule_ok",
            _rule_ok,
            "auto picks CSC iff M < TB_max, on both sides of TB_max",
            lambda r: " ".join(f"{x.m_dense}:{x.auto_format}" for x in r.rows),
            "§3.4: switch to CSC when dense cannot fill the device",
        ),
        Claim(
            "csc_ok",
            lambda r: all(x.csc_s <= 1.25 * x.dense_s for x in r.rows),
            "CSC <= 1.25x dense at every point",
            lambda r: span(x.csc_s / x.dense_s for x in r.rows),
            "beyond the paper: the rule is a feasibility rule",
        ),
        Claim(
            "dtype_ok",
            _dtype_ok,
            "float64 halves M (+-1); at 1x float32 M 124, both pick CSC",
            lambda r: " ".join(f"{x.m_f32}/{x.m_f64}" for x in r.rows),
            "§3.4: M = L / (n x sizeof(dtype))",
        ),
    )


def _replica(art: MatrixArtifacts, dtype: type) -> tuple[int, str]:
    """``M`` and the auto pick of the resident replica under ``dtype``."""
    cfg = art.config(value_dtype=np.dtype(dtype))
    gpu, n = resident_replica(art), art.a.n_rows
    return dense_format_max_blocks(gpu, n, cfg), choose_format(gpu, n, cfg)[0]


def run_format(*, smoke: bool = False, seed: int = 0) -> FormatResult:
    """The §3.4 dense/CSC rule as device memory shrinks past its threshold,
    and the dense cap M under float32 vs float64."""
    spec, scales = FORMAT_SMOKE if smoke else FORMAT_FULL
    base = prepare(spec, seed=seed, for_numeric=True)
    rows = []
    for scale in scales:
        device = scaled_device(int(base.device.memory_bytes * scale))
        art = replace(base, device=device, host=spec.host_for(device))
        dense, csc, auto = runs = [
            EndToEndLU(art.config(numeric_format=fmt)).factorize(art.a)
            for fmt in ("dense", "csc", "auto")
        ]
        streamed = sum(r.symbolic.device_filled is None for r in runs)
        caps: tuple = (0, "-", 0, "-")
        if not streamed:
            caps = _replica(art, np.float32) + _replica(art, np.float64)
        pick = (dense.numeric.max_parallel_columns, auto.numeric.data_format)
        times = (dense.breakdown().numeric, csc.breakdown().numeric)
        row = (scale, device.max_concurrent_blocks, *pick, *times, streamed)
        rows.append(FormatRow(f"{spec.abbr}@{scale:g}x", *row, *caps))
    return FormatResult(rows)


@dataclass(frozen=True)
class Alg4Row:
    abbr: str
    parts: int
    split: float
    symbolic_s: float
    iterations: int


def _times(r: Alg4Result) -> tuple[float, float, float]:
    """Symbolic time of Algorithm 3, of (2, 0.5) and of the grid best."""
    t = {x.abbr: x.symbolic_s for x in r.rows}
    return t.get("1p@0.50", np.nan), t.get("2p@0.50", np.nan), min(t.values())


@dataclass
class Alg4Result(PaperReport):
    rows: list[Alg4Row]
    winner: str  # autotune_symbolic's pick
    title = "Ablation — Algorithm 4's knob grid (parts x split fraction)"
    columns = _columns(Alg4Row)
    gates = (
        Claim(
            "default_ok",
            lambda r: _times(r)[1] <= min(1.10 * _times(r)[2], _times(r)[0]),
            "(2, 0.5) within 10% of the grid best and <= 1 part",
            lambda r: f"(2, 0.5)/best {_times(r)[1] / _times(r)[2]:.3f}x",
            "Alg. 4: two parts split at 50% beat Alg. 3",
        ),
        Claim(
            "two_parts_ok",
            lambda r: _times(r)[2] >= 0.9 * _times(r)[1]
            and r.value(r.winner, "parts") >= 2,
            "best >= 0.9x (2, 0.5); autotune's winner has >= 2 parts",
            lambda r: f"winner {r.winner}",
            "§3.2: more parts imply more kernel launches",
        ),
    )


def run_alg4(*, smoke: bool = False, seed: int = 0) -> Alg4Result:
    """Algorithm 4's knobs (parts x split fraction), dry-run on a grid by
    autotune_symbolic (§3.2)."""
    spec, parts, fractions = ALG4_SMOKE if smoke else ALG4_FULL
    art = prepare(spec, seed=seed)
    cfg = art.config()
    tuned = autotune_symbolic(art.a, cfg, parts=parts, fractions=fractions)
    rows = [
        Alg4Row(f"{c.num_parts}p@{c.split_fraction:.2f}", *astuple(c))
        for c in tuned.candidates
    ]
    return Alg4Result(rows, rows[tuned.candidates.index(tuned.best)].abbr)


@dataclass(frozen=True)
class MemoryRow:
    abbr: str
    fraction: float  # of the all-rows scratch requirement
    device_bytes: int
    alg3_s: float
    alg4_s: float
    iterations: int  # of Algorithm 3
    overhead: float  # Algorithm 3 time / in-core time


@dataclass
class MemoryResult(PaperReport):
    rows: list[MemoryRow]
    title = "Ablation — out-of-core overhead vs device memory (§3.2)"
    columns = _columns(MemoryRow)
    gates = (
        Claim(
            "more_memory_ok",
            lambda r: all(
                b.alg3_s <= 1.02 * a.alg3_s and b.iterations < a.iterations
                for a, b in zip(r.rows, r.rows[1:])
            ),
            "more memory: Alg. 3 no slower (2%), fewer iterations",
            lambda r: "/".join(str(x.iterations) for x in r.rows),
            "larger chunks amortize launches until occupancy saturates",
        ),
        Claim(
            "overhead_ok",
            lambda r: all(x.overhead >= 0.99 for x in r.rows)
            and 1.5 < r.rows[0].overhead < 5.0
            and r.rows[0].alg4_s < r.rows[0].alg3_s,
            "overhead >= 0.99; tightest in (1.5, 5), Alg. 4 < Alg. 3",
            lambda r: span(x.overhead for x in r.rows),
            "tight memory hurts, boundedly; Alg. 4 recovers some",
        ),
    )


def run_memory(*, smoke: bool = False, seed: int = 0) -> MemoryResult:
    """Out-of-core overhead of Algorithms 3 and 4 as device memory shrinks
    to fractions of the all-rows scratch requirement (§3.2)."""
    spec, fractions = MEMORY_SMOKE if smoke else MEMORY_FULL
    work = preprocess(prepare(spec, seed=seed).a).matrix
    filled = symbolic_fill_reference(work)
    n = work.n_rows
    # the graph, the factorized matrix and the fill counts, plus 20 %
    resident = int(1.2 * ((n + 1) * 8 + (work.nnz + filled.nnz) * 8 + n * 4))
    per_row = SolverConfig().scratch_bytes_per_row(n)
    all_rows = per_row * n

    def symbolic(device_bytes: int, dynamic: bool):
        device = scaled_device(device_bytes)
        cfg = SolverConfig(device=device, host=scaled_host(8 * device_bytes))
        gpu = GPU(spec=device, host=cfg.host, cost=cfg.cost_model)
        return outofcore_symbolic(gpu, work, cfg, dynamic=dynamic)

    incore = symbolic(resident + all_rows, False).sim_seconds
    rows = []
    for f in fractions:
        device_bytes = resident + max(int(f * all_rows), per_row)
        alg3 = symbolic(device_bytes, False)
        alg4 = symbolic(device_bytes, True).sim_seconds
        row = (device_bytes, alg3.sim_seconds, alg4, alg3.iterations)
        overhead = alg3.sim_seconds / incore
        rows.append(MemoryRow(f"{spec.abbr}@{f:g}", f, *row, overhead))
    return MemoryResult(rows)


@dataclass(frozen=True)
class CostModelRow:
    abbr: str  # the factor applied to every secondary cost-model rate
    rho: float  # Spearman rho(nnz/n, Figure 4 speedup)
    sparsest: float  # the sparsest matrix's Figure 4 speedup
    densest: float


@dataclass
class CostModelResult(PaperReport):
    rows: list[CostModelRow]
    title = "Ablation — Figure 4 under perturbed cost-model constants"
    columns = _columns(CostModelRow)
    gates = (
        Claim(
            "robust_ok",
            lambda r: all(
                x.rho >= 0.85 and x.densest > x.sparsest for x in r.rows
            ),
            "rho >= 0.85 and densest > sparsest at every factor",
            lambda r: "rho " + span((x.rho for x in r.rows), ".3f", ""),
            "Fig. 4's density trend does not hinge on the constants",
        ),
    )


def run_costmodel(*, smoke: bool = False, seed: int = 0) -> CostModelResult:
    """Figure 4's density trend with the secondary cost-model rates (flops,
    launch overhead, PCIe, fault service) scaled by each factor."""
    specs, factors = COSTMODEL_SMOKE if smoke else COSTMODEL_FULL
    cm = DEFAULT_COST_MODEL
    rows = []
    for f in factors:
        cost = replace(
            cm,
            gpu_numeric_flops=cm.gpu_numeric_flops * f,
            host_launch_overhead=cm.host_launch_overhead * f,
            pcie_bandwidth=cm.pcie_bandwidth * f,
            um_fault_group_service=cm.um_fault_group_service * f,
        )
        fig4 = Fig4Result([fig4_row(s, seed, cost_model=cost) for s in specs])
        lo, *_, hi = sorted(fig4.rows, key=lambda x: x.density)
        rho = fig4.density_speedup_correlation()
        rows.append(CostModelRow(f"{f:g}x", rho, lo.speedup, hi.speedup))
    return CostModelResult(rows)


@dataclass(frozen=True)
class SupernodeRow:
    abbr: str
    kind: str
    supernodes: int
    mean_size: float
    coverage: float  # share of columns in supernodes of size >= 2


def _means(r: SupernodeResult) -> list[float]:
    """The FEM rows' and the circuit rows' mean supernode size."""
    kinds = ("fem", "circuit")
    sizes = [[x.mean_size for x in r.rows if x.kind == k] for k in kinds]
    return [sum(s) / len(s) if s else np.nan for s in sizes]


@dataclass
class SupernodeResult(PaperReport):
    rows: list[SupernodeRow]
    title = "Ablation — supernode formation by matrix class (§5)"
    columns = _columns(SupernodeRow)
    gates = (
        Claim(
            "classes_ok",
            lambda r: _means(r)[0] > max(_means(r)[1], 2.0)
            and _means(r)[1] < 2.5,
            "mean size: FEM > circuit, FEM > 2.0, circuit < 2.5",
            lambda r: "FEM {:.2f}, circuit {:.2f}".format(*_means(r)),
            "§5: circuit matrices form few supernodes, FEM matrices do",
        ),
    )


def run_supernodes(*, smoke: bool = False, seed: int = 0) -> SupernodeResult:
    """Supernode formation by matrix class on the filled patterns (§5)."""
    rows = []
    for spec in SUPERNODES_SMOKE if smoke else SUPERNODES_FULL:
        filled = symbolic_fill_reference(prepare(spec, seed=seed).a)
        part = detect_supernodes(filled)
        row = (part.num_supernodes, part.mean_size(), part.coverage())
        rows.append(SupernodeRow(spec.abbr, spec.kind, *row))
    return SupernodeResult(rows)
