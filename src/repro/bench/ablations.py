"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper, but experiments the paper's design decisions
imply and that a reviewer would ask for:

* **levelization executors** (§3.3): dynamic parallelism vs host-launched
  kernels vs serial CPU — quantifies the two benefits the paper claims for
  Algorithm 5 (no host sync, cheaper launches);
* **chunk-size sweep** (§3.2): symbolic time vs out-of-core chunk size —
  shows the occupancy knee the dynamic assignment exploits;
* **split-fraction sweep** (Algorithm 4's 50% threshold): sensitivity of
  the dynamic assignment to where the two parts split;
* **numeric format crossover** (§3.4): dense vs CSC as the device memory
  shrinks — locates the point where the paper's switch rule flips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core import (
    EndToEndLU,
    SolverConfig,
    levelize_cpu_serial,
    levelize_gpu_dynamic,
    levelize_gpu_hostlaunch,
    outofcore_symbolic,
)
from ..gpusim import GPU, scaled_device
from ..graph import build_dependency_graph
from ..preprocess import preprocess
from ..symbolic import symbolic_fill_reference
from ..workloads import MatrixSpec
from .report import format_table
from .runner import prepare


# ---------------------------------------------------------------------------
@dataclass
class LevelizeAblation:
    abbr: str
    dynamic_seconds: float
    hostlaunch_seconds: float
    cpu_serial_seconds: float
    num_levels: int

    @property
    def dynamic_vs_hostlaunch(self) -> float:
        return self.hostlaunch_seconds / self.dynamic_seconds

    def __str__(self) -> str:
        return format_table(
            ["matrix", "dynamic (s)", "host-launch (s)", "cpu serial (s)",
             "levels", "dyn speedup vs host"],
            [(self.abbr, self.dynamic_seconds, self.hostlaunch_seconds,
              self.cpu_serial_seconds, self.num_levels,
              self.dynamic_vs_hostlaunch)],
            title="Ablation — levelization executors (Algorithm 5)",
        )


def run_levelize_ablation(spec: MatrixSpec) -> LevelizeAblation:
    """Compare the three levelization executors on one matrix."""
    art = prepare(spec)
    pre = preprocess(art.a)
    filled = symbolic_fill_reference(pre.matrix)
    graph = build_dependency_graph(filled)
    results = {}
    for name, fn in (
        ("dynamic", levelize_gpu_dynamic),
        ("host", levelize_gpu_hostlaunch),
        ("cpu", levelize_cpu_serial),
    ):
        gpu = art.gpu()
        res = fn(gpu, graph)
        results[name] = res
    return LevelizeAblation(
        abbr=spec.abbr,
        dynamic_seconds=results["dynamic"].sim_seconds,
        hostlaunch_seconds=results["host"].sim_seconds,
        cpu_serial_seconds=results["cpu"].sim_seconds,
        num_levels=results["dynamic"].num_levels,
    )


# ---------------------------------------------------------------------------
@dataclass
class ChunkSweepPoint:
    chunk_rows: int
    symbolic_seconds: float
    iterations: int


@dataclass
class ChunkSweepResult:
    abbr: str
    points: list[ChunkSweepPoint]

    def __str__(self) -> str:
        return format_table(
            ["chunk rows", "symbolic (s)", "iterations"],
            [(p.chunk_rows, p.symbolic_seconds, p.iterations)
             for p in self.points],
            title=f"Ablation — out-of-core chunk-size sweep [{self.abbr}]",
        )


def run_chunk_sweep(
    spec: MatrixSpec, chunk_rows: tuple[int, ...] = (16, 32, 64, 128, 160, 320)
) -> ChunkSweepResult:
    """Symbolic time vs chunk size (device memory resized per point)."""
    a = spec.generate()
    filled = symbolic_fill_reference(a)
    points = []
    for rows in chunk_rows:
        device = spec.device_for_symbolic(a, filled.nnz, chunk_rows=rows)
        cfg = SolverConfig(device=device, host=spec.host_for(device))
        gpu = GPU(spec=device, host=cfg.host, cost=cfg.cost_model)
        pre = preprocess(a, cfg.preprocess)
        sym = outofcore_symbolic(gpu, pre.matrix, cfg, dynamic=False)
        points.append(
            ChunkSweepPoint(rows, sym.sim_seconds, sym.iterations)
        )
        if sym.device_filled is not None:
            gpu.free(sym.device_filled)
        for buf in sym.device_graph:
            gpu.free(buf)
    return ChunkSweepResult(spec.abbr, points)


# ---------------------------------------------------------------------------
@dataclass
class SplitSweepPoint:
    split_fraction: float
    symbolic_seconds: float
    split_point: int | None


@dataclass
class SplitSweepResult:
    abbr: str
    naive_seconds: float
    points: list[SplitSweepPoint]

    def best(self) -> SplitSweepPoint:
        return min(self.points, key=lambda p: p.symbolic_seconds)

    def __str__(self) -> str:
        rows = [("naive", self.naive_seconds, "-")]
        rows += [
            (f"{p.split_fraction:.2f}", p.symbolic_seconds,
             str(p.split_point))
            for p in self.points
        ]
        return format_table(
            ["split fraction", "symbolic (s)", "n1"],
            rows,
            title=f"Ablation — Algorithm 4 split-fraction sweep "
                  f"[{self.abbr}]",
        )


def run_split_sweep(
    spec: MatrixSpec,
    fractions: tuple[float, ...] = (0.125, 0.25, 0.5, 0.75, 0.9),
) -> SplitSweepResult:
    """Sensitivity of the dynamic assignment to the split threshold."""
    art = prepare(spec)
    pre = preprocess(art.a)

    def run(dynamic: bool, fraction: float = 0.5):
        cfg = art.config(split_fraction=fraction)
        gpu = art.gpu(cfg)
        sym = outofcore_symbolic(gpu, pre.matrix, cfg, dynamic=dynamic)
        return sym

    naive = run(False)
    points = []
    for f in fractions:
        sym = run(True, f)
        points.append(SplitSweepPoint(f, sym.sim_seconds, sym.split_point))
    return SplitSweepResult(spec.abbr, naive.sim_seconds, points)


# ---------------------------------------------------------------------------
@dataclass
class FormatCrossoverPoint:
    device_mb: float
    m_dense: int
    tb_max: int
    auto_format: str
    dense_seconds: float
    csc_seconds: float
    #: per run ("dense", "csc", "auto"): the filled matrix did not fit
    #: the device, so the run took the streamed executor, which is
    #: CSC-only and outside the §3.4 rule
    streamed_runs: dict[str, bool]

    @property
    def streamed(self) -> bool:
        return any(self.streamed_runs.values())


@dataclass
class FormatCrossoverResult:
    abbr: str
    points: list[FormatCrossoverPoint]

    def rule_respected(self) -> bool:
        """The auto mode must implement exactly the §3.4 switch rule,
        CSC iff ``M < TB_max``, at every in-core point, with in-core
        points on both sides of ``TB_max``; at a streamed point all
        three runs must have streamed."""
        in_core = [p for p in self.points if not p.streamed]
        return (
            all(
                p.auto_format == ("csc" if p.m_dense < p.tb_max else "dense")
                for p in in_core
            )
            and any(p.m_dense < p.tb_max for p in in_core)
            and any(p.m_dense >= p.tb_max for p in in_core)
            and all(
                all(p.streamed_runs.values())
                for p in self.points
                if p.streamed
            )
        )

    def csc_never_slower(self, tolerance: float = 0.10) -> bool:
        """Observation beyond the paper: because the dense format pays the
        per-column pack/unpack traffic even at full occupancy, sorted CSC
        is competitive on these mesh matrices at *every* memory size — the
        paper's rule is a memory-feasibility rule, not an optimality rule.
        """
        return all(
            p.csc_seconds <= p.dense_seconds * (1 + tolerance)
            for p in self.points
        )

    def __str__(self) -> str:
        return format_table(
            ["device MB", "M dense", "auto picks", "dense (s)", "csc (s)",
             "streamed"],
            [(p.device_mb, p.m_dense, p.auto_format, p.dense_seconds,
              p.csc_seconds, "yes" if p.streamed else "no")
             for p in self.points],
            title=f"Ablation — numeric-format crossover [{self.abbr}]",
        )


def run_format_crossover(
    spec: MatrixSpec, scale_factors: tuple[float, ...] = (0.4, 0.8, 1.5, 4.0)
) -> FormatCrossoverResult:
    """Dense vs CSC numeric time as device memory shrinks past the §3.4
    threshold (scale factors multiply the Table 4 sizing)."""
    a = spec.generate()
    filled = symbolic_fill_reference(a)
    base = spec.device_for_numeric(a, filled.nnz)
    points = []
    for f in scale_factors:
        device = scaled_device(int(base.memory_bytes * f))
        host = spec.host_for(device)
        times = {}
        streamed = {}
        m_dense = 0
        auto_fmt = ""
        for fmt in ("dense", "csc", "auto"):
            cfg = SolverConfig(device=device, host=host, numeric_format=fmt)
            res = EndToEndLU(cfg).factorize(a)
            streamed[fmt] = res.symbolic.device_filled is None
            if fmt == "auto":
                auto_fmt = res.numeric.data_format
            else:
                times[fmt] = res.breakdown().numeric
            if fmt == "dense":
                m_dense = res.numeric.max_parallel_columns
        points.append(
            FormatCrossoverPoint(
                device_mb=device.memory_bytes / 2**20,
                m_dense=m_dense,
                tb_max=device.max_concurrent_blocks,
                auto_format=auto_fmt,
                dense_seconds=times["dense"],
                csc_seconds=times["csc"],
                streamed_runs=streamed,
            )
        )
    return FormatCrossoverResult(spec.abbr, points)


# ---------------------------------------------------------------------------
@dataclass
class PartsSweepPoint:
    num_parts: int
    symbolic_seconds: float
    iterations: int


@dataclass
class PartsSweepResult:
    """Generalized Algorithm 4: gain vs number of parts (§3.2's "more than
    2 phases can be explored, but it will also imply more kernel
    launches")."""

    abbr: str
    points: list[PartsSweepPoint]

    def best(self) -> PartsSweepPoint:
        return min(self.points, key=lambda p: p.symbolic_seconds)

    def __str__(self) -> str:
        return format_table(
            ["parts", "symbolic (s)", "iterations"],
            [(p.num_parts, p.symbolic_seconds, p.iterations)
             for p in self.points],
            title=f"Ablation — multi-part dynamic assignment [{self.abbr}]",
        )


def run_parts_sweep(
    spec: MatrixSpec, parts: tuple[int, ...] = (1, 2, 3, 4, 6)
) -> PartsSweepResult:
    """Symbolic time vs the number of dynamic-assignment parts."""
    art = prepare(spec)
    pre = preprocess(art.a)
    points = []
    for k in parts:
        gpu = art.gpu()
        sym = outofcore_symbolic(
            gpu, pre.matrix, art.config(), num_parts=k
        )
        points.append(
            PartsSweepPoint(k, sym.sim_seconds, sym.iterations)
        )
    return PartsSweepResult(art.abbr, points)


# ---------------------------------------------------------------------------
@dataclass
class SchedulingComparison:
    """Elimination-tree vs levelization scheduling (§3.3's two families)."""

    abbr: str
    levelize_levels: int
    etree_levels: int
    levelize_numeric_seconds: float
    etree_numeric_seconds: float

    @property
    def levelize_speedup(self) -> float:
        return self.etree_numeric_seconds / self.levelize_numeric_seconds

    def __str__(self) -> str:
        return format_table(
            ["matrix", "levelize levels", "etree levels",
             "levelize num (s)", "etree num (s)", "levelize speedup"],
            [(self.abbr, self.levelize_levels, self.etree_levels,
              self.levelize_numeric_seconds, self.etree_numeric_seconds,
              self.levelize_speedup)],
            title="Ablation — etree vs levelization scheduling",
        )


def run_scheduling_comparison(spec: MatrixSpec) -> SchedulingComparison:
    """Numeric-phase time under the two schedulers on a structurally
    symmetric (FEM) matrix, where etree scheduling is valid."""
    from ..graph import etree_schedule, kahn_levels
    from ..core import numeric_factorize_gpu

    art = prepare(spec)
    pre = preprocess(art.a)
    filled = symbolic_fill_reference(pre.matrix)
    graph = build_dependency_graph(filled)
    lev = kahn_levels(graph)
    et = etree_schedule(filled)
    et.validate_against(graph)  # only valid schedules are compared

    times = {}
    for name, sched in (("levelize", lev), ("etree", et)):
        gpu = art.gpu()
        res = numeric_factorize_gpu(
            gpu, filled.to_csc(), filled, sched, art.config()
        )
        times[name] = res.sim_seconds
    return SchedulingComparison(
        abbr=art.abbr,
        levelize_levels=lev.num_levels,
        etree_levels=et.num_levels,
        levelize_numeric_seconds=times["levelize"],
        etree_numeric_seconds=times["etree"],
    )


# ---------------------------------------------------------------------------
@dataclass
class RobustnessResult:
    """Fig. 4's qualitative claims under cost-model perturbation.

    The reproduction's conclusions should not hinge on the exact calibrated
    constants: perturbing every throughput/overhead by 2x in either
    direction must keep the speedup-vs-density correlation high and the
    densest/sparsest ordering intact.
    """

    factors: list[float]
    correlations: list[float]
    orderings_hold: list[bool]

    def all_hold(self, min_corr: float = 0.85) -> bool:
        return all(c >= min_corr for c in self.correlations) and all(
            self.orderings_hold
        )

    def __str__(self) -> str:
        return format_table(
            ["perturbation", "spearman corr", "dense>sparse"],
            [(f, c, o) for f, c, o in zip(
                self.factors, self.correlations, self.orderings_hold)],
            title="Ablation — Fig. 4 robustness to cost-model constants",
        )


def run_robustness(
    specs, factors: tuple[float, ...] = (0.5, 1.0, 2.0)
) -> RobustnessResult:
    """Re-run a Fig. 4 subset with all rate constants scaled by ``f``."""
    from ..gpusim import DEFAULT_COST_MODEL

    correlations, orderings = [], []
    for f in factors:
        cm = replace(
            DEFAULT_COST_MODEL,
            gpu_traversal_edges_per_s=DEFAULT_COST_MODEL.gpu_traversal_edges_per_s,
            gpu_numeric_flops=DEFAULT_COST_MODEL.gpu_numeric_flops * f,
            host_launch_overhead=DEFAULT_COST_MODEL.host_launch_overhead * f,
            pcie_bandwidth=DEFAULT_COST_MODEL.pcie_bandwidth * f,
            um_fault_group_service=(
                DEFAULT_COST_MODEL.um_fault_group_service * f
            ),
        )
        rows = []
        for spec in specs:
            art = prepare(spec)
            from .runner import run_glu3, run_outofcore

            glu = run_glu3(art, cost_model=cm)
            ooc = run_outofcore(art, cost_model=cm)
            rows.append(
                (spec.paper_density,
                 glu.sim_seconds / ooc.sim_seconds)
            )
        rows.sort()
        speeds = [s for _, s in rows]
        rd = np.argsort(np.argsort([d for d, _ in rows])).astype(float)
        rs = np.argsort(np.argsort(speeds)).astype(float)
        rd -= rd.mean()
        rs -= rs.mean()
        denom = float(np.sqrt((rd**2).sum() * (rs**2).sum()))
        correlations.append(float((rd * rs).sum() / denom) if denom else 0.0)
        orderings.append(speeds[-1] > speeds[0])
    return RobustnessResult(
        factors=list(factors),
        correlations=correlations,
        orderings_hold=orderings,
    )


# ---------------------------------------------------------------------------
@dataclass
class SupernodeAblation:
    """§5's qualitative claim: circuit matrices don't form supernodes
    (why the paper follows the per-column KLU/GLU lineage), FEM matrices
    do (why SuperLU's supernodal approach exists)."""

    rows: list[tuple[str, str, int, float, float]]
    # (abbr, kind, num_supernodes, mean size, coverage>=2)

    def fem_mean(self) -> float:
        vals = [m for _, k, _, m, _ in self.rows if k == "fem"]
        return sum(vals) / len(vals) if vals else 0.0

    def circuit_mean(self) -> float:
        vals = [m for _, k, _, m, _ in self.rows if k == "circuit"]
        return sum(vals) / len(vals) if vals else 0.0

    def claim_holds(self) -> bool:
        return self.fem_mean() > self.circuit_mean()

    def __str__(self) -> str:
        return format_table(
            ["matrix", "kind", "#supernodes", "mean size", "coverage>=2"],
            self.rows,
            title="Ablation — supernode formation by matrix class (§5)",
        )


def run_supernode_ablation(specs) -> SupernodeAblation:
    """Detect supernodes on the filled patterns of ``specs``."""
    from ..graph import detect_supernodes

    rows = []
    for spec in specs:
        a = spec.generate()
        filled = symbolic_fill_reference(a)
        part = detect_supernodes(filled)
        rows.append(
            (spec.abbr, spec.kind, part.num_supernodes,
             part.mean_size(), part.coverage())
        )
    return SupernodeAblation(rows=rows)


# ---------------------------------------------------------------------------
@dataclass
class SparsifyAblation:
    """GLU 3.0-style relaxed dependency detection (§5): pruning edges that
    a longer path already implies shrinks Algorithm 5's per-wave work."""

    abbr: str
    edges_before: int
    edges_after: int
    levelize_before: float
    levelize_after: float

    @property
    def edge_reduction(self) -> float:
        return 1.0 - self.edges_after / max(self.edges_before, 1)

    @property
    def speedup(self) -> float:
        return self.levelize_before / self.levelize_after

    def __str__(self) -> str:
        return format_table(
            ["matrix", "edges", "critical edges", "removed %",
             "levelize (s)", "pruned (s)", "speedup"],
            [(self.abbr, self.edges_before, self.edges_after,
              100 * self.edge_reduction, self.levelize_before,
              self.levelize_after, self.speedup)],
            title="Ablation — dependency-edge pruning for levelization",
        )


def run_sparsify_ablation(spec: MatrixSpec) -> SparsifyAblation:
    """Levelization cost on the full vs the level-critical edge set."""
    from ..core import levelize_gpu_dynamic
    from ..graph import kahn_levels, sparsify_for_levels

    art = prepare(spec)
    pre = preprocess(art.a)
    filled = symbolic_fill_reference(pre.matrix)
    graph = build_dependency_graph(filled)
    schedule = kahn_levels(graph)
    reduced, stats = sparsify_for_levels(graph, schedule)

    g_full, g_red = art.gpu(), art.gpu()
    full = levelize_gpu_dynamic(g_full, graph)
    red = levelize_gpu_dynamic(g_red, reduced)
    assert (full.schedule.level_of == red.schedule.level_of).all()
    return SparsifyAblation(
        abbr=art.abbr,
        edges_before=stats.edges_before,
        edges_after=stats.edges_after,
        levelize_before=full.sim_seconds,
        levelize_after=red.sim_seconds,
    )


# ---------------------------------------------------------------------------
@dataclass
class DtypeAblation:
    """§3.4 dtype sensitivity: M = L/(n x sizeof(dtype)), so float64
    halves the dense format's parallel-column budget."""

    abbr: str
    m_f32: int
    m_f64: int
    format_f32: str
    format_f64: str

    def halving_holds(self) -> bool:
        return abs(self.m_f64 - self.m_f32 // 2) <= 1

    def __str__(self) -> str:
        return format_table(
            ["matrix", "M (float32)", "M (float64)", "auto f32", "auto f64"],
            [(self.abbr, self.m_f32, self.m_f64, self.format_f32,
              self.format_f64)],
            title="Ablation — value-dtype sensitivity of the §3.4 rule",
        )


def run_dtype_ablation(spec: MatrixSpec) -> DtypeAblation:
    """The dense-format cap under float32 vs float64 on a Table 4 device."""
    import numpy as _np

    from ..core import choose_format
    from ..gpusim import GPU

    art = prepare(spec, for_numeric=True)
    n = art.a.n_rows
    out = {}
    for dt in (_np.float32, _np.float64):
        cfg = art.config(value_dtype=_np.dtype(dt))
        gpu = GPU(spec=art.device, host=art.host)
        # make the pipeline residents present, as choose_format expects
        gpu.malloc((n + 1) * 4 + art.a.nnz * 8, "graph")
        gpu.malloc((n + 1) * 4 + art.filled_nnz * 8, "factorized matrix")
        fmt, _ = choose_format(gpu, n, cfg)
        m = cfg.dense_parallel_columns(n, gpu.free_bytes)
        out[dt] = (m, fmt)
    return DtypeAblation(
        abbr=art.abbr,
        m_f32=out[_np.float32][0],
        m_f64=out[_np.float64][0],
        format_f32=out[_np.float32][1],
        format_f64=out[_np.float64][1],
    )


# ---------------------------------------------------------------------------
@dataclass
class SchedulingValueAblation:
    """§2.2's motivation for the hybrid column algorithm: levelized
    scheduling vs the traditional serial column order."""

    abbr: str
    levelized_seconds: float
    serial_seconds: float
    num_levels: int
    n: int

    @property
    def speedup(self) -> float:
        return self.serial_seconds / self.levelized_seconds

    def __str__(self) -> str:
        return format_table(
            ["matrix", "n", "levels", "levelized (s)", "serial (s)",
             "speedup"],
            [(self.abbr, self.n, self.num_levels, self.levelized_seconds,
              self.serial_seconds, self.speedup)],
            title="Ablation — levelized vs serial column scheduling (§2.2)",
        )


def run_scheduling_value(spec: MatrixSpec) -> SchedulingValueAblation:
    """Numeric time under the level schedule vs one-column-per-level."""
    import numpy as _np

    from ..core import numeric_factorize_gpu
    from ..graph import LevelSchedule, kahn_levels
    from ..sparse.types import INDEX_DTYPE

    art = prepare(spec)
    pre = preprocess(art.a)
    filled = symbolic_fill_reference(pre.matrix)
    graph = build_dependency_graph(filled)
    lev = kahn_levels(graph)
    serial = LevelSchedule(
        level_of=_np.arange(filled.n_rows, dtype=INDEX_DTYPE)
    )

    g1, g2 = art.gpu(), art.gpu()
    r_lev = numeric_factorize_gpu(
        g1, filled.to_csc(), filled, lev, art.config()
    )
    r_ser = numeric_factorize_gpu(
        g2, filled.to_csc(), filled, serial, art.config()
    )
    assert r_lev.As.allclose(r_ser.As)  # schedules are a time knob only
    return SchedulingValueAblation(
        abbr=art.abbr,
        levelized_seconds=r_lev.sim_seconds,
        serial_seconds=r_ser.sim_seconds,
        num_levels=lev.num_levels,
        n=filled.n_rows,
    )


# ---------------------------------------------------------------------------
@dataclass
class KernelModeAblation:
    """GLU 3.0's adaptive type-A/B/C kernel modes vs forcing one mode."""

    abbr: str
    adaptive_seconds: float
    forced_seconds: dict[str, float]

    def adaptive_never_worse(self, tolerance: float = 0.02) -> bool:
        return all(
            self.adaptive_seconds <= t * (1 + tolerance)
            for t in self.forced_seconds.values()
        )

    def __str__(self) -> str:
        rows = [("adaptive", self.adaptive_seconds, 1.0)]
        rows += [
            (f"forced {m}", t, t / self.adaptive_seconds)
            for m, t in sorted(self.forced_seconds.items())
        ]
        return format_table(
            ["kernel mode", "numeric (s)", "vs adaptive"],
            rows,
            title=f"Ablation — type A/B/C kernel modes [{self.abbr}]",
        )


def run_kernel_mode_ablation(spec: MatrixSpec) -> KernelModeAblation:
    """Numeric time with adaptive vs single forced kernel modes."""
    from ..core import numeric_factorize_gpu
    from ..graph import kahn_levels

    art = prepare(spec)
    pre = preprocess(art.a)
    filled = symbolic_fill_reference(pre.matrix)
    lev = kahn_levels(build_dependency_graph(filled))

    def run(mode):
        gpu = art.gpu()
        res = numeric_factorize_gpu(
            gpu,
            filled.to_csc(),
            filled,
            lev,
            art.config(),
            kernel_mode_override=mode,
        )
        return res.sim_seconds

    return KernelModeAblation(
        abbr=art.abbr,
        adaptive_seconds=run(None),
        forced_seconds={m: run(m) for m in ("A", "B", "C")},
    )
