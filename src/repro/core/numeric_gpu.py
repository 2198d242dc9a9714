"""GPU numeric factorization with memory-limit-free parallelism (§3.4).

Wraps the level-scheduled hybrid right-looking kernel with the paper's
working-format decision:

* **dense format** (GLU/GLU 3.0 heritage): each in-flight column occupies an
  ``n``-element dense buffer, so at most ``M = L / (n x sizeof(dtype))``
  columns can be resident — when ``M < TB_max`` the device runs
  under-occupied (Table 4's ``max #blocks`` column).  Dense columns are
  scattered from / gathered back to the sparse store, charged as HBM
  traffic.
* **sorted-CSC format** (the paper's contribution, Algorithm 6): columns
  stay sparse, every access binary-searches the sorted row ids (probe steps
  are charged per the cost model), and the concurrency cap returns to
  ``TB_max`` — the Fig. 8 mechanism.

``numeric_format="auto"`` applies the §3.4 switch rule
``n > L / (TB_max x sizeof(dtype))``.

Kernel-launch structure follows GLU 3.0's level taxonomy (§2.2):

* **type A** (many columns, few sub-columns): one kernel per level, one
  thread block per column — column count carries the parallelism;
* **type B** (transitional): one kernel per level, a block per column with
  up to ``WARP_TEAMS_PER_BLOCK`` warp teams over its sub-columns — more
  concurrency than A, but capped by the block's thread budget;
* **type C** (few columns, many sub-columns): one kernel call *per column*
  with a block per sub-column — maximal sub-column concurrency at the
  price of per-column launch overhead.

:meth:`_LaunchInputs.table` is the one home of this rule: it builds a
pass's launches as arrays (a :class:`LaunchTable`) from the pattern's
cached launch inputs and the pass's ``per_level`` stats, and every
executor reads its launches from it — the multi-GPU executor per device,
on the columns each one owns.

The ablation ``repro ablate-numeric`` gates the adaptive choice within
5 % of forcing any single mode.

On a bare :class:`~repro.gpusim.GPU` (its exact type, no proxy) a pass
makes no launch call: the cost model prices the whole table at once and
:meth:`LaunchTable.tape` lays the ledger calls out as one
:class:`~repro.gpusim.ledger.ChargeTape`, booked with one
:meth:`~repro.gpusim.ledger.TimeLedger.replay`.  The replay adds each
bucket's charges left to right, so every total, phase and counter is
bitwise what one-at-a-time booking gives.  The pattern's launch inputs
keep one tape per format and kernel-mode override, reused while the
concurrency cap, ``n``, value bytes, cost model, device and
``per_level`` stats equal the ones it was built for and replaced
otherwise.  A proxy stack (tracing, fault injection, retry, streams)
issues every launch of the table in the same order, so each of its
layers still sees every ``DeviceOp``.

With ``SolverConfig.supernodal`` the per-level scattered charging above is
replaced by the blocked panel-wave schedule of
:mod:`repro.numeric.supernodal`: singleton panels keep the scattered
kernel (circuit-class matrices stay on the oracle's cost shape), while
multi-column panels charge dense-block panel factor / panel-panel update
kernels (``GPU.launch_panel``) with no binary-search term.  Values are
*always* produced by :func:`factorize_with_pivot_recovery` either way —
the per-column kernel is the differential oracle, and the supernodal path
only re-models the timeline (factors, fill and pivots bitwise-identical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FlopConservationError, SingularMatrixError
from ..gpusim import GPU, CostModel, DeviceSpec
from ..gpusim.ledger import ChargeTape
from ..graph import LevelSchedule, sub_column_counts
from ..numeric import NumericStats, extract_lu, factorize_in_place
from ..numeric.supernodal import SupernodalPlan, supernodal_plan_for
from ..sparse import CSCMatrix, CSRMatrix
from ..sparse.pattern import LUSplit
from .config import SolverConfig
from .resilient import PIVOT_PERTURBATION_REL, recovery_log_of

#: warp teams a type-B block spreads over its column's sub-columns (block
#: thread budget / warp size / lanes per team).
WARP_TEAMS_PER_BLOCK = 8


@dataclass
class NumericResult:
    """Factorized matrix + execution record of the numeric phase."""

    As: CSCMatrix  # in-place factorized: L below diagonal (unit), U above
    stats: NumericStats
    data_format: str  # "dense" or "csc"
    max_parallel_columns: int  # M for dense, TB_max for csc
    sim_seconds: float
    #: which charging schedule ran: "per-column" or "supernodal"
    numeric_path: str = "per-column"
    #: supernodal summary (zeros on the per-column path)
    panels: int = 0
    panel_waves: int = 0
    singleton_panels: int = 0
    panel_coverage: float = 0.0

    def factors(
        self, split: LUSplit | None = None
    ) -> tuple[CSCMatrix, CSCMatrix]:
        """``(L, U)`` of :attr:`As`; ``split`` is the kept structure of
        its pattern (a refactorize pass has one)."""
        return extract_lu(self.As, split)

    @property
    def perturbed_columns(self) -> tuple[int, ...]:
        """Columns recovered by static pivot perturbation (rung 3)."""
        return tuple(self.stats.perturbed_columns)


def factorize_with_pivot_recovery(
    gpu: GPU,
    As: CSCMatrix,
    filled: CSRMatrix,
    schedule: LevelSchedule,
    config: SolverConfig,
    *,
    count_search_steps: bool,
) -> NumericStats:
    """Run :func:`factorize_in_place` with recovery rung 3 attached.

    Without ``config.resilience`` this is a plain pass-through (zero
    copies, historical behaviour).  With it, the values are snapshotted first;
    on :class:`~repro.errors.SingularMatrixError` they are restored and
    the factorization re-runs with static pivot perturbation sized
    relative to ``max|A|``.  The recovery is recorded in the ledger
    (``pivot_recoveries``) and the run's :class:`RecoveryLog`.
    """
    backup = As.data.copy() if config.resilience else None
    try:
        return factorize_in_place(
            As,
            filled,
            schedule,
            pivot_tolerance=config.pivot_tolerance,
            count_search_steps=count_search_steps,
        )
    except SingularMatrixError as exc:
        if backup is None:
            raise
        As.data[:] = backup  # the failed attempt mutated values in place
        scale = float(np.max(np.abs(backup))) if As.nnz else 0.0
        perturb = PIVOT_PERTURBATION_REL * (scale or 1.0)
        stats = factorize_in_place(
            As,
            filled,
            schedule,
            pivot_tolerance=config.pivot_tolerance,
            count_search_steps=count_search_steps,
            pivot_perturbation=perturb,
        )
        gpu.ledger.count("pivot_recoveries")
        log = recovery_log_of(gpu)
        if log is not None:
            log.record(
                "pivot-perturb",
                f"column {exc.column}",
                1,
                gpu.ledger.total_seconds,
                detail=(
                    f"{len(stats.perturbed_columns)} column(s) "
                    f"perturbed to ±{perturb:.3e}"
                ),
            )
        return stats


@dataclass(frozen=True, slots=True)
class LaunchTable:
    """The numeric launches of one device, as arrays (GLU 3.0's A/B/C
    rule, §2.2).

    ``tags`` has the A/B/C tag of every level and ``hbm`` its dense-format
    HBM bytes (0 where it books none).  ``level`` and ``launch`` have one
    row per launch, in booking order (levels ascending, a type-C level's
    columns in the level's order): its level and its ``(flops, blocks,
    search_steps)``.
    """

    tags: np.ndarray
    level: np.ndarray
    launch: np.ndarray
    hbm: np.ndarray

    def launches(self) -> list[list[list[int]]]:
        """The ``[flops, blocks, search_steps]`` launches of each level."""
        levels = np.arange(len(self.tags) + 1)
        bounds = np.searchsorted(self.level, levels).tolist()
        rows = self.launch.tolist()
        return [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def tape(self, cost: CostModel, spec: DeviceSpec, cap: int) -> ChargeTape:
        """The ledger calls of booking every launch on a bare :class:`GPU`:
        per launch its overhead (no category), then its compute charge
        (``gpu_compute``); each level's HBM charge after its launches."""
        flops, blocks, search = self.launch.T
        pairs = np.empty((len(flops), 2))
        pairs[:, 0] = cost.launch_seconds(from_device=False)
        pairs[:, 1] = cost.gpu_numeric_seconds(
            flops, blocks, cap, spec, search_steps=search
        )
        dense = np.flatnonzero(self.hbm)
        at = 2 * np.searchsorted(self.level, dense, side="right")
        hbm = cost.hbm_seconds(self.hbm[dense])
        seconds = np.insert(pairs.ravel(), at, hbm)
        mask = np.insert(np.tile([0, 1], len(flops)), at, 1)
        counters = ["numeric_kernel_launches", "kernel_launches"]
        counts = dict.fromkeys(counters if len(flops) else [], len(flops))
        if len(dense):
            counts["bytes_hbm"] = int(self.hbm.sum())
        return ChargeTape(seconds, {"gpu_compute": mask}, counts)


class _LaunchInputs:
    """Structure-only inputs of the per-level launches of one pattern.

    The sub-column count of every column, every column in level order
    with its level, the ``(blocks, flop share)`` of every column as a
    type-C launch and the A/B/C tags (per ``kernel_mode_override``)
    depend only on the filled pattern.  They live in the schedule's plan
    store (:class:`~repro.graph.PatternPlans`), so a refactorize pass and
    the multi-GPU executor read them instead of re-deriving them.
    """

    def __init__(self, filled: CSRMatrix, schedule: LevelSchedule) -> None:
        self.sub_cols = sub_column_counts(filled)
        ncols = schedule.columns_per_level()
        self.order = np.concatenate([np.zeros(0, np.int64), *schedule.levels])
        self.col_level = np.repeat(np.arange(len(ncols)), ncols)
        # a type-C launch takes each column's share of the level's
        # sub-column updates (uniform splitting would charge light
        # columns heavy work at tiny occupancy)
        sub = self.sub_cols[self.order]
        weight = (sub + 1).astype(np.float64)
        total = np.bincount(self.col_level, weights=weight)
        self.c_blocks = np.maximum(sub, 1)
        self.c_share = weight / total[self.col_level]
        self._tags: dict[str | None, np.ndarray] = {}
        #: the charge tape of a bare GPU per (format, override), with the
        #: (cap, n, value bytes, cost model, device, ``per_level``) it
        #: was built for
        self.tapes: dict[tuple, tuple[tuple, ChargeTape]] = {}

    def tags(self, schedule: LevelSchedule, mode: str | None) -> np.ndarray:
        """The A/B/C tag of every level, or ``mode`` on every level."""
        tags = self._tags.get(mode)
        if tags is None:
            if mode is None:
                tags = np.array(schedule.classify_levels(self.sub_cols))
            else:
                tags = np.full(schedule.num_levels, mode)
            self._tags[mode] = tags
        return tags

    def table(
        self,
        per_level: list[tuple[int, int, int, int]],
        tags: np.ndarray,
        *,
        dense_col_bytes: int = 0,
        own: np.ndarray | None = None,
        share: np.ndarray | None = None,
    ) -> LaunchTable:
        """The launches of a pass whose stats are ``per_level``.

        Each entry of ``per_level`` is a level's ``(flops, columns,
        sub-column updates, search steps)``.  A device that runs the
        columns ``own`` (a mask over :attr:`order`; all by default),
        carrying ``share`` of each level's structural work, books:

        * **type A** — one kernel, one block per column;
        * **type B** — one kernel, a block per column with warp teams over
          its sub-columns: the blocks count sub-column work groups,
          capped by the block's thread budget;
        * **type C** — one kernel per column, each with a block per
          sub-column and its :attr:`c_share` of the level's flops and
          search steps.

        A and B scale the level's totals by ``share``.  In dense format
        each column is scattered into its dense buffer and gathered
        back: ``2 x dense_col_bytes`` of HBM traffic per column.  A level
        with no columns (or none of the device's) books nothing.
        """
        stat = np.zeros((len(tags), 4), dtype=np.int64)
        if per_level:
            stat[: len(per_level)] = per_level[: len(tags)]
        pick = np.ones(len(self.order), dtype=bool) if own is None else own
        cols = np.bincount(self.col_level[pick], minlength=len(tags))
        active = (stat[:, 1] != 0) & (cols != 0)
        is_c = tags == "C"
        ab = np.flatnonzero(active & ~is_c)
        f, _, u, s = stat[ab].T
        if share is not None:
            f, u, s = (
                np.rint(x * share[ab]).astype(np.int64) for x in (f, u, s)
            )
        k = cols[ab]
        b = np.maximum(k, np.minimum(u, k * WARP_TEAMS_PER_BLOCK))
        ab_launch = np.column_stack([f, np.where(tags[ab] == "A", k, b), s])
        pick = pick & (active & is_c)[self.col_level]
        c_lv = self.col_level[pick]
        c_work = stat[c_lv][:, [0, 3]] * self.c_share[pick, None]
        c_flops, c_search = c_work.astype(np.int64).T
        c_launch = np.column_stack([c_flops, self.c_blocks[pick], c_search])
        launch = np.concatenate([ab_launch, c_launch])
        np.maximum(launch[:, 0], 1, out=launch[:, 0])
        level = np.concatenate([ab, c_lv])
        seq = np.argsort(level, kind="stable")
        return LaunchTable(
            tags,
            level[seq],
            launch[seq],
            np.where(active, 2 * cols * dense_col_bytes, 0),
        )


def launch_inputs(filled: CSRMatrix, schedule: LevelSchedule) -> _LaunchInputs:
    """The launch inputs of ``filled``, built on first use."""
    plans = schedule.plans_for(filled.n_rows, filled.nnz)
    if plans.launch is None:
        plans.launch = _LaunchInputs(filled, schedule)
    return plans.launch


def _charge_per_column(
    gpu: GPU,
    filled: CSRMatrix,
    schedule: LevelSchedule,
    stats: NumericStats,
    fmt: str,
    cap: int,
    n: int,
    value_bytes: int,
    kernel_mode_override: str | None,
) -> None:
    """Book the scattered per-level schedule (:meth:`_LaunchInputs.table`).

    A bare :class:`GPU` books the table's :meth:`LaunchTable.tape` with
    one :meth:`~repro.gpusim.ledger.TimeLedger.replay` and keeps it for
    the next pass; a proxy stack issues every launch.
    """
    if kernel_mode_override not in (None, "A", "B", "C"):
        raise ValueError("kernel_mode_override must be A, B or C")
    inputs = launch_inputs(filled, schedule)
    # a proxy stack must see every launch, so only a bare GPU replays
    bare = type(gpu) is GPU
    key = (fmt, kernel_mode_override)
    current = (cap, n, value_bytes, gpu.cost, gpu.spec, list(stats.per_level))
    cached = inputs.tapes.get(key) if bare else None
    if cached is not None and cached[0] == current:
        gpu.ledger.replay(cached[1])
        return
    table = inputs.table(
        stats.per_level,
        inputs.tags(schedule, kernel_mode_override),
        dense_col_bytes=n * value_bytes if fmt == "dense" else 0,
    )
    if bare:
        tape = table.tape(gpu.cost, gpu.spec, cap)
        inputs.tapes[key] = (current, tape)
        gpu.ledger.replay(tape)
        return
    ledger = gpu.ledger
    for launches, hbm in zip(table.launches(), table.hbm.tolist()):
        for flops, blocks, search in launches:
            ledger.count("numeric_kernel_launches")
            gpu.launch_numeric(
                flops, blocks, concurrency_cap=cap, search_steps=search
            )
        if hbm:
            gpu.hbm_traffic(hbm)


def _charge_supernodal(
    gpu: GPU,
    plan: SupernodalPlan,
    fmt: str,
    cap: int,
    n: int,
    value_bytes: int,
) -> None:
    """Book the blocked panel-wave schedule (at most 3 kernels a wave).

    Nested phases split the numeric bucket: ``numeric-columns`` holds the
    scattered singleton kernels (oracle cost shape), ``numeric-panels``
    the dense-block ones — ``breakdown()`` still reads the enclosing
    ``numeric`` phase, benches read the split.  Singleton binary-search
    probes are charged only in CSC format, exactly like the per-column
    path; multi panels never probe (structure resolved once per panel).
    """
    ledger = gpu.ledger
    for w in plan.waves:
        if w.singleton_cols:
            ledger.count("numeric_kernel_launches")
            with ledger.phase("numeric-columns"):
                gpu.launch_numeric(
                    max(1, w.singleton_flops),
                    w.singleton_blocks,
                    concurrency_cap=cap,
                    search_steps=(w.singleton_search if fmt == "csc" else 0),
                )
        if w.multi_panels:
            with ledger.phase("numeric-panels"):
                ledger.count("numeric_kernel_launches")
                gpu.launch_panel(
                    max(1, w.factor_flops),
                    max(1, w.factor_tiles),
                    kind="panel-factor",
                )
                if w.update_flops:
                    ledger.count("numeric_kernel_launches")
                    gpu.launch_panel(
                        w.update_flops,
                        max(1, w.update_tiles),
                        kind="panel-update",
                    )
        if fmt == "dense" and w.cols:
            gpu.hbm_traffic(2 * w.cols * n * value_bytes)


def choose_format(gpu: GPU, n: int, config: SolverConfig) -> tuple[str, int]:
    """Apply the §3.4 rule; returns (format, concurrency cap).

    The dense cap ``M`` is computed from the *currently free* device memory
    (what remains after the factorized matrix and graph are resident) —
    those are the bytes dense column buffers could actually claim.
    """
    tb_max = gpu.spec.max_concurrent_blocks
    m_dense = config.dense_parallel_columns(n, gpu.free_bytes)
    if config.numeric_format == "dense":
        return "dense", min(m_dense, tb_max)
    if config.numeric_format == "csc":
        return "csc", tb_max
    # auto: switch to CSC when dense cannot reach full occupancy
    if m_dense < tb_max:
        return "csc", tb_max
    return "dense", tb_max


def numeric_factorize_gpu(
    gpu: GPU,
    As: CSCMatrix,
    filled: CSRMatrix,
    schedule: LevelSchedule,
    config: SolverConfig,
    *,
    as_resident: bool = False,
    kernel_mode_override: str | None = None,
) -> NumericResult:
    """Factorize the filled matrix on the simulated GPU.

    Parameters
    ----------
    As:
        The filled matrix in sorted CSC — original values with explicit
        zeros at fill positions.  Factorized in place unless its dtype
        differs from ``config.compute_dtype`` (then a converted copy is).
        A caller holding only the CSR passes ``filled.to_csc()``.
    filled:
        The same filled pattern in CSR (symbolic result); only its
        structure is read.
    schedule:
        Level schedule (columns per level) from the levelization phase.
    as_resident:
        True when the factorized-matrix device allocation from the symbolic
        phase is still live (the end-to-end pipeline), so no new allocation
        or transfer is needed.
    kernel_mode_override:
        Force every level to one GLU 3.0 kernel mode ("A", "B" or "C")
        instead of the adaptive classification — the ablation lever for
        §2.2's claim that adapting the mode to the level shape matters.
    """
    n = filled.n_rows
    idx, val = config.index_bytes, config.value_bytes
    ledger = gpu.ledger
    t0 = ledger.total_seconds

    plan: SupernodalPlan | None = None
    # the kernel-mode ablation explicitly studies the per-column
    # taxonomy, so an override always runs the scattered schedule
    if config.supernodal and kernel_mode_override is None:
        # panel formation is pattern-only analysis: it charges its own
        # ``panelize`` phase (cache misses only — refactorization passes
        # and analyze()-pre-warmed runs hit the schedule's plan cache),
        # keeping the ``numeric`` phase a pure kernel-time comparison
        plan = supernodal_plan_for(
            filled,
            schedule,
            tile_elems=config.cost_model.panel_tile_elems,
            gpu=gpu,
        )

    with ledger.phase("numeric"):
        if As.data.dtype != config.compute_dtype:
            As = As.astype(config.compute_dtype)
        as_bytes = (n + 1) * idx + As.nnz * (idx + val)
        own_buffer = None
        if not as_resident:
            own_buffer = gpu.malloc(as_bytes, "As (numeric)")
            gpu.h2d(as_bytes)

        fmt, cap = choose_format(gpu, n, config)
        dense_buffer = None
        if fmt == "dense":
            dense_buffer = gpu.malloc(
                max(1, cap) * n * val, "dense column buffers"
            )

        stats = factorize_with_pivot_recovery(
            gpu,
            As,
            filled,
            schedule,
            config,
            count_search_steps=(fmt == "csc"),
        )

        if plan is not None:
            # the panel schedule conserves the oracle's measured work
            if plan.total_flops != stats.total_flops:
                raise FlopConservationError(
                    plan.total_flops, stats.total_flops
                )
            _charge_supernodal(gpu, plan, fmt, cap, n, val)
        else:
            _charge_per_column(
                gpu,
                filled,
                schedule,
                stats,
                fmt,
                cap,
                n,
                val,
                kernel_mode_override,
            )

        if dense_buffer is not None:
            gpu.free(dense_buffer)
        if own_buffer is not None:
            gpu.free(own_buffer)

    # factors stream back to the host once factorization is done; this is
    # pipeline epilogue, not numeric-kernel time (Fig. 8 compares kernels)
    with ledger.phase("download"):
        gpu.d2h(as_bytes)

    m_report = cap if fmt == "dense" else gpu.spec.max_concurrent_blocks
    return NumericResult(
        As=As,
        stats=stats,
        data_format=fmt,
        max_parallel_columns=m_report,
        sim_seconds=ledger.total_seconds - t0,
        numeric_path="supernodal" if plan is not None else "per-column",
        panels=plan.num_panels if plan is not None else 0,
        panel_waves=plan.num_waves if plan is not None else 0,
        singleton_panels=plan.singleton_panels if plan is not None else 0,
        panel_coverage=float(plan.coverage()) if plan is not None else 0.0,
    )


def dense_format_max_blocks(gpu: GPU, n: int, config: SolverConfig) -> int:
    """Table 4's ``max #blocks`` column: ``M = L / (n x sizeof(dtype))``
    computed against currently-free device memory, capped by nothing —
    the paper reports the raw quotient."""
    return config.dense_parallel_columns(n, gpu.free_bytes)
