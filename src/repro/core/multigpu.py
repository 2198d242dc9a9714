"""Scale-out execution across multiple simulated devices.

GSOFA — the prior GPU symbolic work the paper builds on — is a distributed
system ("up to 44 nodes and 264 GPUs", §2.1); the paper keeps its
single-GPU focus but inherits the property that makes scale-out trivial
for the symbolic phase: *fill2 source rows are independent*.  This module
provides two layers on top of that observation:

* :func:`multi_gpu_symbolic` — the symbolic-only sweep: source rows are
  partitioned into cyclic ``TB_max``-row blocks, and every device books
  the single-device pipeline's own Algorithm 3/4 path
  (:func:`repro.core.outofcore.book_symbolic`) on its rows, chunks
  planned over the shard's own frontier — GSoFa's row split, each GPU
  running the single-GPU traversal.
* :func:`multi_gpu_endtoend` — the full pipeline sharded end-to-end,
  its symbolic phase booked by the same row shards.
  The numeric phase (Algorithm 6 level scheduling) is column-sharded
  with a *cyclic level-aware* assignment: within level ``k``, the i-th
  column goes to device ``(i + k) % D``, so every device owns a slice of
  every level (narrow tail levels included) and the per-level load stays
  balanced without a partitioner.  Each device books the in-core
  executor's A/B/C launch rule
  (:meth:`~repro.core.numeric_gpu._LaunchInputs.table`) on the columns
  it owns.

Two traffic classes ride the modeled interconnect
(:mod:`repro.gpusim.interconnect`):

* **reshard** — after the row-sharded symbolic phase each device holds a
  row slice of the filled matrix but needs its *column* shard for
  numeric; the redistribution is an all-to-all of the row-block ∩
  column-shard intersections, peer DMA per device pair.
* **halo exchange** — GLU 3.0's level sets make cross-shard numeric
  dependencies enumerable: a column in level ``k`` only reads columns
  from levels ``< k``, so after computing level ``k`` each device sends
  every column some other device's later column reads, batched into one
  transfer per (source, destination, level).

With ``overlap=False`` sends are synchronous (the producer's clock
advances over the wire time).  With ``overlap=True`` each device routes
its outgoing transfers through a dedicated :class:`repro.streams.core`
-style copy engine: the send is booked at enqueue (busy seconds only)
and the producer continues computing; receivers still gate on arrival.

Factor *values* never travel through any of this: the numeric result is
computed once by the exact deterministic code path the single-device
pipeline uses, so factors, fill pattern and pivot sequence are bitwise
identical at every device count — the differential test layer's
contract.  Device count changes only the simulated timeline, and one
device books :class:`~repro.core.pipeline.EndToEndLU`'s: the same
symbolic, levelize and numeric charges, and a makespan equal to its
simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..gpusim import GPU, DeviceSpec, HostSpec
from ..gpusim.interconnect import Interconnect, LinkSpec, link_preset
from ..graph import (
    DependencyGraph,
    LevelSchedule,
    build_dependency_graph,
    kahn_levels,
)
from ..numeric import NumericStats, extract_lu
from ..preprocess import PreprocessResult, preprocess
from ..sparse import CSCMatrix, CSRMatrix
from ..symbolic import symbolic_fill_reference
from .config import SolverConfig
from .levelize_gpu import levelize_gpu_dynamic
from .numeric_gpu import (
    choose_format,
    factorize_with_pivot_recovery,
    launch_inputs,
)
from .outofcore import SymbolicResult, book_symbolic, row_work
from .pipeline import FactorSolve
from .resilient import RecoveryReport

__all__ = [
    "MultiGpuSymbolicResult",
    "MultiGpuEndToEndResult",
    "multi_gpu_symbolic",
    "multi_gpu_endtoend",
]


@dataclass
class MultiGpuSymbolicResult:
    filled: CSRMatrix
    #: per-device list of (row_start, row_end) block ranges
    shard_blocks: list[list[tuple[int, int]]]
    shard_seconds: list[float]
    gpus: list[GPU]

    @property
    def num_devices(self) -> int:
        return len(self.shard_seconds)

    @property
    def makespan_seconds(self) -> float:
        return max(self.shard_seconds)

    @property
    def total_device_seconds(self) -> float:
        return sum(self.shard_seconds)

    def parallel_efficiency(self, single_device_seconds: float) -> float:
        """speedup / num_devices against a single-device run."""
        speedup = single_device_seconds / self.makespan_seconds
        return speedup / self.num_devices

    def balance(self) -> float:
        """min/max shard time — 1.0 is perfect balance."""
        return min(self.shard_seconds) / max(self.shard_seconds)

    def perf_record(self) -> dict:
        """Machine-readable execution record for the perf-snapshot suite.

        Same shape as :meth:`repro.core.pipeline.EndToEndResult.perf_record`:
        exact ``counters``, tolerance-band ``timings``, exact-match
        ``labels``.  Per-device ledger counters are summed (they are
        deterministic per shard, so the sums are too).
        """
        counters = {
            "num_devices": int(self.num_devices),
            "n": int(self.filled.n_rows),
            "filled_nnz": int(self.filled.nnz),
            "shard_blocks_total": sum(
                len(blocks) for blocks in self.shard_blocks
            ),
            "kernel_launches": sum(
                g.ledger.get_count("kernel_launches") for g in self.gpus
            ),
            "bytes_h2d": sum(
                g.ledger.get_count("bytes_h2d") for g in self.gpus
            ),
            "bytes_d2h": sum(
                g.ledger.get_count("bytes_d2h") for g in self.gpus
            ),
            "pool_peak_bytes_max": max(
                int(g.pool.peak_bytes) for g in self.gpus
            ),
        }
        timings = {
            "makespan_seconds": float(self.makespan_seconds),
            "total_device_seconds": float(self.total_device_seconds),
            "balance": float(self.balance()),
        }
        labels = {"partition": "cyclic-block"}
        return {"counters": counters, "timings": timings, "labels": labels}


def _cyclic_blocks(
    n: int, num_devices: int, block_rows: int
) -> list[list[tuple[int, int]]]:
    """Round-robin assignment of ``block_rows``-row blocks to devices."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(num_devices)]
    for k, start in enumerate(range(0, n, block_rows)):
        out[k % num_devices].append((start, min(start + block_rows, n)))
    return out


def _book_shards(
    a: CSRMatrix,
    filled: CSRMatrix,
    config: SolverConfig,
    num_devices: int,
    dev: DeviceSpec,
    hst: HostSpec,
    *,
    keep_on_device: bool,
) -> tuple[list[GPU], list[SymbolicResult]]:
    """Give each of ``num_devices`` fresh devices its cyclic
    ``TB_max``-row blocks, booked by the single-device symbolic path
    (:func:`~repro.core.outofcore.book_symbolic`)."""
    work = row_work(a, filled)
    block_of = np.arange(a.n_rows) // dev.max_concurrent_blocks
    gpus = [
        GPU(spec=dev, host=hst, cost=config.cost_model)
        for _ in range(num_devices)
    ]
    shards = [
        book_symbolic(
            gpu, a, filled, config,
            work=work,
            rows=np.flatnonzero(block_of % num_devices == d),
            keep_on_device=keep_on_device,
        )
        for d, gpu in enumerate(gpus)
    ]
    return gpus, shards


def multi_gpu_symbolic(
    a: CSRMatrix,
    config: SolverConfig,
    *,
    num_devices: int,
    device: DeviceSpec | None = None,
    host: HostSpec | None = None,
) -> MultiGpuSymbolicResult:
    """Run out-of-core symbolic factorization sharded over devices.

    Every device receives the whole input graph (broadcast, charged per
    device) and a cyclic-block row shard, on which it runs the
    single-device two-stage scheme (Algorithms 3/4 planned over the
    shard's own frontier), then ships its slice of the factorized matrix
    back for assembly.  The filled structure is identical to the
    single-device result by construction (tests assert it).

    Scaling is sublinear on small instances: the block holding the
    high-frontier tail dominates one device's makespan (the same
    frontier-bound limitation the paper notes for Algorithm 4's second
    part), so efficiency improves with ``n / (block_rows x num_devices)``.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    dev = device or config.device
    hst = host or config.host
    filled = symbolic_fill_reference(a)
    gpus, _ = _book_shards(
        a, filled, config, num_devices, dev, hst, keep_on_device=False
    )
    return MultiGpuSymbolicResult(
        filled=filled,
        shard_blocks=_cyclic_blocks(
            a.n_rows, num_devices, dev.max_concurrent_blocks
        ),
        shard_seconds=[g.ledger.total_seconds for g in gpus],
        gpus=gpus,
    )


# ---------------------------------------------------------------------------
# end-to-end multi-GPU
# ---------------------------------------------------------------------------


class _P2POutEngine:
    """Per-device outgoing copy engine (``overlap=True``): the same
    single-channel FIFO contract as :class:`repro.streams.core.CopyEngine`,
    but booking against the absolute multi-device timeline."""

    def __init__(self) -> None:
        self.tail_s = 0.0
        self.busy_s = 0.0
        self.ops = 0


@dataclass
class MultiGpuEndToEndResult(FactorSolve):
    """Factors + permutations + the sharded execution record.

    :meth:`solve` is the single-device result's, refinement after a
    pivot recovery included."""

    L: CSCMatrix
    U: CSCMatrix
    pre: PreprocessResult
    filled: CSRMatrix
    graph: DependencyGraph
    schedule: LevelSchedule
    stats: NumericStats
    #: owning device per column (cyclic level-aware assignment)
    owner: np.ndarray
    gpus: list[GPU]
    interconnect: Interconnect
    link: LinkSpec
    overlap: bool
    data_format: str
    shard_seconds: list[float]
    #: all-to-all bytes of the post-symbolic redistribution
    reshard_bytes: int
    #: per-level dependency-column exchange bytes
    halo_bytes: int
    #: number of batched halo transfers booked
    halo_batches: int
    #: pivot recovery record (``None`` unless ``config.resilience``)
    recovery: RecoveryReport | None = None
    #: the original matrix a recovered solve refines against
    source: CSRMatrix | None = None

    @property
    def pivot_sequence(self) -> np.ndarray:
        """The diagonal of ``U`` in elimination order — the quantity the
        differential harness compares bitwise across device counts."""
        return self.U.diagonal()

    # -- reporting ------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.gpus)

    @property
    def makespan_seconds(self) -> float:
        return max(self.shard_seconds)

    @property
    def total_device_seconds(self) -> float:
        return sum(self.shard_seconds)

    def balance(self) -> float:
        """min/max device busy time — 1.0 is perfect balance."""
        return min(self.shard_seconds) / max(self.shard_seconds)

    @property
    def halo_wait_seconds(self) -> float:
        """Summed receiver stalls on halo / reshard arrivals."""
        return sum(
            g.ledger.seconds("interconnect_wait") for g in self.gpus
        )

    def traffic_breakdown(self) -> dict:
        """Per-link traffic plus the reshard/halo class split."""
        out = self.interconnect.traffic_breakdown()
        out["reshard_bytes"] = int(self.reshard_bytes)
        out["halo_bytes"] = int(self.halo_bytes)
        out["halo_batches"] = int(self.halo_batches)
        return out

    def perf_record(self) -> dict:
        """Machine-readable execution record for the perf-snapshot suite
        (exact ``counters`` / banded ``timings`` / exact ``labels``)."""
        inter = self.interconnect
        counters = {
            "num_devices": int(self.num_devices),
            "n": int(self.pre.matrix.n_rows),
            "nnz": int(self.pre.matrix.nnz),
            "filled_nnz": int(self.filled.nnz),
            "levels": int(self.schedule.num_levels),
            "p2p_transfers": int(inter.total_transfers),
            "bytes_p2p": int(inter.total_bytes),
            "reshard_bytes": int(self.reshard_bytes),
            "halo_bytes": int(self.halo_bytes),
            "halo_batches": int(self.halo_batches),
            "kernel_launches": sum(
                g.ledger.get_count("kernel_launches") for g in self.gpus
            ),
            "bytes_h2d": sum(
                g.ledger.get_count("bytes_h2d") for g in self.gpus
            ),
            "bytes_d2h": sum(
                g.ledger.get_count("bytes_d2h") for g in self.gpus
            ),
            "pool_peak_bytes_max": max(
                int(g.pool.peak_bytes) for g in self.gpus
            ),
        }
        timings = {
            "makespan_seconds": float(self.makespan_seconds),
            "total_device_seconds": float(self.total_device_seconds),
            "balance": float(self.balance()),
            "halo_wait_seconds": float(self.halo_wait_seconds),
            "interconnect_busy_seconds": float(
                sum(
                    lk["busy_seconds"]
                    for lk in inter.traffic_breakdown()["links"].values()
                )
            ),
        }
        labels = {
            "partition": "cyclic-level",
            "link": self.link.name,
            "numeric_format": str(self.data_format),
            "overlap": "on" if self.overlap else "off",
        }
        return {"counters": counters, "timings": timings, "labels": labels}

    def report(self) -> str:
        """Human-readable execution summary."""
        lines = [
            f"multi-GPU end-to-end LU on {self.num_devices} device(s) "
            f"[{self.link.name}, overlap "
            f"{'on' if self.overlap else 'off'}]",
            f"  matrix: n={self.pre.matrix.n_rows}, "
            f"nnz={self.pre.matrix.nnz}, filled nnz {self.filled.nnz}; "
            f"{self.schedule.num_levels} levels, "
            f"format {self.data_format}",
            f"  makespan {self.makespan_seconds * 1e3:.3f} ms "
            f"(balance {self.balance():.2f}, "
            f"device-seconds {self.total_device_seconds * 1e3:.3f} ms)",
            f"  p2p: {self.interconnect.total_transfers} transfers, "
            f"{self.interconnect.total_bytes} B "
            f"(reshard {self.reshard_bytes} B, halo {self.halo_bytes} B "
            f"in {self.halo_batches} batches); "
            f"receiver stalls {self.halo_wait_seconds * 1e3:.3f} ms",
        ]
        return "\n".join(lines)

    def to_chrome_trace(self) -> list[dict]:
        """Interconnect lanes (the device ledgers are not traced here)."""
        return self.interconnect.to_chrome_trace()


def _cyclic_level_owner(
    schedule: LevelSchedule, num_devices: int
) -> np.ndarray:
    """Cyclic level-aware column → device assignment.

    Within level ``k`` the i-th column goes to device ``(i + k) % D``;
    the ``+ k`` rotation keeps single-column tail levels from always
    landing on device 0.
    """
    owner = np.zeros(schedule.n, dtype=np.int64)
    for k, level in enumerate(schedule.levels):
        owner[np.asarray(level, dtype=np.int64)] = (
            np.arange(len(level), dtype=np.int64) + k
        ) % num_devices
    return owner


def _reshard_matrix(
    As: CSCMatrix,
    owner: np.ndarray,
    block_rows: int,
    num_devices: int,
    entry_bytes: int,
) -> np.ndarray:
    """All-to-all byte matrix of the row-shard → column-shard shuffle.

    Entry ``(s, d)``: bytes of filled entries that live in device ``s``'s
    cyclic row blocks but belong to device ``d``'s column shard.
    """
    d = num_devices
    rows = As.indices.astype(np.int64)
    cols = As.col_ids_of_entries().astype(np.int64)
    row_dev = (rows // block_rows) % d
    col_dev = owner[cols]
    pair = row_dev * d + col_dev
    counts = np.bincount(pair, minlength=d * d).reshape(d, d)
    return counts * entry_bytes


def _halo_batches(
    As: CSCMatrix,
    owner: np.ndarray,
    schedule: LevelSchedule,
    col_bytes: np.ndarray,
    num_devices: int,
) -> dict[int, list[tuple[int, int, int, int, int]]]:
    """Enumerate the per-level halo exchange from the filled pattern.

    A column ``c`` in level ``m`` reads every column ``j`` with
    ``U(j, c) != 0`` (the upper entries of ``c``'s CSC column); when
    ``owner[j] != owner[c]`` column ``j`` must be shipped.  Transfers
    batch per (producer level, source, destination): one message carrying
    all columns that pair exchanges at that level.

    Returns ``{produce_level: [(src, dst, nbytes, ncols, need_level)]}``
    with ``need_level`` the earliest level of the destination that reads
    any column in the batch (its arrival gate), lists sorted by
    ``(src, dst)`` for deterministic booking.
    """
    rows = As.indices.astype(np.int64)
    cols = As.col_ids_of_entries().astype(np.int64)
    upper = rows < cols
    src_col = rows[upper]
    dst_col = cols[upper]
    src_dev = owner[src_col]
    dst_dev = owner[dst_col]
    cross = src_dev != dst_dev
    if not np.any(cross):
        return {}
    j = src_col[cross]
    dd = dst_dev[cross]
    need = schedule.level_of[dst_col[cross]].astype(np.int64)
    # one shipment per (column, destination): earliest consuming level
    key = j * np.int64(num_devices) + dd
    order = np.lexsort((need, key))
    key_s, j_s, dd_s, need_s = key[order], j[order], dd[order], need[order]
    first = np.ones(len(key_s), dtype=bool)
    first[1:] = key_s[1:] != key_s[:-1]
    j_u, dd_u, need_u = j_s[first], dd_s[first], need_s[first]
    produce = schedule.level_of[j_u].astype(np.int64)
    src_u = owner[j_u]
    # aggregate per (produce_level, src, dst)
    agg: dict[tuple[int, int, int], list[int]] = {}
    for lvl, s, d2, col, nd in zip(produce, src_u, dd_u, j_u, need_u):
        slot = agg.setdefault((int(lvl), int(s), int(d2)), [0, 0, 1 << 62])
        slot[0] += int(col_bytes[col])
        slot[1] += 1
        slot[2] = min(slot[2], int(nd))
    out: dict[int, list[tuple[int, int, int, int, int]]] = {}
    for (lvl, s, d2) in sorted(agg):
        nbytes, ncols, need_min = agg[(lvl, s, d2)]
        out.setdefault(lvl, []).append((s, d2, nbytes, ncols, need_min))
    return out


def multi_gpu_endtoend(
    a: CSRMatrix,
    config: SolverConfig | None = None,
    *,
    num_devices: int,
    link: LinkSpec | str = "pcie3",
    overlap: bool | None = None,
    device: DeviceSpec | None = None,
    host: HostSpec | None = None,
) -> MultiGpuEndToEndResult:
    """Run the full pipeline sharded over ``num_devices`` devices.

    The numeric result is computed once through the single-device code
    path (preprocess → reference fill → dependency graph → Kahn levels →
    in-place right-looking factorization, with pivot recovery under
    ``config.resilience``), then the per-device timeline is simulated:
    symbolic on each device's row shard (the single-device Algorithm 3/4
    booking), replicated levelization, the reshard all-to-all,
    level-by-level numeric with halo exchange, and the final factor
    download.  See the module docstring for the model.  The level
    loop books per-column launches only, so ``config.supernodal`` raises
    :class:`~repro.errors.ConfigurationError` rather than being charged
    as per-column work.
    """
    config = config or SolverConfig()
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    if config.supernodal:
        raise ConfigurationError(
            "multi_gpu_endtoend does not model the supernodal numeric "
            "path; set SolverConfig.supernodal=False"
        )
    overlap = config.overlap if overlap is None else bool(overlap)
    spec = link_preset(link) if isinstance(link, str) else link
    dev = device or config.device
    hst = host or config.host
    idx, val = config.index_bytes, config.value_bytes
    d_count = int(num_devices)

    # ---- the math, once (device count cannot influence values) --------
    pre = preprocess(a)
    work = pre.matrix
    n = work.n_rows
    filled = symbolic_fill_reference(work)
    graph = build_dependency_graph(filled)
    schedule = kahn_levels(graph)
    owner = _cyclic_level_owner(schedule, d_count)

    As = filled.to_csc()
    if As.data.dtype != config.compute_dtype:
        As = As.astype(config.compute_dtype)

    # ---- per-device symbolic (row shards) + replicated levelize -------
    gpus, shards = _book_shards(
        work, filled, config, d_count, dev, hst, keep_on_device=True
    )
    residents = [
        {"graph": sym.device_graph, "rows": sym.device_filled}
        for sym in shards
    ]
    for gpu in gpus:
        levelize_gpu_dynamic(gpu, graph)

    inter = Interconnect(d_count, spec)
    out_engines = [_P2POutEngine() for _ in range(d_count)]
    clock = [g.ledger.total_seconds for g in gpus]
    #: device → {gate level: required arrival time}
    gates: list[dict[int, float]] = [dict() for _ in range(d_count)]

    def book_send(
        src: int, dst: int, nbytes: int, tag: str, gate_level: int
    ) -> None:
        gpu_s = gpus[src]
        if overlap:
            eng = out_engines[src]
            ready = max(clock[src], eng.tail_s)
            tr = inter.transfer(src, dst, nbytes, ready, tag=tag)
            eng.tail_s = tr.end_s
            eng.busy_s += tr.duration_s
            eng.ops += 1
            gpu_s.ledger.charge_busy(tr.duration_s, "p2p_send")
        else:
            tr = inter.transfer(src, dst, nbytes, clock[src], tag=tag)
            gpu_s.ledger.charge_aside(tr.end_s - clock[src], "p2p_send")
            clock[src] = gpu_s.ledger.total_seconds
        gpu_s.ledger.count("p2p_sends")
        gpu_s.ledger.count("bytes_p2p_out", int(nbytes))
        gpus[dst].ledger.count("bytes_p2p_in", int(nbytes))
        g = gates[dst]
        g[gate_level] = max(g.get(gate_level, 0.0), tr.end_s)

    def wait_for(d: int, level: int) -> None:
        """Stall device ``d`` until everything gated at <= level arrived."""
        due = 0.0
        for lvl in sorted(gates[d]):
            if lvl > level:
                break
            due = max(due, gates[d].pop(lvl))
        # re-queue nothing: popped gates are satisfied below
        if due > clock[d]:
            gpus[d].ledger.charge_aside(
                due - clock[d], "interconnect_wait"
            )
            clock[d] = gpus[d].ledger.total_seconds

    # ---- reshard all-to-all (row shards → column shards) --------------
    col_nnz = np.diff(As.indptr).astype(np.int64)
    col_bytes = idx + col_nnz * (idx + val)
    block_rows = dev.max_concurrent_blocks
    reshard = _reshard_matrix(As, owner, block_rows, d_count, idx + val)
    reshard_total = 0
    for s in range(d_count):
        for d2 in range(d_count):
            if s == d2 or reshard[s][d2] == 0:
                continue
            book_send(s, d2, int(reshard[s][d2]), "reshard", gate_level=0)
            reshard_total += int(reshard[s][d2])

    # ---- numeric residents + format choice ----------------------------
    own_nnz = np.zeros(d_count, dtype=np.int64)
    own_cols = np.zeros(d_count, dtype=np.int64)
    np.add.at(own_nnz, owner, col_nnz)
    np.add.at(own_cols, owner, 1)
    for d in range(d_count):
        gpu = gpus[d]
        # the row shard is consumed by the reshard; its buffer is reused
        if residents[d]["rows"] is not None:
            gpu.free(residents[d]["rows"])
            residents[d]["rows"] = None
        shard_bytes = int(
            (own_cols[d] + 1) * idx + own_nnz[d] * (idx + val)
        )
        residents[d]["as"] = gpu.malloc(max(1, shard_bytes), "As shard")
        residents[d]["as_bytes"] = shard_bytes
    fmt, cap = choose_format(gpus[0], n, config)
    for d in range(d_count):
        if fmt == "dense":
            residents[d]["dense"] = gpus[d].malloc(
                max(1, cap) * n * val, "dense column buffers"
            )
        else:
            residents[d]["dense"] = None

    # factor values, computed once — the single-device code path,
    # pivot recovery included (device 0 books a recovery)
    stats = factorize_with_pivot_recovery(
        gpus[0], As, filled, schedule, config,
        count_search_steps=(fmt == "csc"),
    )
    L, U = extract_lu(As)

    # per-column structural weight for apportioning level work: division
    # flops + pushed updates (lower nnz x sub-columns), floored at 1
    inputs = launch_inputs(filled, schedule)
    lower_nnz = np.maximum(col_nnz - 1, 0)
    colwork = (1 + lower_nnz + lower_nnz * inputs.sub_cols).astype(np.float64)
    level_work = colwork[inputs.order]
    level_weight = np.bincount(inputs.col_level, weights=level_work)
    # each device books the in-core launch rule on the columns it owns
    tables = []
    for d in range(d_count):
        own = owner[inputs.order] == d
        mine = np.bincount(inputs.col_level, weights=level_work * own)
        table = inputs.table(
            stats.per_level,
            inputs.tags(schedule, None),
            dense_col_bytes=n * val if fmt == "dense" else 0,
            own=own,
            share=mine / np.maximum(level_weight, 1.0),
        )
        tables.append((table.launches(), table.hbm.tolist()))
    halo = _halo_batches(As, owner, schedule, col_bytes, d_count)
    halo_total = 0
    halo_batches = 0

    # ---- level loop: wait → compute shard → send halo -----------------
    for k in range(schedule.num_levels):
        for d in range(d_count):
            wait_for(d, k)
            launches, hbm = tables[d][0][k], tables[d][1][k]
            if not launches:
                continue
            gpu = gpus[d]
            with gpu.ledger.phase("numeric"):
                for flops, blocks, search in launches:
                    gpu.launch_numeric(
                        flops, blocks, concurrency_cap=cap, search_steps=search
                    )
                if hbm:
                    gpu.hbm_traffic(hbm)
            clock[d] = gpu.ledger.total_seconds
        for s, d2, nbytes, ncols, need_min in halo.get(k, ()):
            book_send(s, d2, nbytes, f"halo L{k}", gate_level=need_min)
            halo_total += int(nbytes)
            halo_batches += 1

    # ---- epilogue: factor shards stream back, residents freed ---------
    shard_seconds = []
    for d in range(d_count):
        gpu = gpus[d]
        wait_for(d, schedule.num_levels + 1)
        with gpu.ledger.phase("download"):
            gpu.d2h(residents[d]["as_bytes"])
        if residents[d]["dense"] is not None:
            gpu.free(residents[d]["dense"])
        gpu.free(residents[d]["as"])
        for buf in residents[d]["graph"]:
            gpu.free(buf)
        shard_seconds.append(gpu.ledger.total_seconds)

    return MultiGpuEndToEndResult(
        L=L,
        U=U,
        pre=pre,
        filled=filled,
        graph=graph,
        schedule=schedule,
        stats=stats,
        owner=owner,
        gpus=gpus,
        interconnect=inter,
        link=spec,
        overlap=overlap,
        data_format=fmt,
        shard_seconds=shard_seconds,
        reshard_bytes=reshard_total,
        halo_bytes=halo_total,
        halo_batches=halo_batches,
        recovery=(
            RecoveryReport(perturbed_columns=tuple(stats.perturbed_columns))
            if config.resilience
            else None
        ),
        source=a if config.resilience else None,
    )
