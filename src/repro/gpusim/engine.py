"""The simulated GPU: memory pool + kernel-launch/time accounting facade.

Algorithm implementations (out-of-core symbolic, GPU levelization, numeric
kernels) talk to this class only: they ``malloc``/``free`` device buffers,
``h2d``/``d2h`` explicit transfers, and ``launch_*`` kernels with *measured*
work counts.  All seconds flow through the :class:`~repro.gpusim.costmodel.
CostModel` into the :class:`~repro.gpusim.ledger.TimeLedger`.

Wrapper layers (fault injection, retry, streams, tracing) derive from
:class:`GPUProxy`, which writes the op surface once: every call becomes a
:class:`DeviceOp` passed down the stack by ``execute`` until
:meth:`GPU.execute` books it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ConfigurationError
from .costmodel import CostModel, DEFAULT_COST_MODEL
from .device import DeviceSpec, HostSpec, V100, XEON_E5_2680
from .ledger import TimeLedger
from .memory import Buffer, DeviceMemoryPool

if TYPE_CHECKING:
    from ..streams.core import Stream


def _check_nbytes(nbytes: int, what: str) -> int:
    """Validate a byte count before it reaches the ledger or the pool.

    A negative count would silently corrupt the byte counters (they are
    plain accumulators), so it is rejected up front with a
    :class:`~repro.errors.ReproError` subclass.
    """
    nbytes = int(nbytes)
    if nbytes < 0:
        raise ConfigurationError(
            f"{what} byte count must be >= 0, got {nbytes}"
        )
    return nbytes


@dataclass
class GPU:
    """A simulated CUDA device attached to a simulated host.

    Parameters
    ----------
    spec:
        Device hardware description (defaults to the paper's V100).
    host:
        Host CPU description (defaults to the paper's Xeon E5-2680).
    cost:
        The analytic cost model converting work counts to seconds.
    """

    spec: DeviceSpec = V100
    host: HostSpec = XEON_E5_2680
    cost: CostModel = DEFAULT_COST_MODEL
    ledger: TimeLedger = field(default_factory=TimeLedger)
    pool: DeviceMemoryPool = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.pool is None:
            self.pool = DeviceMemoryPool(capacity_bytes=self.spec.memory_bytes)

    # -- memory --------------------------------------------------------
    def malloc(self, nbytes: int, label: str = "") -> Buffer:
        """Allocate simulated device memory (OOM raises DeviceMemoryError)."""
        return self.pool.malloc(_check_nbytes(nbytes, "malloc"), label)

    def free(self, buf: Buffer) -> None:
        self.pool.free(buf)

    def would_fit(self, nbytes: int) -> bool:
        return self.pool.would_fit(nbytes)

    @property
    def free_bytes(self) -> int:
        return self.pool.free_bytes

    # -- explicit transfers ------------------------------------------------
    def h2d(self, nbytes: int, category: str | None = "transfer") -> None:
        """Charge one host->device DMA of ``nbytes``.

        Zero-byte transfers are complete no-ops: no DMA is issued on
        hardware, so neither latency nor counters are booked.
        """
        nbytes = _check_nbytes(nbytes, "h2d")
        if nbytes == 0:
            return
        self.ledger.charge(self.cost.transfer_seconds(nbytes), category)
        self.ledger.count("h2d_transfers")
        self.ledger.count("bytes_h2d", nbytes)

    def d2h(self, nbytes: int, category: str | None = "transfer") -> None:
        """Charge one device->host DMA of ``nbytes`` (0 bytes: no-op)."""
        nbytes = _check_nbytes(nbytes, "d2h")
        if nbytes == 0:
            return
        self.ledger.charge(self.cost.transfer_seconds(nbytes), category)
        self.ledger.count("d2h_transfers")
        self.ledger.count("bytes_d2h", nbytes)

    # -- kernel launches ---------------------------------------------------
    def _launch_overhead(self, from_device: bool) -> None:
        self.ledger.charge(self.cost.launch_seconds(from_device=from_device))
        self.ledger.count(
            "child_kernel_launches" if from_device else "kernel_launches"
        )

    def launch_traversal(
        self,
        edges: int,
        avg_degree: float,
        blocks: int,
        *,
        from_device: bool = False,
        compute_derate: float = 1.0,
    ) -> float:
        """Graph-traversal kernel (fill2 / Kahn) scanning ``edges`` edges with
        ``blocks`` thread blocks in flight.  Returns seconds charged."""
        self._launch_overhead(from_device)
        secs = self.cost.gpu_traversal_seconds(
            int(edges), avg_degree, int(blocks), self.spec
        )
        if compute_derate < 1.0:
            secs /= max(compute_derate, 1e-6)
        self.ledger.charge(secs, "gpu_compute")
        return secs

    def launch_numeric(
        self,
        flops: int,
        blocks: int,
        *,
        concurrency_cap: int | None = None,
        search_steps: int = 0,
        from_device: bool = False,
    ) -> float:
        """Numeric-factorization kernel performing ``flops`` updates."""
        cap = (
            self.spec.max_concurrent_blocks
            if concurrency_cap is None
            else int(concurrency_cap)
        )
        self._launch_overhead(from_device)
        secs = float(
            self.cost.gpu_numeric_seconds(
                int(flops),
                int(blocks),
                cap,
                self.spec,
                search_steps=int(search_steps),
            )
        )
        self.ledger.charge(secs, "gpu_compute")
        return secs

    def launch_panel(
        self,
        flops: int,
        tiles: int,
        *,
        kind: str = "panel-factor",
        from_device: bool = False,
    ) -> float:
        """Dense-block supernodal kernel (panel factor or panel-panel
        update) performing ``flops`` over ``tiles`` thread-block tiles.

        Charged at the blocked :attr:`~repro.gpusim.costmodel.CostModel.
        gpu_panel_flops` rate — the whole point of amalgamating columns
        into panels.  A ``panel_kernel_launches`` counter is kept beside
        the generic launch counters so benchmarks can report the blocked
        path's launch economy directly."""
        self._launch_overhead(from_device)
        secs = self.cost.gpu_panel_seconds(int(flops), int(tiles), self.spec)
        self.ledger.charge(secs, "gpu_compute")
        self.ledger.count("panel_kernel_launches")
        return secs

    def launch_utility(
        self, items: int, *, from_device: bool = False
    ) -> float:
        """Small regular kernel (prefix sum, init, compaction): full-width,
        bandwidth-friendly work over ``items`` elements."""
        self._launch_overhead(from_device)
        secs = items / self.cost.gpu_traversal_edges_per_s
        self.ledger.charge(secs, "gpu_compute")
        return secs

    def hbm_traffic(self, nbytes: int) -> float:
        """On-device pack/unpack traffic (dense numeric format, §3.4)."""
        secs = self.cost.hbm_seconds(int(nbytes))
        self.ledger.charge(secs, "gpu_compute")
        self.ledger.count("bytes_hbm", int(nbytes))
        return secs

    def execute(self, op: DeviceOp) -> Any:
        """Bottom of every proxy stack: book ``op`` on this device (an
        async op runs its place step instead of serial booking)."""
        if op.place is not None:
            return op.place(op)
        return getattr(self, _SERIAL[op.kind])(*op.args, **op.kw)

    # -- convenience -------------------------------------------------------
    def snapshot(self) -> dict:
        snap = self.ledger.snapshot()
        snap["device"] = self.spec.name
        snap["peak_device_bytes"] = self.pool.peak_bytes
        return snap


#: op kind -> the :class:`GPU` method that books it serially
_SERIAL = {
    "h2d": "h2d",
    "d2h": "d2h",
    "traversal": "launch_traversal",
    "numeric": "launch_numeric",
    "panel": "launch_panel",
    "utility": "launch_utility",
    "malloc": "malloc",
    "hbm": "hbm_traffic",
}


@dataclass(slots=True)
class DeviceOp:
    """One device operation on its way down a :class:`GPUProxy` stack.

    ``args``/``kw`` are the arguments of the serial :class:`GPU` method
    that books ``kind``; ``args[0]`` is always the work count (bytes,
    edges, flops or items).  An asynchronous enqueue also carries its
    issuing ``stream`` and a ``place`` step that :meth:`GPU.execute` runs
    instead of serial booking.  A retry layer adds its backoff to
    ``delay_s`` (the place step pushes the stream by it), and the place
    step records where the op landed in ``span``.
    """

    kind: str
    args: tuple
    kw: dict = field(default_factory=dict)
    stream: Stream | None = None
    place: Callable[[DeviceOp], Any] | None = None
    delay_s: float = 0.0
    #: ``(stream, engine, start_s, duration_s, blocks)`` once placed
    span: tuple[str, str, float, float, int | None] | None = None


class GPUProxy:
    """Delegating wrapper base: behaves as the wrapped ``GPU`` everywhere.

    The device op surface is written once, here: each method packs its
    call into a :class:`DeviceOp` and hands it to :meth:`execute`, which
    forwards to the wrapped layer.  A layer overrides only ``execute``
    and passes the op on with ``self.inner.execute(op)``; every other
    attribute (``ledger``, ``pool``, ``spec``, ``free``, ``snapshot`` …)
    resolves on the wrapped instance.  Wrappers therefore stack:
    ``ResilientGPU(FaultInjector(TracingGPU(GPU(...))))``.
    """

    def __init__(self, inner: GPU | GPUProxy) -> None:
        self.inner = inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    @property
    def unwrapped(self) -> GPU:
        """The innermost real :class:`GPU` under any proxy stack."""
        gpu = self.inner
        while isinstance(gpu, GPUProxy):
            gpu = gpu.inner
        return gpu

    def execute(self, op: DeviceOp) -> Any:
        return self.inner.execute(op)

    # -- the op surface: one DeviceOp per call ---------------------------
    def malloc(self, nbytes: int, label: str = "") -> Buffer:
        return self.execute(DeviceOp("malloc", (nbytes, label)))

    def h2d(self, nbytes: int, category: str | None = "transfer") -> None:
        self.execute(DeviceOp("h2d", (nbytes,), {"category": category}))

    def d2h(self, nbytes: int, category: str | None = "transfer") -> None:
        self.execute(DeviceOp("d2h", (nbytes,), {"category": category}))

    def launch_traversal(
        self,
        edges: int,
        avg_degree: float,
        blocks: int,
        *,
        from_device: bool = False,
        compute_derate: float = 1.0,
    ) -> float:
        kw = {"from_device": from_device, "compute_derate": compute_derate}
        op = DeviceOp("traversal", (edges, avg_degree, blocks), kw)
        return self.execute(op)

    def launch_numeric(
        self,
        flops: int,
        blocks: int,
        *,
        concurrency_cap: int | None = None,
        search_steps: int = 0,
        from_device: bool = False,
    ) -> float:
        kw = {
            "concurrency_cap": concurrency_cap,
            "search_steps": search_steps,
            "from_device": from_device,
        }
        return self.execute(DeviceOp("numeric", (flops, blocks), kw))

    def launch_panel(
        self,
        flops: int,
        tiles: int,
        *,
        kind: str = "panel-factor",
        from_device: bool = False,
    ) -> float:
        kw = {"kind": kind, "from_device": from_device}
        return self.execute(DeviceOp("panel", (flops, tiles), kw))

    def launch_utility(
        self, items: int, *, from_device: bool = False
    ) -> float:
        kw = {"from_device": from_device}
        return self.execute(DeviceOp("utility", (items,), kw))

    def hbm_traffic(self, nbytes: int) -> float:
        return self.execute(DeviceOp("hbm", (nbytes,)))
