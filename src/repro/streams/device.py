"""`StreamedGPU` — the asynchronous device facade over a serial `GPU`.

Wraps any :class:`~repro.gpusim.engine.GPU` (or proxy stack — tracing,
fault injection, resilient retry) and adds ``*_async`` enqueue methods
backed by the engine timelines of :mod:`repro.streams.core`:

* one :class:`~repro.streams.core.CopyEngine` per DMA direction,
* one :class:`~repro.streams.core.ComputeEngine` with the device's
  ``TB_max`` concurrent-block capacity,
* named :class:`~repro.streams.core.Stream` queues with
  :class:`~repro.streams.core.Event` record/wait dependencies.

Accounting contract (the part tests pin down):

* **enqueue** books counters (``bytes_h2d``, ``kernel_launches`` …) and
  per-category *busy* seconds via
  :meth:`~repro.gpusim.ledger.TimeLedger.charge_busy` — identical values
  to a serial run of the same op sequence;
* **synchronize** charges the region's *makespan* (device "now" = max
  over engine timelines) once, into the total and the enclosing phase
  stack, and returns a :class:`SyncReport`;
* any **serial** operation (``h2d``, ``launch_traversal``, …) on a
  ``StreamedGPU`` synchronizes first — a serial op is a sync point, so
  mixed serial/async code is always correct, merely unoverlapped.

Fault injection and retry compose at enqueue: an async op is a
:class:`~repro.gpusim.engine.DeviceOp` carrying its stream and a place
step, sent down the same chain as a serial op.  A
:class:`~repro.gpusim.faults.FaultInjector` below ticks and draws for it
exactly as for its serial twin and may raise
``TransferError``/``KernelFaultError`` — "inside an in-flight async copy"
from the pipeline's point of view.  A
:class:`~repro.core.resilient.ResilientGPU` below retries it; the backoff
pushes the issuing stream's timeline and is booked to the ``retry``
bucket via ``charge_busy``, so the makespan carries the wall cost
exactly once.  Only an op that gets through runs its place step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, cast

from ..gpusim.engine import GPU, DeviceOp, GPUProxy, _check_nbytes
from .core import ComputeEngine, CopyEngine, Event, Stream, next_event_id

__all__ = ["StreamedGPU", "SyncReport"]


@dataclass(frozen=True)
class SyncReport:
    """What one synchronized async region looked like."""

    makespan_s: float
    h2d_busy_s: float
    d2h_busy_s: float
    compute_busy_s: float
    h2d_ops: int
    d2h_ops: int
    compute_ops: int
    n_streams: int

    @property
    def serial_s(self) -> float:
        """What the same ops would cost back-to-back on one timeline."""
        return self.h2d_busy_s + self.d2h_busy_s + self.compute_busy_s

    @property
    def saved_s(self) -> float:
        """Wall seconds recovered by overlap vs the serial schedule."""
        return max(0.0, self.serial_s - self.makespan_s)

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of serial time hidden by overlap (0 = none)."""
        if self.serial_s <= 0:
            return 0.0
        return self.saved_s / self.serial_s

    def utilization(self, engine: str) -> float:
        """Busy fraction of one engine over the region's makespan."""
        if self.makespan_s <= 0:
            return 0.0
        busy = {
            "h2d": self.h2d_busy_s,
            "d2h": self.d2h_busy_s,
            "compute": self.compute_busy_s,
        }[engine]
        return busy / self.makespan_s

    @staticmethod
    def empty() -> "SyncReport":
        return SyncReport(0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0)

    @staticmethod
    def combine(reports: list["SyncReport"]) -> "SyncReport":
        """Fold sequential regions into one aggregate view (makespans and
        busy seconds add; regions never overlap each other)."""
        return SyncReport(
            makespan_s=sum(r.makespan_s for r in reports),
            h2d_busy_s=sum(r.h2d_busy_s for r in reports),
            d2h_busy_s=sum(r.d2h_busy_s for r in reports),
            compute_busy_s=sum(r.compute_busy_s for r in reports),
            h2d_ops=sum(r.h2d_ops for r in reports),
            d2h_ops=sum(r.d2h_ops for r in reports),
            compute_ops=sum(r.compute_ops for r in reports),
            n_streams=max((r.n_streams for r in reports), default=0),
        )


class StreamedGPU(GPUProxy):
    """Asynchronous facade: streams + copy engines over a serial ``GPU``.

    Wrap *outermost* (``StreamedGPU(ResilientGPU(FaultInjector(gpu)))``):
    async enqueues travel down the same op chain as serial ops, so they
    pass the fault gate and the retry layer below, and their place step
    runs where serial booking would.
    """

    def __init__(self, inner: GPU | GPUProxy) -> None:
        super().__init__(inner)
        self._streams: dict[str, Stream] = {}
        self._h2d_engine = CopyEngine("h2d")
        self._d2h_engine = CopyEngine("d2h")
        self._compute_engine = ComputeEngine(inner.spec.max_concurrent_blocks)
        self._open = False
        self._base_s = 0.0
        self.reports: list[SyncReport] = []

    def execute(self, op: DeviceOp) -> Any:
        """Any serial op except an allocation first drains the async
        region (CUDA's default-stream semantics): mixed code stays
        correct, just unoverlapped."""
        if op.stream is None and op.kind != "malloc":
            self.synchronize()
        return self.inner.execute(op)

    # -- streams and events ------------------------------------------------
    def stream(self, name: str) -> Stream:
        """Get or create the named stream (objects persist across syncs)."""
        return self._streams.setdefault(name, Stream(name))

    def record_event(self, stream: str | Stream) -> Event:
        """Mark the current tail of ``stream`` (``cudaEventRecord``)."""
        st = self._resolve(stream)
        return Event(next_event_id(), st.name, st.tail_s)

    def wait_event(self, stream: str | Stream, event: Event) -> None:
        """Make later ops on ``stream`` wait for ``event``
        (``cudaStreamWaitEvent``)."""
        self._resolve(stream).wait(event)

    def _resolve(self, stream: str | Stream) -> Stream:
        if isinstance(stream, Stream):
            return self._streams.setdefault(stream.name, stream)
        return self.stream(stream)

    # -- region bookkeeping ------------------------------------------------
    def _ensure_open(self) -> None:
        if not self._open:
            self._open = True
            self._base_s = self.ledger.total_seconds

    def _enqueue(self, kind: str, work: int, stream: str | Stream,
                 place: Callable) -> Event:
        """Send an async op down the chain; ``place`` books it at the
        bottom, after the fault gate and retry layers let it through."""
        op = DeviceOp(kind, (work,), stream=self._resolve(stream), place=place)
        return self.execute(op)

    # -- asynchronous transfers -------------------------------------------
    def h2d_async(self, nbytes: int, stream: str | Stream = "h2d",
                  *, category: str | None = "transfer") -> Event:
        """Enqueue a host->device DMA on the H2D copy engine; returns an
        event resolved at the transfer's completion."""
        return self._transfer_async("h2d", self._h2d_engine, nbytes,
                                    stream, category)

    def d2h_async(self, nbytes: int, stream: str | Stream = "d2h",
                  *, category: str | None = "transfer") -> Event:
        """Enqueue a device->host DMA on the D2H copy engine."""
        return self._transfer_async("d2h", self._d2h_engine, nbytes,
                                    stream, category)

    def _transfer_async(self, op: str, engine: CopyEngine, nbytes: int,
                        stream: str | Stream, category: str | None) -> Event:
        nbytes = _check_nbytes(nbytes, op)
        if nbytes == 0:  # no DMA issued — same no-op as the serial path
            st = self._resolve(stream)
            return Event(next_event_id(), st.name, st.tail_s)
        place = partial(self._place_transfer, engine, category)
        return self._enqueue(op, nbytes, stream, place)

    def _place_transfer(self, engine: CopyEngine, category: str | None,
                        op: DeviceOp) -> Event:
        nbytes, st = op.args[0], cast(Stream, op.stream)
        self._ensure_open()
        dur = self.cost.transfer_seconds(nbytes)
        start = engine.schedule(st.tail_s + op.delay_s, dur)
        st.tail_s = max(st.tail_s, start + dur)
        ledger = self.ledger
        if category is not None:
            ledger.charge_busy(dur, category)
        ledger.count(f"{op.kind}_transfers")
        ledger.count(f"bytes_{op.kind}", nbytes)
        op.span = (st.name, op.kind, self._base_s + start, dur, None)
        return Event(next_event_id(), st.name, start + dur)

    # -- asynchronous kernels ---------------------------------------------
    def launch_traversal_async(
        self,
        edges: int,
        avg_degree: float,
        blocks: int,
        stream: str | Stream = "compute",
        *,
        from_device: bool = False,
        compute_derate: float = 1.0,
    ) -> Event:
        """Enqueue a traversal kernel on the compute engine.  The kernel
        occupies ``blocks`` of the device's concurrent-block slots for
        its duration; kernels from other streams co-run while combined
        demand fits (concurrent kernel execution)."""
        secs = self.cost.gpu_traversal_seconds(
            int(edges), avg_degree, int(blocks), self.spec
        )
        if compute_derate < 1.0:
            secs /= max(compute_derate, 1e-6)
        place = partial(self._place_kernel, secs, int(blocks), from_device)
        return self._enqueue("traversal", edges, stream, place)

    def launch_numeric_async(
        self,
        flops: int,
        blocks: int,
        stream: str | Stream = "compute",
        *,
        concurrency_cap: int | None = None,
        search_steps: int = 0,
    ) -> Event:
        """Enqueue a numeric kernel on the compute engine."""
        cap = (
            self.spec.max_concurrent_blocks
            if concurrency_cap is None
            else int(concurrency_cap)
        )
        secs = float(self.cost.gpu_numeric_seconds(
            int(flops), int(blocks), cap, self.spec,
            search_steps=int(search_steps),
        ))
        place = partial(self._place_kernel, secs, int(blocks), False)
        return self._enqueue("numeric", flops, stream, place)

    def launch_utility_async(self, items: int,
                             stream: str | Stream = "compute") -> Event:
        """Enqueue a full-width utility kernel (prefix sum, compaction);
        these are bandwidth-bound and occupy the whole device."""
        secs = items / self.cost.gpu_traversal_edges_per_s
        blocks = self.spec.max_concurrent_blocks
        place = partial(self._place_kernel, secs, blocks, False)
        return self._enqueue("utility", items, stream, place)

    def _place_kernel(self, secs: float, blocks: int, from_device: bool,
                      op: DeviceOp) -> Event:
        self._ensure_open()
        st = cast(Stream, op.stream)
        dur = self.cost.launch_seconds(from_device=from_device) + secs
        engine = self._compute_engine
        engine.prune(min(s.tail_s for s in self._streams.values()))
        start = engine.schedule(st.tail_s + op.delay_s, dur, blocks)
        st.tail_s = max(st.tail_s, start + dur)
        ledger = self.ledger
        # the launch overhead contributes to the schedule (dur) but — as
        # in the serial path — not to the gpu_compute bucket, so busy
        # buckets stay comparable between serial and async runs
        ledger.charge_busy(secs, "gpu_compute")
        ledger.count(
            "child_kernel_launches" if from_device else "kernel_launches"
        )
        op.span = (st.name, "compute", self._base_s + start, dur, blocks)
        return Event(next_event_id(), st.name, start + dur)

    # -- synchronization ---------------------------------------------------
    def synchronize(self) -> SyncReport:
        """Resolve the open async region: charge its makespan (once, into
        the enclosing phase stack), reset all timelines, and report."""
        if not self._open:
            return SyncReport.empty()
        h2d, d2h, comp = (
            self._h2d_engine, self._d2h_engine, self._compute_engine
        )
        makespan = max(h2d.tail_s, d2h.tail_s, comp.tail_s)
        self.ledger.charge(makespan, None)
        report = SyncReport(
            makespan_s=makespan,
            h2d_busy_s=h2d.busy_s,
            d2h_busy_s=d2h.busy_s,
            compute_busy_s=comp.busy_s,
            h2d_ops=h2d.ops,
            d2h_ops=d2h.ops,
            compute_ops=comp.ops,
            n_streams=sum(1 for s in self._streams.values() if s.tail_s > 0),
        )
        self.reports.append(report)
        for st in self._streams.values():
            st.tail_s = 0.0
        self._h2d_engine = CopyEngine("h2d")
        self._d2h_engine = CopyEngine("d2h")
        self._compute_engine = ComputeEngine(self.spec.max_concurrent_blocks)
        self._open = False
        return report

    def combined_report(self) -> SyncReport:
        """Aggregate of every synchronized region so far."""
        return SyncReport.combine(self.reports)

    def snapshot(self) -> dict:
        self.synchronize()
        return self.inner.snapshot()
