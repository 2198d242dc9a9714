"""Execution tracing: a timeline of simulated device events.

A proxy layer over a :class:`~repro.gpusim.engine.GPU` records every kernel
launch, transfer and allocation with its simulated start/end time.  Traces can
be exported as Chrome trace-event JSON (``chrome://tracing`` /
`Perfetto <https://ui.perfetto.dev>`_) — the natural way to *see* the
pipeline's phase structure, chunk loops and level waves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .engine import GPU, DeviceOp, GPUProxy


@dataclass(frozen=True)
class TraceEvent:
    """One simulated device event."""

    name: str
    category: str  # "kernel" | "transfer" | "alloc" | "free"
    start_s: float
    duration_s: float
    args: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


#: op kind -> (event name, category, name of the ``args[0]`` work count);
#: ``hbm`` traffic is not traced
_EVENTS = {
    "h2d": ("h2d", "transfer", "bytes"),
    "d2h": ("d2h", "transfer", "bytes"),
    "traversal": ("traversal_kernel", "kernel", "edges"),
    "numeric": ("numeric_kernel", "kernel", "flops"),
    "panel": ("panel_kernel", "kernel", "flops"),
    "utility": ("utility_kernel", "kernel", "items"),
    "malloc": ("malloc", "alloc", "bytes"),
}


def _serial_args(op: DeviceOp, work: str) -> dict:
    """Event args of a serial op: its work count, then the kind's extras."""
    args: dict = {work: int(op.args[0])}
    if op.kind == "traversal":
        args["blocks"] = int(op.args[2])
        args["dynamic_parallelism"] = bool(op.kw["from_device"])
    elif op.kind == "numeric":
        args["blocks"] = int(op.args[1])
        args["search_steps"] = int(op.kw["search_steps"])
    elif op.kind == "panel":
        args["tiles"] = int(op.args[1])
        args["kind"] = str(op.kw["kind"])
    return args


class TracingGPU(GPUProxy):
    """A proxy layer that records every operation as a trace event.

    ``TracingGPU(GPU(...))`` times each event by its op alone; placed
    further out, a serial event also spans retry backoff booked below it.
    Async ops are recorded at the engine slot their place step resolved,
    so tracing must sit below a :class:`~repro.streams.StreamedGPU` to
    see them.  ``events`` accumulates in operation order;
    ``to_chrome_trace`` serializes them.
    """

    def __init__(self, inner: GPU | GPUProxy) -> None:
        super().__init__(inner)
        self.events: list[TraceEvent] = []

    def execute(self, op: DeviceOp) -> Any:
        ledger = self.inner.ledger
        start = ledger.total_seconds
        out = self.inner.execute(op)
        if op.kind not in _EVENTS:
            return out
        name, category, work = _EVENTS[op.kind]
        if op.span is not None:  # async: where its place step put it
            stream, engine, start, dur, blocks = op.span
            args: dict = {"stream": stream, "engine": engine}
            if blocks is not None:
                args["blocks"] = blocks
            args[work] = int(op.args[0])
            name = f"{name}_async"
        elif category == "transfer" and int(op.args[0]) == 0:
            return out  # a zero-byte transfer issues no DMA
        else:
            if op.kind == "malloc":  # an instant at the allocation's return
                name, start = f"{name}:{op.args[1]}", ledger.total_seconds
            dur = ledger.total_seconds - start
            args = _serial_args(op, work)
        self.events.append(TraceEvent(name, category, start, dur, args))
        return out

    # -- export ---------------------------------------------------------------
    def to_chrome_trace(self) -> list[dict]:
        """Chrome trace-event JSON objects (``ph: X`` complete events;
        microsecond timestamps as the format requires).

        Serial events keep the legacy category lanes (tid 1-3); events
        recorded by the streams subsystem carry a ``stream`` arg and get
        one lane per stream (tid 10+, first-appearance order), so
        transfer/compute overlap is visible as concurrent rows.
        """
        out: list[dict] = []
        stream_tids: dict[str, int] = {}
        for ev in self.events:
            stream = ev.args.get("stream")
            if stream is not None:
                tid = stream_tids.setdefault(
                    str(stream), 10 + len(stream_tids)
                )
            else:
                tid = {"kernel": 1, "transfer": 2}.get(ev.category, 3)
            out.append(
                {
                    "name": ev.name,
                    "cat": ev.category,
                    "ph": "X",
                    "ts": ev.start_s * 1e6,
                    "dur": max(ev.duration_s * 1e6, 0.001),
                    "pid": 0,
                    "tid": tid,
                    "args": ev.args,
                }
            )
        return out

    def write_chrome_trace(self, path) -> None:
        Path(path).write_text(
            json.dumps({"traceEvents": self.to_chrome_trace()})
        )

    # -- summaries --------------------------------------------------------------
    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ev in self.events:
            counts[ev.category] = counts.get(ev.category, 0) + 1
        return counts

    def busy_seconds(self, category: str) -> float:
        return sum(
            ev.duration_s for ev in self.events if ev.category == category
        )

    def trace_summary(self) -> dict:
        """Aggregate view of the recorded timeline (perf-snapshot hook):
        event counts and busy seconds per category, in sorted key order so
        serialized summaries are canonical."""
        counts = self.event_counts()
        return {
            "total_events": len(self.events),
            "events_by_category": {cat: counts[cat] for cat in sorted(counts)},
            "busy_seconds_by_category": {
                cat: self.busy_seconds(cat) for cat in sorted(counts)
            },
        }
