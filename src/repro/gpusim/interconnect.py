"""Peer-to-peer interconnect model for multi-device execution.

Single-device runs move data over one host link (the cost model's PCIe
constants).  Sharding the pipeline across devices adds a second traffic
class: *peer* transfers — the reshard all-to-all after the row-sharded
symbolic phase and the per-level halo exchange of dependency columns
during numeric factorization (GLU 3.0's level sets make that traffic
enumerable: columns in level ``k`` only read columns from levels
``< k``).

The model is deliberately simple and fully deterministic:

* :class:`LinkSpec` — bandwidth/latency of one *directed* peer link.
  Presets :data:`PCIE3` (peer DMA bounced through the PCIe switch) and
  :data:`NVLINK2` (one NVLink 2.0 brick pair, as on the paper-era
  V100 boards).
* :class:`PeerLink` — a single-channel FIFO per directed device pair:
  one transfer at a time, back-to-back, exactly like the copy engines
  of :mod:`repro.streams.core`.
* :class:`Interconnect` — the full-crossbar topology over
  ``num_devices``; it books every transfer, charges per-link occupancy
  into its :class:`~repro.gpusim.ledger.TimeLedger` (busy buckets
  ``link:s->d`` plus ``p2p_transfers`` / ``bytes_p2p`` counters) and
  exports the transfer timeline as Chrome-trace lanes (one lane per
  link) for Perfetto inspection alongside the device timelines.

Times are absolute simulated seconds on the multi-device virtual
timeline; :func:`~repro.core.multigpu.multi_gpu_endtoend` resolves
every transfer's start at issue time (the same enqueue-time determinism
contract as :mod:`repro.streams`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .ledger import TimeLedger

__all__ = [
    "Interconnect",
    "LinkSpec",
    "NVLINK2",
    "P2PTransfer",
    "PCIE3",
    "PeerLink",
    "link_preset",
]


@dataclass(frozen=True)
class LinkSpec:
    """Bandwidth/latency of one directed peer-to-peer link."""

    name: str
    #: sustained bytes/second in one direction
    bandwidth: float
    #: fixed per-message cost (DMA setup + switch/brick traversal)
    latency: float

    def transfer_seconds(self, nbytes: int) -> float:
        """Wire time of one ``nbytes`` message on an idle link."""
        if nbytes < 0:
            raise ConfigurationError(
                f"p2p byte count must be >= 0, got {nbytes}"
            )
        return self.latency + nbytes / self.bandwidth


#: PCIe 3.0 x16 peer DMA through the host switch — same effective
#: bandwidth as the cost model's host link, slightly higher latency for
#: the extra switch hop.
PCIE3 = LinkSpec(name="pcie3", bandwidth=12.0e9, latency=2.5e-6)

#: One NVLink 2.0 brick pair (V100 generation): 25 GB/s per direction,
#: sub-microsecond-ish latency.
NVLINK2 = LinkSpec(name="nvlink2", bandwidth=25.0e9, latency=1.3e-6)

_PRESETS = {"pcie3": PCIE3, "nvlink2": NVLINK2}


def link_preset(name: str) -> LinkSpec:
    """Look up a preset by name (``pcie3`` / ``nvlink2``)."""
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise ConfigurationError(
            f"unknown link preset {name!r} (known: {known})"
        ) from None


@dataclass(frozen=True)
class P2PTransfer:
    """One booked peer transfer (schedule resolved at issue time)."""

    src: int
    dst: int
    nbytes: int
    start_s: float
    duration_s: float
    #: what the transfer carried (e.g. ``reshard`` / ``halo L3``)
    tag: str = ""

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class PeerLink:
    """A directed peer link: strict FIFO, one transfer at a time."""

    src: int
    dst: int
    spec: LinkSpec
    tail_s: float = 0.0
    busy_s: float = 0.0
    ops: int = 0
    bytes_total: int = 0

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    def schedule(self, ready_s: float, nbytes: int) -> tuple[float, float]:
        """Book one transfer; returns ``(start_s, duration_s)``."""
        dur = self.spec.transfer_seconds(nbytes)
        start = max(ready_s, self.tail_s)
        self.tail_s = start + dur
        self.busy_s += dur
        self.ops += 1
        self.bytes_total += int(nbytes)
        return start, dur


class Interconnect:
    """Full crossbar of :class:`PeerLink` FIFOs over ``num_devices``.

    Every booked transfer is recorded (for the Chrome-trace export and
    the traffic breakdown) and charged into :attr:`ledger`: busy
    seconds per ``link:s->d`` bucket, plus ``p2p_transfers`` and
    ``bytes_p2p`` counters — the same sorted-snapshot determinism
    contract as every other :class:`~repro.gpusim.ledger.TimeLedger`.
    """

    def __init__(self, num_devices: int, spec: LinkSpec = PCIE3) -> None:
        if num_devices < 1:
            raise ConfigurationError("num_devices must be >= 1")
        self.num_devices = int(num_devices)
        self.spec = spec
        self.ledger = TimeLedger()
        self.transfers: list[P2PTransfer] = []
        self._links: dict[tuple[int, int], PeerLink] = {}

    # -- topology ------------------------------------------------------
    def link(self, src: int, dst: int) -> PeerLink:
        """The directed link ``src -> dst`` (created on first use)."""
        self._check_pair(src, dst)
        return self._links.setdefault(
            (src, dst), PeerLink(src=src, dst=dst, spec=self.spec)
        )

    def _check_pair(self, src: int, dst: int) -> None:
        for label, dev in (("src", src), ("dst", dst)):
            if not (0 <= dev < self.num_devices):
                raise ConfigurationError(
                    f"{label} device {dev} out of range "
                    f"[0, {self.num_devices})"
                )
        if src == dst:
            raise ConfigurationError("p2p transfer needs src != dst")

    # -- booking -------------------------------------------------------
    def transfer(
        self, src: int, dst: int, nbytes: int, ready_s: float, tag: str = ""
    ) -> P2PTransfer:
        """Book one peer DMA; FIFO per link, start resolved at issue."""
        link = self.link(src, dst)
        start, dur = link.schedule(ready_s, int(nbytes))
        tr = P2PTransfer(
            src=src, dst=dst, nbytes=int(nbytes),
            start_s=start, duration_s=dur, tag=tag,
        )
        self.transfers.append(tr)
        self.ledger.charge_busy(dur, f"link:{link.name}")
        self.ledger.count("p2p_transfers")
        self.ledger.count("bytes_p2p", int(nbytes))
        return tr

    # -- reporting -----------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.ledger.get_count("bytes_p2p")

    @property
    def total_transfers(self) -> int:
        return self.ledger.get_count("p2p_transfers")

    def busy_seconds(self, src: int, dst: int) -> float:
        lk = self._links.get((src, dst))
        return 0.0 if lk is None else lk.busy_s

    def traffic_matrix(self) -> list[list[int]]:
        """Bytes moved per ordered device pair (``[src][dst]``)."""
        mat = [
            [0] * self.num_devices for _ in range(self.num_devices)
        ]
        for (s, d), lk in self._links.items():
            mat[s][d] = lk.bytes_total
        return mat

    def traffic_breakdown(self) -> dict:
        """Canonical (sorted-key) per-link summary for reports."""
        links = {}
        for key in sorted(self._links):
            lk = self._links[key]
            links[lk.name] = {
                "bytes": lk.bytes_total,
                "transfers": lk.ops,
                "busy_seconds": lk.busy_s,
            }
        return {
            "link": self.spec.name,
            "bytes_total": self.total_bytes,
            "transfers_total": self.total_transfers,
            "links": links,
        }

    def to_chrome_trace(self, *, pid: int = 100) -> list[dict]:
        """Chrome trace-event objects: one lane (tid) per directed link,
        first-appearance order, under their own process id so they sit
        beside the per-device lanes."""
        out = []
        lanes: dict[str, int] = {}
        for tr in self.transfers:
            name = f"{tr.src}->{tr.dst}"
            tid = lanes.setdefault(name, len(lanes))
            out.append(
                {
                    "name": f"p2p {tr.tag}".strip(),
                    "cat": "p2p",
                    "ph": "X",
                    "ts": tr.start_s * 1e6,
                    "dur": max(tr.duration_s * 1e6, 0.001),
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "link": name,
                        "bytes": tr.nbytes,
                        "spec": self.spec.name,
                    },
                }
            )
        return out

    def snapshot(self) -> dict:
        """Ledger snapshot + traffic breakdown (byte-stable ordering)."""
        snap = self.ledger.snapshot()
        snap["traffic"] = self.traffic_breakdown()
        return snap
