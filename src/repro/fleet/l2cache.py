"""Modeled shared L2 analysis cache with network-charged fetches.

Tier two of the fleet's analysis hierarchy.  Tier one is each node's
own byte-budgeted :class:`~repro.serve.cache.AnalysisCache` (L1, free to
hit).  The L2 is a single shared store — think a fat memory node or a
disaggregated cache service — that keeps every published analysis under
a (much larger) byte budget, so a pattern survives L1 eviction, node
loss, and ring resharding without paying a cold ``analyze()``.

An L2 hit is **not free**: the analysis bytes
(:attr:`~repro.core.refactorize.ReusableAnalysis.nbytes`) must cross the
network.  Each node owns one directed link to the store, modeled exactly
like a :class:`~repro.gpusim.interconnect.PeerLink`: a
:class:`~repro.gpusim.interconnect.LinkSpec` (bandwidth + per-message
latency) and a strict single-channel FIFO, so concurrent fetches by one
node queue back-to-back.  Fetch wire time is charged into a
:class:`~repro.gpusim.ledger.TimeLedger` under ``l2:fetch:node<i>`` and
delays the node's dispatch; publishes (write-through at cold-build time)
occupy the link under ``l2:write:node<i>`` but are write-behind — the
node does not wait for them.

The stored objects are the origin node's analyses; rebinding to the
fetching node's device happens in
:meth:`repro.serve.scheduler.BatchScheduler.adopt_analysis`, which keeps
the math bitwise-identical (the analysis is pure pattern state — only
the timeline changes).

Because publishes are write-behind, topology churn (``docs/churn.md``)
must resolve the race between a node leaving and its queued writes
still on the wire: a graceful leave calls :meth:`L2Cache.flush_writes`
(wait for every queued publish to land), a crash calls
:meth:`L2Cache.abort_writes` (publishes not yet complete at the crash
instant are rolled back out of the store — the warm state is genuinely
lost).  Joins use :meth:`L2Cache.warm_fetch` to bulk-load the arc keys
the newcomer now owns over its own link FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.refactorize import ReusableAnalysis
from ..gpusim.interconnect import PCIE3, LinkSpec
from ..gpusim.ledger import TimeLedger
from ..serve.cache import AnalysisCache

__all__ = ["L2Cache", "L2Fetch"]

#: byte budget of the shared store (LRU past it, like the L1)
L2_CAPACITY_BYTES = 512 << 20
#: node <-> store link model
L2_LINK = PCIE3


@dataclass(frozen=True)
class L2Fetch:
    """One resolved L2 lookup (miss ⇒ ``analysis is None``)."""

    key: str
    analysis: ReusableAnalysis | None
    #: simulated seconds the fetch occupied the node's link (0 on miss)
    start_s: float = 0.0
    duration_s: float = 0.0

    @property
    def hit(self) -> bool:
        return self.analysis is not None

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class _NodeLink:
    """Directed node<->store FIFO (one transfer in flight at a time)."""

    spec: LinkSpec
    tail_s: float = 0.0
    busy_s: float = 0.0
    ops: int = 0
    bytes_total: int = 0

    def schedule(self, ready_s: float, nbytes: int) -> tuple[float, float]:
        dur = self.spec.transfer_seconds(int(nbytes))
        start = max(float(ready_s), self.tail_s)
        self.tail_s = start + dur
        self.busy_s += dur
        self.ops += 1
        self.bytes_total += int(nbytes)
        return start, dur


class L2Cache:
    """Shared analysis store + per-node charged links.

    Storage/LRU/byte accounting reuse :class:`AnalysisCache` (the L1's
    engine) so both tiers obey identical eviction semantics; this class
    adds the network model and the fleet-facing counters.
    """

    def __init__(self, num_nodes: int = 1) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.link = L2_LINK
        self.store = AnalysisCache(L2_CAPACITY_BYTES)
        self.ledger = TimeLedger()
        self._links: dict[int, _NodeLink] = {
            i: _NodeLink(spec=self.link) for i in range(num_nodes)
        }
        #: per node: (key, completion time) of write-behind publishes
        #: not yet flushed/aborted, in publication order
        self._pending_writes: dict[int, list[tuple[str, float]]] = {
            i: [] for i in range(num_nodes)
        }

    # -- churn ---------------------------------------------------------
    def has_link(self, node_id: int) -> bool:
        return int(node_id) in self._links

    def register_node(self, node_id: int) -> None:
        """Attach a link FIFO for a node joining the fleet."""
        node_id = int(node_id)
        if node_id in self._links:
            raise ValueError(f"node {node_id} already has a link")
        self._links[node_id] = _NodeLink(spec=self.link)
        self._pending_writes[node_id] = []

    def flush_writes(self, node_id: int, now: float) -> float:
        """Wait out a leaver's queued write-behind publishes.

        Returns the virtual time at which the last publish lands
        (``now`` if nothing is on the wire); the graceful-leave path
        stalls the node until then, so every analysis it published is
        durably in the store before its link is torn down.
        """
        pending = self._pending_writes[self._require(node_id)]
        done = max([float(now)] + [t for _, t in pending])
        pending.clear()
        return done

    def abort_writes(self, node_id: int, now: float) -> list[str]:
        """Roll back a crashed node's publishes still on the wire.

        Any write whose completion time is after the crash instant
        never finished crossing the link: its store entry is removed
        (the origin's warm state is genuinely lost) unless some other
        publish of the same key already completed.  Returns the
        rolled-back keys, in publication order.
        """
        node_id = self._require(node_id)
        completed = {
            key
            for owner, pending in self._pending_writes.items()
            for key, done in pending
            if owner != node_id and done <= float(now)
        }
        aborted: list[str] = []
        for key, done in self._pending_writes[node_id]:
            if done > float(now) and key not in completed:
                if self.store.invalidate(key):
                    aborted.append(key)
                    self.ledger.count("l2_write_aborts")
        self._pending_writes[node_id] = []
        return aborted

    def warm_fetch(self, node_id: int, keys: list[str],
                   ready_s: float) -> list[L2Fetch]:
        """Bulk-load ``keys`` over ``node_id``'s link FIFO (join path).

        Each hit queues back-to-back on the single-channel link, so the
        total warm-up wall time is the serialized wire time of every
        resident analysis; misses cost nothing.  The caller adopts the
        returned analyses into the joiner's L1 and stalls its clock to
        the last fetch's :attr:`L2Fetch.end_s`.
        """
        fetches = []
        ready = float(ready_s)
        for key in keys:
            fetch = self.fetch(node_id, key, ready)
            if fetch.hit:
                ready = fetch.end_s
                self.ledger.count("l2_warm_fetches")
            fetches.append(fetch)
        return fetches

    def _require(self, node_id: int) -> int:
        if node_id not in self._links:
            raise ValueError(f"node {node_id} has no L2 link")
        return node_id

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, key: str) -> bool:
        return key in self.store

    @property
    def hits(self) -> int:
        return self.store.hits

    @property
    def misses(self) -> int:
        return self.store.misses

    @property
    def hit_rate(self) -> float:
        return self.store.hit_rate

    def keys(self) -> list[str]:
        """Resident keys, LRU -> MRU (deterministic; no counter touch)."""
        return self.store.keys()

    def _link(self, node_id: int) -> _NodeLink:
        return self._links[self._require(node_id)]

    # ------------------------------------------------------------------
    def fetch(self, node_id: int, key: str, ready_s: float) -> L2Fetch:
        """Look up ``key`` for ``node_id`` at virtual time ``ready_s``.

        A hit books the analysis bytes on the node's link FIFO and
        returns the resolved transfer window; the caller (the fleet)
        stalls the node until :attr:`L2Fetch.end_s` before dispatching.
        A miss costs nothing here — the node pays the cold analysis.
        """
        link = self._link(node_id)
        entry = self.store.get(key)
        if entry is None:
            self.ledger.count("l2_misses")
            return L2Fetch(key=key, analysis=None, start_s=float(ready_s))
        start, dur = link.schedule(ready_s, entry.nbytes)
        self.ledger.charge_busy(dur, f"l2:fetch:node{node_id}")
        self.ledger.count("l2_hits")
        self.ledger.count("bytes_l2_fetch", int(entry.nbytes))
        return L2Fetch(key=key, analysis=entry, start_s=start,
                       duration_s=dur)

    def fetch_family(
        self,
        node_id: int,
        family: str,
        ready_s: float,
        *,
        exclude: frozenset[str] | set[str] = frozenset(),
    ) -> L2Fetch | None:
        """Fetch a *donor* analysis from ``family`` for ``node_id``.

        The near-miss path: the exact pattern key missed both tiers, but
        a drifted sibling (same :func:`~repro.serve.cache.family_key`
        digest) may be resident — splicing its delta locally beats a
        cold analysis.  The newest resident member not in ``exclude`` is
        fetched, paying full wire time on the node's link exactly like
        an exact-key :meth:`fetch` (speculation is honest: if the delta
        later exceeds the incremental budget, the fetch cost is sunk).
        Returns ``None`` when no eligible member is resident.  Store
        hit/miss counters are untouched — family probes are tracked
        separately (``l2_family_hits`` / ``l2_family_misses``).
        """
        link = self._link(node_id)
        for key in self.store.family_members(family):
            if key in exclude:
                continue
            entry = self.store.peek(key)
            if entry is None:
                continue
            start, dur = link.schedule(ready_s, entry.nbytes)
            self.ledger.charge_busy(dur, f"l2:fetch:node{node_id}")
            self.ledger.count("l2_family_hits")
            self.ledger.count("bytes_l2_fetch", int(entry.nbytes))
            return L2Fetch(key=key, analysis=entry, start_s=start,
                           duration_s=dur)
        self.ledger.count("l2_family_misses")
        return None

    def put(self, node_id: int, key: str, analysis: ReusableAnalysis,
            ready_s: float) -> float:
        """Publish an analysis (write-behind): occupies the node's link
        but never stalls the node.  Returns the write's completion time
        on the simulated timeline."""
        link = self._link(node_id)
        start, dur = link.schedule(ready_s, analysis.nbytes)
        self.ledger.charge_busy(dur, f"l2:write:node{node_id}")
        self.ledger.count("l2_writes")
        self.ledger.count("bytes_l2_write", int(analysis.nbytes))
        self.store.put(key, analysis)
        # track the in-flight window so churn can flush or roll it back;
        # writes that have already landed by this node's clock are done
        pending = self._pending_writes[node_id]
        pending[:] = [(k, t) for k, t in pending if t > float(ready_s)]
        pending.append((key, start + dur))
        return start + dur

    def invalidate(self, key: str) -> bool:
        return self.store.invalidate(key)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Store counters + link occupancy, JSON-shaped."""
        out = self.store.stats()
        out["link"] = self.link.name
        out["writes"] = self.ledger.get_count("l2_writes")
        out["family_hits"] = self.ledger.get_count("l2_family_hits")
        out["family_misses"] = self.ledger.get_count("l2_family_misses")
        out["bytes_fetched"] = self.ledger.get_count("bytes_l2_fetch")
        out["bytes_written"] = self.ledger.get_count("bytes_l2_write")
        out["links"] = [
            {
                "node": i,
                "ops": lk.ops,
                "bytes": lk.bytes_total,
                "busy_seconds": lk.busy_s,
            }
            for i, lk in sorted(self._links.items())
        ]
        out["pending_writes"] = {
            i: len(pending)
            for i, pending in sorted(self._pending_writes.items())
        }
        return out
