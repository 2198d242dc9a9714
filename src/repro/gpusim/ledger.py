"""Simulated-time ledger.

Every simulator component charges seconds and increments counters here.
Phases nest: charging while inside ``with ledger.phase("symbolic")`` books
the time both to the phase and to the total.  The benchmark harness reads
phase breakdowns to draw the paper's stacked "symbolic / numeric" bars
(Figs. 4-6) and the fault-service percentages of Table 3.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True, eq=False)
class ChargeTape:
    """:meth:`TimeLedger.charge` calls and counter increments that
    :meth:`TimeLedger.replay` books together.

    ``seconds`` holds the charges in call order (float64); ``masks``
    maps each category to a 0/1 int64 mask of the charges booked to it
    (a charge with no category is in no mask); ``counts`` sums each
    counter's increments (integer counters do not depend on order).
    """

    seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def _accumulate(start: float, seconds: np.ndarray) -> float:
    """``start`` plus each of ``seconds`` in order, one rounding per add.

    ``np.add.accumulate`` adds strictly left to right (no pairwise
    summation), so this equals a Python loop of ``+=`` bit for bit.
    """
    buf = np.empty(len(seconds) + 1, dtype=np.float64)
    buf[0] = start
    buf[1:] = seconds
    return float(np.add.accumulate(buf)[-1])


@dataclass
class TimeLedger:
    """Accumulates simulated seconds by phase plus named event counters."""

    phase_seconds: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _stack: list[str] = field(default_factory=list)
    total_seconds: float = 0.0

    # -- time -----------------------------------------------------------
    def charge(self, seconds: float, category: str | None = None) -> None:
        """Add ``seconds`` to the total, the current phase stack and, if
        given, the extra ``category`` bucket (e.g. ``"fault_service"``)."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.total_seconds += seconds
        for ph in self._stack:
            self.phase_seconds[ph] += seconds
        if category is not None:
            self.phase_seconds[category] += seconds

    def replay(self, tape: ChargeTape) -> None:
        """Book ``tape``, bitwise equal to issuing its calls one at a
        time under the current phase stack.

        Every bucket (the total, each open phase, each category) adds its
        own subsequence of the tape's charges with one
        :func:`_accumulate`; a bucket that is both an open phase and a
        category, or open twice, receives each charge as many times as
        :meth:`charge` would add it.  Each counter is bumped once by its
        summed increment.  An empty tape books nothing and creates no
        key.
        """
        for name, inc in tape.counts.items():
            self.counters[name] += int(inc)
        seconds, masks = tape.seconds, tape.masks
        if not len(seconds):
            return
        self.total_seconds = _accumulate(self.total_seconds, seconds)
        for name in dict.fromkeys([*self._stack, *masks]):
            times = self._stack.count(name)
            mask = masks.get(name)
            if mask is None and times == 1:
                seq = seconds
            else:
                seq = np.repeat(
                    seconds, times if mask is None else mask + times
                )
            self.phase_seconds[name] = _accumulate(
                self.phase_seconds[name], seq
            )

    def charge_aside(self, seconds: float, category: str) -> None:
        """Add ``seconds`` to the total and to ``category`` only, bypassing
        the phase stack.

        Recovery machinery (:mod:`repro.core.resilient`) books retry
        backoff here so per-phase breakdowns stay bitwise-comparable with
        a fault-free run: only the ``category`` bucket (and the total)
        carry the overhead.
        """
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.total_seconds += seconds
        self.phase_seconds[category] += seconds

    def charge_busy(self, seconds: float, category: str) -> None:
        """Add ``seconds`` to the ``category`` bucket only — neither the
        total nor the phase stack.

        Asynchronous execution (:mod:`repro.streams`) books each op's
        busy time here at *enqueue*; the wall-clock cost of the whole
        overlapped region is charged exactly once, at synchronize, as
        the region's makespan.  Category buckets therefore stay
        comparable with a serial run (same op set => same busy seconds)
        while the total genuinely shrinks with overlap.
        """
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.phase_seconds[category] += seconds

    @contextmanager
    def phase(self, name: str):
        """Context manager; time charged inside books to phase ``name``."""
        self._stack.append(name)
        try:
            yield self
        finally:
            self._stack.pop()

    def seconds(self, phase: str) -> float:
        return float(self.phase_seconds.get(phase, 0.0))

    # -- counters ---------------------------------------------------------
    def count(self, name: str, increment: int = 1) -> None:
        increment = int(increment)
        self.counters[name] += increment

    def get_count(self, name: str) -> int:
        return int(self.counters.get(name, 0))

    # -- reporting ----------------------------------------------------------
    def fraction(self, phase: str) -> float:
        """Phase share of total simulated time (0 when nothing charged)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.seconds(phase) / self.total_seconds

    def merge(self, other: "TimeLedger") -> None:
        """Fold another ledger's totals into this one (phases summed)."""
        self.total_seconds += other.total_seconds
        for k, v in other.phase_seconds.items():
            self.phase_seconds[k] += v
        for k, v in other.counters.items():
            self.counters[k] += v

    def snapshot(self) -> dict:
        """Plain-dict view for reports / serialization.

        Phase and counter keys come back sorted so two snapshots of
        equivalent ledgers serialize byte-identically (the perf-gate
        determinism contract).
        """
        return {
            "total_seconds": self.total_seconds,
            "phases": {
                k: self.phase_seconds[k] for k in sorted(self.phase_seconds)
            },
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"total: {self.total_seconds:.6f}s"]
        for k in sorted(self.phase_seconds):
            lines.append(f"  {k}: {self.phase_seconds[k]:.6f}s")
        for k in sorted(self.counters):
            lines.append(f"  #{k}: {self.counters[k]}")
        return "\n".join(lines)
