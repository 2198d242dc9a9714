"""Per-device circuit breaker (rung 4 of the recovery ladder).

Classic three-state breaker over the virtual clock:

* **closed** — requests flow; consecutive recoverable failures are
  counted, and reaching ``failure_threshold`` trips the breaker open.
* **open** — the device is skipped by routing for ``cooldown_s``
  simulated seconds.
* **half-open** — after the cooldown one trial batch is admitted; success
  closes the breaker (and resets the failure count), failure re-opens it
  for another cooldown.

All transitions are driven by the scheduler's virtual time, so breaker
behaviour is exactly reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BreakerConfig", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery knobs shared by every device breaker."""

    #: consecutive recoverable failures that open the breaker
    failure_threshold: int = 3
    #: simulated seconds an open breaker rejects traffic before probing
    cooldown_s: float = 0.05

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")


@dataclass
class CircuitBreaker:
    """State machine guarding one device."""

    config: BreakerConfig = field(default_factory=BreakerConfig)
    state: str = CLOSED
    consecutive_failures: int = 0
    #: virtual time at which an open breaker may admit a probe
    open_until: float = 0.0
    #: a half-open breaker has admitted its one probe
    probing: bool = False
    trips: int = 0
    recoveries: int = 0
    #: virtual time of the most recent state change (0.0 if never moved)
    last_transition_s: float = 0.0

    def allow(self, now: float) -> bool:
        """May a batch be routed to this device at virtual time ``now``?

        An open breaker whose cooldown has elapsed transitions to
        half-open here (time-driven transition); a half-open breaker
        admits one probe until a verdict.
        """
        if self.state == OPEN:
            if now >= self.open_until:
                self.state = HALF_OPEN
                self.probing = False
                self.last_transition_s = now
            else:
                return False
        if self.state == HALF_OPEN:
            if self.probing:
                return False
            self.probing = True
        return True

    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self.recoveries += 1
        if self.state != CLOSED:
            self.last_transition_s = now
        self.state = CLOSED
        self.consecutive_failures = 0
        self.probing = False

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
            self.consecutive_failures >= self.config.failure_threshold
        ):
            if self.state != OPEN:
                self.trips += 1
                self.last_transition_s = now
            self.state = OPEN
            self.open_until = now + self.config.cooldown_s
            self.probing = False

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "open_until": self.open_until,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "last_transition_s": self.last_transition_s,
        }
