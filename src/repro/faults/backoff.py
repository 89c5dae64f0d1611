"""Deterministic backoff schedule (:class:`BackoffPolicy`).

PR 4's watchdog carried its bounded-exponential schedule as inline
constants; this module lifts it into one frozen policy object.  The
sim-clock :class:`~repro.faults.watchdog.Watchdog` (SW SVt ring
exchanges) delegates its ``backoff_ns`` arithmetic here, byte-for-byte
identical to the inline formula it replaces.

All arithmetic is integral; a policy makes no draws and holds no state.
Like the rest of ``repro.faults`` the schedule is as deterministic as
the faults that trigger it (``docs/robustness.md``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff: ``base * factor**attempt``, capped.

    ``delay_ns(attempt)`` reproduces the PR 4 watchdog schedule exactly.
    """

    # paper: §5.2 — the first timeout covers several SMT-placement
    # channel round trips (repro.cpu.costs: ~100-200 ns one-way).
    base_ns: int = 2_000
    # synthetic: doubling per strike is the classic bounded-exponential
    # shape; integral so sim-clock charges stay exact.
    factor: int = 2
    # synthetic: caps an order of magnitude above the first timeout,
    # matching the PR 4 watchdog's inline 32_000 ns ceiling.
    cap_ns: int = 32_000
    # synthetic: five strikes exhaust a watchdog exchange (PR 4 default).
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.base_ns <= 0:
            raise ValueError(f"base_ns must be > 0: {self.base_ns}")
        if self.factor < 1:
            raise ValueError(f"factor must be >= 1: {self.factor}")
        if self.cap_ns < self.base_ns:
            raise ValueError("cap_ns must be >= base_ns")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1: {self.max_attempts}")

    def delay_ns(self, attempt: int) -> int:
        """Backoff before retry ``attempt`` (0-based):
        ``min(base_ns * factor**attempt, cap_ns)``."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0: {attempt}")
        return min(self.base_ns * self.factor ** attempt, self.cap_ns)
