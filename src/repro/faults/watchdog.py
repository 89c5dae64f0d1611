"""Sim-clock watchdogs: bounded backoff, strikes, graceful degradation.

Every blocking wait in the SW SVt protocol gets a :class:`Watchdog`.
When the awaited command does not surface, the waiter *strikes*: it
charges a bounded-exponential backoff wait on the simulated clock,
retransmits, and tries again.  After ``max_strikes`` consecutive
failures on one exchange the protocol gives up **gracefully**: the
switch engine records a :class:`DegradeEvent` and falls back from the
SW SVt reflection path to the stock BASELINE switch path for the rest
of the run (correct, just slower) instead of hanging.

All arithmetic is integral and parameter-driven — no wall clock, no
randomness — so recovery timing is as deterministic as the faults that
trigger it.  Defaults: the first timeout covers several SMT-placement
round trips (`repro.cpu.costs` channel costs are ~100-200 ns one-way),
doubles per strike, and caps an order of magnitude later.
"""

from dataclasses import dataclass

from repro.faults.backoff import BackoffPolicy


@dataclass(frozen=True)
class DegradeEvent:
    """One SW-SVt -> BASELINE downgrade, recorded by the switch engine."""

    at_ns: int
    site: str        # which wait gave up ("enter_l1", "leave_l1", ...)
    strikes: int     # consecutive failures that exhausted the budget
    reason: str = ""

    def to_dict(self):
        return {"at_ns": self.at_ns, "site": self.site,
                "strikes": self.strikes, "reason": self.reason}


class Watchdog:
    """Per-wait strike/backoff bookkeeping (the engine charges time).

    Usage, per blocking exchange::

        watchdog.start()
        while not arrived():
            if watchdog.exhausted:
                ...degrade...
                break
            wait_ns = watchdog.strike()   # charge this, then retransmit
        else:
            watchdog.succeed()

    ``strike`` returns the backoff to wait before the retry:
    ``timeout_ns * backoff_factor**strike`` capped at
    ``max_backoff_ns``.  ``succeed`` closes the exchange and reports
    whether it needed retries (a *recovery*).
    """

    def __init__(self, timeout_ns=2_000, backoff_factor=2,
                 max_backoff_ns=32_000, max_strikes=5, obs=None):
        if timeout_ns <= 0:
            raise ValueError(f"timeout_ns must be > 0: {timeout_ns}")
        if backoff_factor < 1:
            raise ValueError(
                f"backoff_factor must be >= 1: {backoff_factor}"
            )
        if max_backoff_ns < timeout_ns:
            raise ValueError("max_backoff_ns must be >= timeout_ns")
        if max_strikes < 1:
            raise ValueError(f"max_strikes must be >= 1: {max_strikes}")
        #: The backoff schedule and strike budget.
        self.policy = BackoffPolicy(
            base_ns=timeout_ns, factor=backoff_factor,
            cap_ns=max_backoff_ns, max_attempts=max_strikes,
        )
        self.timeout_ns = timeout_ns
        self.backoff_factor = backoff_factor
        self.max_backoff_ns = max_backoff_ns
        self.max_strikes = max_strikes
        self.obs = obs
        #: Strikes on the exchange currently in flight.
        self.strikes = 0
        # -- lifetime counters --------------------------------------------
        self.exchanges = 0
        self.total_strikes = 0
        self.recoveries = 0
        self.exhaustions = 0

    # -- per-exchange protocol --------------------------------------------

    def start(self):
        """Open a new blocking exchange."""
        self.strikes = 0
        self.exchanges += 1

    def backoff_ns(self, strike):
        """Backoff before retry number ``strike`` (0-based), bounded."""
        return self.policy.delay_ns(strike)

    def strike(self):
        """Record one failed wait; returns the backoff to charge."""
        wait = self.backoff_ns(self.strikes)
        self.strikes += 1
        self.total_strikes += 1
        if self.obs is not None:
            self.obs.count("watchdog_strikes_total")
        return wait

    @property
    def exhausted(self):
        """True once the exchange has burned every strike."""
        return self.strikes >= self.policy.max_attempts

    def succeed(self):
        """Close the exchange; True when it recovered after retries."""
        recovered = self.strikes > 0
        if recovered:
            self.recoveries += 1
            if self.obs is not None:
                self.obs.count("watchdog_recoveries_total")
        self.strikes = 0
        return recovered

    def give_up(self):
        """Close the exchange as exhausted (degradation follows)."""
        self.exhaustions += 1
        strikes = self.strikes
        self.strikes = 0
        if self.obs is not None:
            self.obs.count("watchdog_exhaustions_total")
        return strikes

    def counters(self):
        return {
            "exchanges": self.exchanges,
            "strikes": self.total_strikes,
            "recoveries": self.recoveries,
            "exhaustions": self.exhaustions,
        }
