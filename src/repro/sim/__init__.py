"""Discrete-event simulation substrate used by every other subpackage.

The simulator keeps an integer nanosecond clock.  Synchronous "machine"
code advances time by charging costs (:meth:`Simulator.charge`), while
asynchronous events (interrupt arrivals, client requests) are scheduled
with :meth:`Simulator.after` / :meth:`Simulator.at` and fire in timestamp
order whenever the clock sweeps past them.  :meth:`Simulator.advance` is
``charge``'s reference twin: the fast-path property test checks that
both leave the same clock and fire the same events.
"""

from repro.sim.engine import EventHandle, Simulator, SimulationError
from repro.sim.rng import DeterministicRng
from repro.sim.stats import (
    Summary,
    mean,
    percentile,
    remove_outliers,
    stddev,
    summarize,
)
from repro.sim.trace import Tracer, Category

__all__ = [
    "Category",
    "DeterministicRng",
    "EventHandle",
    "SimulationError",
    "Simulator",
    "Summary",
    "Tracer",
    "mean",
    "percentile",
    "remove_outliers",
    "stddev",
    "summarize",
]
