"""Engine identity and fast-path accounting.

The simulator has one engine: :meth:`repro.core.system.Machine.run_program`
steps every instruction through :meth:`~repro.core.system.Machine.run_instruction`,
and machines charge time through :meth:`repro.sim.engine.Simulator.charge`
(lazy clock, heap skipped while no event is due).  The only hot loop with
a second implementation is fig8's ETC queue model, whose backend choice
lives with it in :mod:`repro.workloads.memcached_native`
(see ``docs/performance.md``).

:data:`KERNEL_VERSION` names the engine generation; the result cache
folds it into every key so results computed by an older engine can
never be served after an engine change (see ``repro.exp.cache``).

This module also hosts the *ambient stats* hook the bench harness uses:
inside :func:`collect_stats`, every :class:`~repro.sim.engine.Simulator`
and :class:`~repro.core.system.Machine` constructed registers itself
with the active collector, which can then report totals (events fired,
instructions retired) without the hot paths paying for any bookkeeping
beyond their own counters.  The collector stack is per-process, exactly
like ``repro.obs.observer``'s ambient capture.
"""

from contextlib import contextmanager

#: Engine generation tag — bump on any change to charging semantics;
#: the result cache keys on it (stale-engine safety).
#: engine-3: one engine; the segment and batch replay kernels are gone.
KERNEL_VERSION = "engine-3"


def active_kernel():
    """The engine serving this process (there is exactly one)."""
    return KERNEL_VERSION


# ---------------------------------------------------------------------------
# Ambient fast-path stats (per-process; used by `repro bench`)
# ---------------------------------------------------------------------------


class KernelStats:
    """Totals over every simulator/machine built inside a collection.

    Holds strong references to the adopted objects and sums their own
    always-on counters on demand, so the simulator hot paths carry no
    collection-specific branches.
    """

    def __init__(self):
        self._simulators = []
        self._machines = []

    def adopt_simulator(self, sim):
        self._simulators.append(sim)

    def adopt_machine(self, machine):
        self._machines.append(machine)

    @property
    def events_fired(self):
        return sum(sim.events_fired for sim in self._simulators)

    @property
    def instructions(self):
        return sum(m.instructions_retired for m in self._machines)


_COLLECTORS = []


@contextmanager
def collect_stats():
    """Collect fast-path stats from every machine built in the block."""
    stats = KernelStats()
    _COLLECTORS.append(stats)
    try:
        yield stats
    finally:
        _COLLECTORS.pop()


def adopt_simulator(sim):
    """Called by ``Simulator.__init__``; no-op outside a collection."""
    for stats in _COLLECTORS:
        stats.adopt_simulator(sim)


def adopt_machine(machine):
    """Called by ``Machine.__init__``; no-op outside a collection."""
    for stats in _COLLECTORS:
        stats.adopt_machine(machine)
