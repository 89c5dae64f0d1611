"""Hardware execution context (one SMT thread's replicated state)."""

from repro.cpu.prf import RenameMap
from repro.errors import VirtualizationError
from repro.sim import sanitizer as _san


class ContextState:
    """Lifecycle states of a hardware context."""

    IDLE = "idle"          # no state loaded
    RUNNING = "running"    # the core is fetching from this context
    STALLED = "stalled"    # state held in the PRF, fetch suspended (SVt)
    HALTED = "halted"      # executed HLT / mwait, waiting for an event

    ALL = (IDLE, RUNNING, STALLED, HALTED)


class HardwareContext:
    """One SMT hardware thread: a rename map over the core's shared PRF
    plus a tiny amount of per-thread control state."""

    def __init__(self, index, prf):
        self.index = index
        self.registers = RenameMap(prf)
        self.state = ContextState.IDLE
        self.owner_label = None  # e.g. "L0", "L1", "L2" — set by software

    # -- register plumbing -------------------------------------------------

    def read(self, name):
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"ctx{self.index}", name, "r",
                               "HardwareContext.read")
        return self.registers.read(name)

    def read_many(self, names):
        """``{name: self.read(name)}`` for every name, in order."""
        san = _san.ACTIVE
        if san is not None:
            for name in names:
                san.record(f"ctx{self.index}", name, "r",
                           "HardwareContext.read")
        return self.registers.read_many(names)

    def write(self, name, value):
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"ctx{self.index}", name, "w",
                               "HardwareContext.write")
        self.registers.write(name, value)

    def load_state(self, arch_registers, owner_label=None):
        """Load a full architectural snapshot into this context."""
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"ctx{self.index}", "*", "w",
                               "HardwareContext.load_state")
        self.registers.load_snapshot(arch_registers)
        if owner_label is not None:
            self.owner_label = owner_label
        if self.state == ContextState.IDLE:
            self.state = ContextState.STALLED

    def extract_state(self):
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"ctx{self.index}", "*", "r",
                               "HardwareContext.extract_state")
        return self.registers.extract_snapshot()

    def release(self):
        """Tear the context down, freeing its PRF entries."""
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"ctx{self.index}", "*", "w",
                               "HardwareContext.release")
        self.registers.clear()
        self.state = ContextState.IDLE
        self.owner_label = None

    # -- state transitions --------------------------------------------------

    def set_state(self, new_state):
        if new_state not in ContextState.ALL:
            raise VirtualizationError(f"unknown context state {new_state!r}")
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"ctx{self.index}", "state", "w",
                               "HardwareContext.set_state")
        self.state = new_state

    @property
    def is_running(self):
        return self.state == ContextState.RUNNING

    def __repr__(self):
        owner = self.owner_label or "-"
        return f"HardwareContext(#{self.index}, {self.state}, owner={owner})"
