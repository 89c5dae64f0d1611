"""Virtual CPU: architectural state with a switchable home.

A vCPU's register state normally lives in hypervisor memory (an
:class:`~repro.cpu.registers.ArchRegisters` snapshot) and is copied into
the hardware on VM resume — that copying is the context-switch cost the
paper attacks.  Under SVt the state is *pinned* in a hardware context's
slice of the shared physical register file and is never copied; reads and
writes then flow through the context's rename map
(:meth:`VCpu.bind_context`).
"""

from repro.cpu.registers import ArchRegisters, RegNames
from repro.errors import VirtualizationError


class VCpu:
    """One virtual CPU of a VM at some virtualization level."""

    def __init__(self, name, level):
        self.name = name
        self.level = level
        self.memory_state = ArchRegisters()
        self._context = None
        self.msrs = {}          # virtualized MSR store (emulated reads)
        self.halted = False
        self.exits = 0          # lifetime VM-exit count (profiling)

    # -- state home management ----------------------------------------------

    @property
    def context(self):
        return self._context

    def bind_context(self, hardware_context):
        """Pin this vCPU's state into a hardware context (SVt mode).
        Loads the current memory snapshot into the context."""
        hardware_context.load_state(self.memory_state, owner_label=self.name)
        self._context = hardware_context

    def unbind_context(self):
        """Evict the state back to memory (context multiplexing past the
        core's SMT width, paper §3.1)."""
        if self._context is None:
            raise VirtualizationError(f"{self.name} has no bound context")
        self.memory_state = self._context.extract_state()
        self._context.release()
        self._context = None

    @property
    def is_pinned(self):
        return self._context is not None

    # -- register access -------------------------------------------------------

    def read(self, register):
        if self._context is not None:
            return self._context.read(register)
        return self.memory_state.read(register)

    def read_many(self, registers):
        """``{register: self.read(register)}`` for every register, in
        order: one call down the context/register-file chain."""
        if self._context is not None:
            return self._context.read_many(registers)
        return self.memory_state.read_many(registers)

    def write(self, register, value):
        if self._context is not None:
            self._context.write(register, value)
        else:
            self.memory_state.write(register, value)

    @property
    def rip(self):
        return self.read(RegNames.RIP)

    def advance_rip(self, instruction_length):
        """Skip the emulated instruction (paper §1: "e.g., increase the
        instruction pointer after emulating an access to an I/O device")."""
        self.write(RegNames.RIP, self.rip + instruction_length)

    # -- MSR store ---------------------------------------------------------------

    def read_msr(self, msr):
        return self.msrs.get(msr, 0)

    def write_msr(self, msr, value):
        self.msrs[msr] = value

    def __repr__(self):
        home = f"ctx#{self._context.index}" if self._context else "memory"
        return f"VCpu({self.name!r}, L{self.level}, state in {home})"
